#!/usr/bin/env python3
"""Seeded benchmark for covlat.

    python3 bench/run.py --workload enumerate --seed 0 --seconds 10 --trace 0
    python3 bench/run.py                  # every workload, each in its own process

One caller, one thread, closed loop: each operation starts when the previous
one has returned.  The workload's inputs come from ``--seed``; its pass of
operations repeats until ``--seconds`` of operation time have been spent, and
a run always ends at the end of a pass.  Answers are checked outside the timed
region: the first pass against checks written apart from covlat (and, at the
default seed, against the digests in ``pinned.json``), every later pass
against the first.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the set-up runs
once with every public covlat function traced (see tracing.py), the passes
alternate untraced and traced, and the metrics are the per-layer ones.  bench/README.md says
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
# calibration_loop is timed between operations whenever this much operation
# time has passed since it last ran (s), and always at the end of a pass
CALIBRATE_EVERY = 0.1
# and for at least this share of the time it gauges, so that a long
# operation is gauged by several samples
GAUGE_SHARE = 0.05
# reported times are scaled to a host on which calibration_loop takes this long (s)
CALIBRATION_REFERENCE_S = 0.01
# calibration_loop samples taken after each set-up, whose median gauges it
SETUP_GAUGE_SAMPLES = 3
# string hashing is seeded alike in every run, so str-keyed dicts and sets
# have the same layout from one run to the next
HASH_SEED = "0"
WORKLOAD_NAMES = ("enumerate", "lattice_query", "campaign", "cli")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all of them, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import covlat and its CLI afresh from this checkout's src/, with the
    environment pinned.  Called once per set-up, so that import time is
    part of set-up time."""
    os.environ.pop("COVLAT_MAX_LATTICE_SIZE", None)
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path[:0] = [str(src), str(HERE)]
    for name in [m for m in sys.modules if m == "covlat" or m.startswith("covlat.")]:
        del sys.modules[name]
    covlat = importlib.import_module("covlat")
    importlib.import_module("covlat.cli")
    if Path(covlat.__file__).resolve().parent != src / "covlat":
        raise ImportError(f"covlat was imported from {covlat.__file__}, not from {src}")
    return covlat


def calibration_loop() -> int:
    """A fixed piece of pure-Python work (integer arithmetic and a dict of
    4,096 keys), 12 to 24 ms on a shared 2-vCPU VM.  Timed right after the
    work it gauges, it measures how fast the host runs Python at that
    moment; no change to covlat changes it."""
    counts: dict[int, int] = {}
    x = 0
    for _ in range(40_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 0xFFF
        counts[key] = counts.get(key, 0) + (x >> 7 & 3)
    return len(counts)


def gauge(samples: int, budget: float) -> float:
    """The median time of calibration_loop over at least ``samples`` runs,
    and more while the runs have taken under ``budget`` seconds in all."""
    times: list[float] = []
    while len(times) < samples or sum(times) < budget:
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def repeat(fn) -> tuple[object, list[float], list[float]]:
    """Call fn at least three times, and more (up to 15) while the calls
    have taken under a second in all; return the last result, each call's
    time and the gauge taken right after it.  Short set-ups are repeated
    more, so their median holds still on a noisy host."""
    times: list[float] = []
    gauges: list[float] = []
    result = None
    while len(times) < 3 or (len(times) < 15 and sum(times) < 1.0):
        result = None  # free the previous result, so peak RSS holds one set of inputs
        gc.collect()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        gauges.append(gauge(SETUP_GAUGE_SAMPLES, GAUGE_SHARE * times[-1]))
    return result, times, gauges


def scaled(times: list[float], gauges: list[float]) -> float:
    """The median of each time over its gauge, as seconds on a host on which
    calibration_loop takes CALIBRATION_REFERENCE_S."""
    return CALIBRATION_REFERENCE_S * statistics.median(t / g for t, g in zip(times, gauges))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def timed_loop(workload, run_pass, seconds: float, tracer=None, package=None) -> dict:
    """Repeat whole passes until ``seconds`` of operation time have been
    spent; check answers between operations, outside the timed region.

    With a tracer, passes alternate untraced and traced (the tracer is
    installed on ``package`` for the odd passes), so that both rates are
    taken under the same load on the host; ``seconds`` then counts the
    traced passes, and the loop also ends once the span buffer is full.

    Each operation's time is paired with the next gauge taken after it,
    after every CALIBRATE_EVERY seconds of operation time and at the end of
    the pass."""
    ops = run_pass.ops
    clock = time.perf_counter
    busy = {False: 0.0, True: 0.0}
    pass_units = attempted = failed = 0
    first: list = []
    passes: list[tuple[bool, list[float], list[float]]] = []
    problems: list[str] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(package)
        latencies: list[float] = []
        gauges: list[float] = []
        since_gauge = 0.0
        spans = len(tracer.name_ids) if tracer is not None else 0
        try:
            with workload.session():
                for i, op in enumerate(ops):
                    if tracer is not None:
                        tracer.instance = op.instance
                    error = None
                    start = clock()
                    try:
                        result = op.call()
                    except Exception as exc:  # an operation that raises is a failed operation
                        error = exc
                    latencies.append(clock() - start)
                    since_gauge += latencies[-1]
                    if since_gauge >= CALIBRATE_EVERY or i == len(ops) - 1:
                        g = gauge(1, GAUGE_SHARE * since_gauge)
                        gauges += [g] * (len(latencies) - len(gauges))
                        since_gauge = 0.0
                    attempted += 1
                    if error is not None:
                        answer = ("error", type(error).__name__, str(error))
                        found = [f"op {i} raised {type(error).__name__}: {error}"]
                    else:
                        answer = workload.answer(result)
                        found = [] if passes else run_pass.check(i, result)
                        if not passes:
                            pass_units += workload.units(result)
                    if not passes:
                        first.append(answer)
                    elif answer != first[i]:
                        found.append(f"op {i}: answer differs from the first pass")
                    if found:
                        failed += 1
                        problems.extend(found)
        finally:
            if traced:
                tracer.uninstall()
        if tracer is not None and not traced and len(tracer.name_ids) != spans:
            # an operation kept a wrapper from the traced set-up
            problems.append("spans recorded while the tracer was uninstalled")
            failed += 1
        passes.append((traced, latencies, gauges))
        busy[traced] += sum(latencies)
        if tracer is None and busy[False] >= seconds:
            break
        if traced and (busy[True] >= seconds or tracer.full()):
            break
    return {
        "busy": busy,
        "pass_units": pass_units,
        "attempted": attempted,
        "failed": failed,
        "first": first,
        "passes": passes,
        "problems": problems,
    }


def op_costs(loop: dict, traced: bool = False, gauged: bool = True) -> list[float]:
    """Each operation's time over the (untraced, or traced) passes run: the
    median of its time over its gauge, scaled as in ``scaled``, or with
    ``gauged`` false the median time as measured."""
    runs = [(times, gauges) for was_traced, times, gauges in loop["passes"] if was_traced == traced]
    costs = []
    for i in range(len(runs[0][0])):
        if gauged:
            costs.append(scaled([times[i] for times, _ in runs], [gauges[i] for _, gauges in runs]))
        else:
            costs.append(statistics.median(times[i] for times, _ in runs))
    return costs


def pass_rate(loop: dict, traced: bool = False, gauged: bool = True) -> float:
    """Work per second of one pass whose every operation takes its op_costs time."""
    return loop["pass_units"] / sum(op_costs(loop, traced, gauged))


def pinned_problems(workload: str, seed: int, first: list) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    from workloads import digest

    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    got = digest(first)
    want = pinned.get(workload)
    if want != got:
        return [f"first-pass digest {got} does not match the pinned {want} at seed {seed}"]
    return []


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_one(args: argparse.Namespace, spec: dict) -> int:
    covlat, import_times, import_gauges = repeat(load_program)
    import tracing
    from workloads import WORKLOADS

    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    setup_times: list[float] = []
    setup_gauges: list[float] = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(covlat)
        try:
            run_pass = workload.setup(args.seed, ROOT)
        finally:
            tracer.uninstall()
        loop = timed_loop(workload, run_pass, seconds, tracer, covlat)
    else:
        run_pass, setup_times, setup_gauges = repeat(lambda: workload.setup(args.seed, ROOT))
        loop = timed_loop(workload, run_pass, seconds)
    pin = pinned_problems(args.workload, args.seed, loop["first"])
    problems = loop["problems"] + pin
    attempted, failed = loop["attempted"], loop["failed"] + bool(pin)
    rate = pass_rate(loop)
    untraced = [latencies for traced, latencies, _ in loop["passes"] if not traced]

    if args.trace:
        values = tracing.layer_metrics(tracer)
        values.update(workload.counts())
        values["src.lines"] = src_lines()
        traced_rate = pass_rate(loop, traced=True)
        values["trace.overhead_pct"] = 100.0 * (rate / traced_rate - 1.0)
        traffic = tracing.query_traffic(tracer)
        missing = tracing.missing_layers(args.workload, values)
        if missing:
            problems.append("per-layer metrics that read zero on their workload: " + ", ".join(missing))
        tracer.write(ROOT / ".bench_out" / "trace" / f"{args.workload}.spans.gz")
        print(
            f"# traced {len(loop['passes']) - len(untraced)} passes, {values['trace.spans']} spans; "
            f"{traced_rate:.4g} vs {rate:.4g} {workload.unit}/s on the untraced passes between them "
            f"(tracing overhead {values['trace.overhead_pct']:.1f}%)"
        )
        print(
            "# lattice query traffic (calls not made inside another query): "
            + ", ".join(f"{name.split('.')[1]} {count}" for name, count in traffic.items())
        )
        declared = spec["per_layer"]
    else:
        values = {
            "ops_per_s": rate,
            "setup_s": scaled(import_times, import_gauges) + scaled(setup_times, setup_gauges),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"# gauge {statistics.median(g for _, _, gauges in loop['passes'] for g in gauges):.5f} s, "
            f"median calibration_loop time; the result line scales times to a "
            f"{CALIBRATION_REFERENCE_S} s host, the lines below are as measured"
        )
        print(f"# setup_s {statistics.median(import_times) + statistics.median(setup_times):.6g} s, median import + median set-up")
        declared = spec["end_to_end"]

    latencies_ms = [1000 * x for latencies in untraced for x in latencies]
    # the highest percentile up to p90 with at least ten samples beyond it
    q = min(90, 100 * (len(latencies_ms) - 10) // len(latencies_ms))
    tail = f"p{q} {percentile(latencies_ms, q):.4g}" if q > 50 else f"max {max(latencies_ms):.4g}"
    print(f"# workload {args.workload}, seed {args.seed} {run_pass.info or ''}")
    print(
        f"# {workload.unit}_per_s {pass_rate(loop, gauged=False):.6g} 1/s, per-op medians over "
        f"{len(untraced)} untraced passes of {len(run_pass.ops)} ops over {loop['busy'][False]:.3f} s "
        f"of operation time"
    )
    print(f"# pass_s {statistics.median(sum(p) for p in untraced):.6g} s, median pass time")
    medians = op_costs(loop, gauged=False)
    for part, indices in run_pass.parts.items():
        part_s = sum(medians[i] for i in indices)
        print(f"# part {part}: {len(indices)} ops, {part_s:.6g} s of per-op medians, {len(indices) / part_s:.6g} ops/s")
    print(
        f"# {workload.op}_p50_ms {statistics.median(latencies_ms):.4g} ms, "
        f"{workload.op}_{tail} ms over {len(latencies_ms)} ops"
    )
    if setup_times:
        print(
            f"# setup {', '.join(f'{s:.4f}' for s in setup_times)} s; "
            f"import {', '.join(f'{s:.4f}' for s in import_times)} s"
        )
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"# FAIL {problem}")

    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name} exited with {proc.returncode}")
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the seed is read at interpreter start-up: start this script afresh
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args, spec)
    except (ImportError, OSError) as exc:  # no program or data to measure: no result
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
