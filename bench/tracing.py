"""Span tracing of covlat's public functions, driven from the benchmark.

``Tracer.install`` wraps a fixed list of public functions and methods of the
``covlat`` modules.  A module-level function imported with ``from ... import``
is bound once per importing module, so every binding that holds the original
function object is replaced, in every covlat module, and ``install`` fails if
one is left behind.  Methods are replaced on their class, which covers every
caller at once.

Each wrapped call records one span (name, start, end, parent span, instance)
into flat arrays kept in memory; ``write`` dumps them when the run ends and
``layer_metrics`` derives the per-layer figures from them.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import array
import gzip
import json
import sys
import time
from pathlib import Path

# (span name, module, qualified attribute).  A dotted attribute is a method.
TRACED = (
    ("transversal.rank", "transversal", "TransversalMatroid.rank"),
    ("transversal.closure", "transversal", "TransversalMatroid.closure"),
    ("transversal.ab_decomposition", "transversal", "ab_decomposition"),
    ("lattice.enumerate", "lattice", "enumerate_lattice"),
    ("lattice.construct", "lattice", "FlatLattice.__init__"),
    ("lattice.join", "lattice", "FlatLattice.join"),
    ("lattice.meet", "lattice", "FlatLattice.meet"),
    ("lattice.covers", "lattice", "FlatLattice.covers"),
    ("lattice.upper_covers", "lattice", "FlatLattice.upper_covers"),
    ("lattice.lower_covers", "lattice", "FlatLattice.lower_covers"),
    ("lattice.is_geometric", "lattice", "FlatLattice.is_geometric"),
    ("lattice.modular_pair_by_heights", "lattice", "modular_pair_by_heights"),
    ("lattice.is_modular_pair", "lattice", "is_modular_pair"),
    ("lattice.is_modular_element", "lattice", "is_modular_element"),
    ("approximation.table", "approximation", "NeighborhoodTable.build"),
    ("approximation.verdict", "approximation", "closure_operator_verdict"),
    ("approximation.partition_matroid", "approximation", "induced_partition_matroid"),
    ("approximation.tra", "approximation", "tra_condition"),
    ("approximation.equ", "approximation", "equ_condition"),
    ("reduction.report", "reduction", "reduction_report"),
    ("reduction.reduct", "reduction", "reduct"),
    ("reduction.exclusion", "reduction", "exclusion"),
    ("relations.containments", "relations", "check_containments"),
    ("relations.deletion", "relations", "check_deletion_monotonicity"),
    ("relations.reduct_exclusion", "relations", "check_reduct_exclusion_containments"),
    ("relations.preservation", "relations", "check_reduction_preservation"),
    ("relations.full_report", "relations", "full_relation_report"),
    ("universe.parse", "universe", "parse_family"),
    ("bridge.system", "bridge", "SubmodularSystem.__init__"),
    ("bridge.induced_rank", "bridge", "induced_rank"),
    ("bridge.independent_iff_flat_bound", "bridge", "independent_iff_flat_bound"),
    ("oracle.bruteforce", "oracle", "BruteForce.__init__"),
    ("oracle.axioms", "oracle", "brute_operator_axioms"),
    ("verify.oracle_equivalence", "verify", "verify_oracle_equivalence"),
    ("verify.lattice_structure", "verify", "verify_lattice_structure"),
    ("verify.round_trip", "verify", "verify_round_trip"),
    ("verify.operator_criteria", "verify", "verify_operator_criteria"),
    ("verify.induced_matroids", "verify", "verify_induced_matroids"),
    ("verify.modularity", "verify", "verify_modularity"),
    ("verify.relations", "verify", "verify_relations"),
    ("verify.family", "verify", "verify_family"),
    ("verify.covering", "verify", "verify_covering"),
    ("verify.random", "verify", "verify_random"),
    ("cli.check", "cli", "cmd_check"),
    ("cli.compare", "cli", "cmd_compare"),
)

LATTICE_QUERIES = (
    "lattice.join",
    "lattice.meet",
    "lattice.covers",
    "lattice.upper_covers",
    "lattice.lower_covers",
    "lattice.modular_pair_by_heights",
)

VERIFY_SUITES = (
    "oracle_equivalence",
    "lattice_structure",
    "round_trip",
    "operator_criteria",
    "induced_matroids",
    "modularity",
    "relations",
)

# Per-layer metric -> the workloads on which it must read non-zero.  The
# end-to-end metric each one should move is written out in bench/README.md.
# verify.dropped (0 expected) and trace.overhead_pct are not listed.
LAYER_WORKLOADS = {
    "transversal.closure.calls": ("enumerate", "cli"),
    "transversal.closure.self_s": ("enumerate", "cli"),
    "transversal.rank.calls": ("cli", "campaign"),
    "transversal.rank.self_s": ("cli", "campaign"),
    "transversal.closure_per_flat": ("enumerate",),
    "lattice.enumerate.self_s": ("enumerate",),
    "lattice.construct_s": ("enumerate", "lattice_query"),
    "lattice.join.calls": ("lattice_query",),
    "lattice.join.us_per_call": ("lattice_query",),
    "lattice.cover_query.us_per_call": ("lattice_query",),
    "lattice.is_geometric_s": ("lattice_query", "campaign"),
    "approximation.verdict.calls": ("cli", "campaign"),
    "approximation.verdict_s": ("cli", "campaign"),
    "approximation.table.calls": ("cli", "campaign"),
    "relations.containments_s": ("cli", "campaign"),
    "relations.deletion_s": ("cli", "campaign"),
    "relations.reduct_exclusion_s": ("cli", "campaign"),
    "relations.preservation_s": ("cli", "campaign"),
    "reduction.report_s": ("cli",),
    "universe.parse_s": ("cli",),
    "bridge.system_s": ("campaign",),
    "bridge.induced_rank.calls": ("campaign",),
    "oracle.bruteforce_s": ("campaign",),
    "oracle.axioms_s": ("campaign",),
    **{f"verify.{suite}_s": ("campaign",) for suite in VERIFY_SUITES},
    "verify.instances": ("campaign",),
    "verify.checks_run": ("campaign",),
    "cli.check.self_s": ("cli",),
    "cli.compare.self_s": ("cli",),
    "trace.spans": ("enumerate", "lattice_query", "campaign", "cli"),
    "src.lines": ("enumerate", "lattice_query", "campaign", "cli"),
}

# Past this many spans the traced loop stops after the current operation;
# about 26 bytes a span, so memory stays near 100 MB.
SPAN_CAP = 3_000_000


class Tracer:
    def __init__(self) -> None:
        self.names = [span_name for span_name, _, _ in TRACED]
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.instances = array.array("i")
        self.current = -1
        self.instance = -1  # the operation being run; -1 during set-up
        self.flats = 0
        self._undo: list[tuple[object, str, object]] = []

    def full(self) -> bool:
        return len(self.name_ids) >= SPAN_CAP

    def _wrap(self, fn, name_id: int, count_flats: bool):
        tracer = self
        clock = time.perf_counter
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, instances = self.parents, self.instances

        def traced(*args, **kwargs):
            parent = tracer.current
            sid = len(name_ids)
            name_ids.append(name_id)
            parents.append(parent)
            instances.append(tracer.instance)
            ends.append(0.0)
            tracer.current = sid
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                tracer.current = parent
            if count_flats and tracer.instance >= 0:
                tracer.flats += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, package) -> None:
        modules = [package] + [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and module is not None
        ]
        for name_id, (span_name, module_name, attr) in enumerate(TRACED):
            module = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name_id, False))
                else:
                    replacement = self._wrap(raw, name_id, False)
                self._undo.append((cls, method, raw))
                setattr(cls, method, replacement)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name_id, span_name == "lattice.enumerate")
            for target in modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, key, original))
                        setattr(target, key, wrapped)
            leftover = [
                f"{target.__name__}.{key}"
                for target in modules
                for key, value in vars(target).items()
                if value is original
            ]
            if leftover:
                raise RuntimeError(f"unpatched bindings of {attr}: {leftover}")

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.name_ids),
            "arrays": [
                ["name_id", "H"],
                ["start", "d"],
                ["end", "d"],
                ["parent", "i"],
                ["instance", "i"],
            ],
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.starts, self.ends, self.parents, self.instances):
                out.write(arr.tobytes())

    def totals(self, timed: bool = True) -> tuple[list[int], list[float], list[float]]:
        """Per span name: call count, self seconds, and inclusive seconds of
        the outermost spans (a span nested in one of the same name is
        already counted in its ancestor), over the spans of the timed
        operations or, with ``timed=False``, over those of the set-up
        (instance -1).  A span's children belong to the same phase."""
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        total_s = [0.0] * k
        open_count = [0] * k
        stack: list[int] = []
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        instances = self.instances
        for sid in range(len(name_ids)):
            if (instances[sid] >= 0) != timed:
                continue
            parent = parents[sid]
            while stack and stack[-1] != parent:
                open_count[name_ids[stack.pop()]] -= 1
            nid = name_ids[sid]
            duration = ends[sid] - starts[sid]
            calls[nid] += 1
            self_s[nid] += duration
            if parent >= 0:
                self_s[name_ids[parent]] -= duration
            if open_count[nid] == 0:
                total_s[nid] += duration
            stack.append(sid)
            open_count[nid] += 1
        return calls, self_s, total_s


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of the timed operations; only
    ``lattice.construct_s`` adds the set-up's lattice builds, which it is
    meant to cover (lattice_query builds its lattices in set-up)."""
    calls, self_s, total_s = tracer.totals()
    setup_total_s = tracer.totals(timed=False)[2]
    index = {name: i for i, name in enumerate(tracer.names)}

    def n(name: str) -> int:
        return calls[index[name]]

    def own(name: str) -> float:
        return self_s[index[name]]

    def total(name: str) -> float:
        return total_s[index[name]]

    def us_per_call(*names: str) -> float:
        count = sum(n(name) for name in names)
        return 1e6 * sum(total(name) for name in names) / count if count else 0.0

    metrics = {
        "transversal.closure.calls": n("transversal.closure"),
        "transversal.closure.self_s": own("transversal.closure"),
        "transversal.rank.calls": n("transversal.rank"),
        "transversal.rank.self_s": own("transversal.rank"),
        "transversal.closure_per_flat": (
            n("transversal.closure") / tracer.flats if tracer.flats else 0.0
        ),
        "lattice.enumerate.self_s": own("lattice.enumerate"),
        "lattice.construct_s": total("lattice.construct") + setup_total_s[index["lattice.construct"]],
        "lattice.join.calls": n("lattice.join"),
        "lattice.join.us_per_call": us_per_call("lattice.join"),
        "lattice.cover_query.us_per_call": us_per_call(
            "lattice.covers", "lattice.upper_covers", "lattice.lower_covers"
        ),
        "lattice.is_geometric_s": total("lattice.is_geometric"),
        "approximation.verdict.calls": n("approximation.verdict"),
        "approximation.verdict_s": total("approximation.verdict"),
        "approximation.table.calls": n("approximation.table"),
        "relations.containments_s": total("relations.containments"),
        "relations.deletion_s": total("relations.deletion"),
        "relations.reduct_exclusion_s": total("relations.reduct_exclusion"),
        "relations.preservation_s": total("relations.preservation"),
        "reduction.report_s": total("reduction.report"),
        "universe.parse_s": total("universe.parse"),
        "bridge.system_s": total("bridge.system"),
        "bridge.induced_rank.calls": n("bridge.induced_rank"),
        "oracle.bruteforce_s": total("oracle.bruteforce"),
        "oracle.axioms_s": total("oracle.axioms"),
    }
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}_s"] = total(f"verify.{suite}")
    metrics["cli.check.self_s"] = own("cli.check")
    metrics["cli.compare.self_s"] = own("cli.compare")
    metrics["trace.spans"] = len(tracer.name_ids)
    return metrics


def query_traffic(tracer: Tracer) -> dict[str, int]:
    """Calls of each lattice query in the timed operations that were not
    made inside another lattice query (modular_pair_by_heights calls join
    and meet): the query mix the program's own callers send."""
    ids = {tracer.names.index(name): name for name in LATTICE_QUERIES}
    counts = dict.fromkeys(LATTICE_QUERIES, 0)
    name_ids, parents, instances = tracer.name_ids, tracer.parents, tracer.instances
    for sid, nid in enumerate(name_ids):
        if nid in ids and instances[sid] >= 0:
            parent = parents[sid]
            if parent < 0 or name_ids[parent] not in ids:
                counts[ids[nid]] += 1
    return counts


def missing_layers(workload: str, metrics: dict[str, float]) -> list[str]:
    """Per-layer metrics mapped to this workload that read zero."""
    return [
        name
        for name, workloads in LAYER_WORKLOADS.items()
        if workload in workloads and not metrics.get(name)
    ]
