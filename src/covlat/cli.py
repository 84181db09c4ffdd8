"""Command-line surface: check, matroid, lattice, closure, compare, reduce,
verify.

Exit codes are a stable contract: 0 on success, 1 when a claim, criterion or
guard fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .approximation import (
    NeighborhoodTable,
    UpperOperator,
    closure_operator_verdict,
    equ_condition,
    induced_partition_matroid,
    tra_condition,
)
from .errors import CovlatError, CriterionNotSatisfied, GuardExceeded, ParseError, ValidationError
from .lattice import _positive_guard, enumerate_lattice
from .reduction import exclusion, reduct, reduction_report
from .relations import full_relation_report
from .transversal import TransversalMatroid, ab_decomposition
from .universe import Covering, SetFamily, as_covering, is_partition, parse_family
from .verify import verify_covering, verify_family, verify_family_round_trip, verify_random

INPUT_ERROR = 2
CHECK_FAILED = 1


def _read_family(path: str) -> SetFamily:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_family(text)


def _read_covering(path: str) -> Covering:
    return as_covering(_read_family(path))


def _emit(data: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        for line in text_renderer(data):
            print(line)


def _set_list(sets) -> list[list[str]]:
    return [list(s.labels()) for s in sets]


def _fmt_sets(sets) -> str:
    return " ".join("{" + " ".join(s) + "}" for s in sets) if sets else "(none)"


def cmd_check(args: argparse.Namespace) -> int:
    covering = _read_covering(args.file)
    table = NeighborhoodTable.build(covering)
    universe = covering.universe
    verdicts = {kind: closure_operator_verdict(table, kind) for kind in UpperOperator}
    reductions = reduction_report(covering)
    report: dict = {
        "universe": list(universe.labels),
        "n": universe.n,
        "m": covering.m,
        "blocks": {covering.block_name(i): list(b.labels()) for i, b in enumerate(covering.blocks)},
        "dropped_duplicate_blocks": list(covering.dropped_duplicates),
        "is_partition": is_partition(covering),
        "neighborhoods": {
            label: {
                "indiscernible": list(table.indiscernible[i].labels()),
                "neighborhood": list(table.neighborhood[i].labels()),
                "minimal_description": [
                    covering.block_name(j) for j in table.minimal_description[i]
                ],
            }
            for i, label in enumerate(universe.labels)
        },
        "tra_condition": tra_condition(table),
        "equ_condition": equ_condition(covering),
        "singleton_images_partition": {
            kind.value: verdict.is_closure for kind, verdict in verdicts.items()
        },
        "closure_operator": {
            kind.value: {
                "is_closure": verdict.is_closure,
                "classes": _set_list(verdict.classes) if verdict.classes else None,
                "witness": str(verdict.witness) if verdict.witness else None,
            }
            for kind, verdict in verdicts.items()
        },
        "reducible_blocks": [covering.block_name(i) for i in reductions.reducible_blocks],
        "immured_blocks": [covering.block_name(i) for i in reductions.immured_blocks],
    }
    matroid = TransversalMatroid(covering)
    loops, classes = matroid.parallel_classes()
    decomposition = ab_decomposition(covering)
    report["matroid"] = {
        "rank": matroid.rank(universe.full()),
        "loops": list(loops.labels()),
        "parallel_classes": _set_list(classes),
        "simple": matroid.is_simple(),
        "a_parts": _set_list(decomposition.a_parts),
        "b_part": list(decomposition.b_part.labels()),
    }
    if args.skip_lattice:
        report["lattice"] = None
    else:
        try:
            lattice = enumerate_lattice(matroid, args.max_lattice_size)
            report["lattice"] = {
                "flat_count": len(lattice),
                "rank": max(lattice.heights),
                "atom_count": len(lattice.atoms()),
            }
        except GuardExceeded as exc:
            report["lattice"] = {"skipped": str(exc)}

    def render(data: dict):
        yield f"universe ({data['n']}): " + " ".join(data["universe"])
        yield f"blocks ({data['m']}): " + " ".join(
            f"{name}={{{' '.join(members)}}}" for name, members in data["blocks"].items()
        )
        yield f"is_partition: {data['is_partition']}"
        yield "neighborhoods:"
        for label, row in data["neighborhoods"].items():
            yield (
                f"  {label}: I={{{' '.join(row['indiscernible'])}}}"
                f" N={{{' '.join(row['neighborhood'])}}}"
                f" Md={' '.join(row['minimal_description'])}"
            )
        yield f"tra_condition: {data['tra_condition']}"
        yield f"equ_condition: {data['equ_condition']}"
        for key in ("sh", "xh", "vh"):
            images = data["singleton_images_partition"][key]
            verdict = data["closure_operator"][key]
            line = f"{key}: singleton images partition: {images}; closure operator: {verdict['is_closure']}"
            if verdict["classes"] is not None:
                line += "; classes: " + _fmt_sets(verdict["classes"])
            if verdict["witness"]:
                line += f"; witness: {verdict['witness']}"
            yield line
        yield "reducible blocks: " + (", ".join(data["reducible_blocks"]) or "(none)")
        yield "immured blocks: " + (", ".join(data["immured_blocks"]) or "(none)")
        m = data["matroid"]
        yield (
            f"matroid: rank {m['rank']}, loops {{{' '.join(m['loops'])}}}, "
            f"parallel classes {_fmt_sets(m['parallel_classes'])}, simple {m['simple']}"
        )
        yield f"a-parts: {_fmt_sets(m['a_parts'])}; b-part: {{{' '.join(m['b_part'])}}}"
        if data["lattice"] is None:
            yield "lattice: skipped"
        elif "skipped" in data["lattice"]:
            yield f"lattice: {data['lattice']['skipped']}"
        else:
            lat = data["lattice"]
            yield (
                f"lattice: {lat['flat_count']} flats, rank {lat['rank']}, "
                f"{lat['atom_count']} atoms"
            )

    _emit(report, args.format, render)
    return 0


def cmd_matroid(args: argparse.Namespace) -> int:
    _positive_guard("guard", args.guard)
    family = _read_family(args.file)
    universe = family.universe
    if args.kind == "transversal":
        matroid = TransversalMatroid(family)
        loops, classes = matroid.parallel_classes()
        report: dict = {
            "kind": "transversal",
            "rank": matroid.rank(universe.full()),
            "loops": list(loops.labels()),
            "parallel_classes": _set_list(classes),
            "simple": matroid.is_simple(),
        }
        try:
            report["base_count"] = len(matroid.bases(args.guard))
            report["circuits"] = _set_list(matroid.circuits(args.guard))
        except GuardExceeded as exc:
            report["base_count"] = None
            report["circuits"] = None
            report["enumeration_skipped"] = str(exc)
        if family.covers_universe():
            decomposition = ab_decomposition(as_covering(family))
            report["a_parts"] = _set_list(decomposition.a_parts)
            report["b_part"] = list(decomposition.b_part.labels())
    else:
        covering = as_covering(family)
        matroid = induced_partition_matroid(covering, UpperOperator(args.kind))
        stats = matroid.stats()
        report = {
            "kind": args.kind,
            "classes": _set_list(matroid.classes),
            "rank": stats.rank,
            "base_count": stats.base_count,
            "circuits": _set_list(stats.circuits),
            "loops": [],
            "simple": all(len(c) == 1 for c in matroid.classes),
        }

    def render(data: dict):
        yield f"kind: {data['kind']}"
        yield f"rank: {data['rank']}"
        if "classes" in data:
            yield "classes: " + _fmt_sets(data["classes"])
        yield "loops: {" + " ".join(data["loops"]) + "}"
        if data.get("parallel_classes") is not None:
            yield "parallel classes: " + _fmt_sets(data.get("parallel_classes", []))
        if data.get("simple") is not None:
            yield f"simple: {data['simple']}"
        if data.get("base_count") is not None:
            yield f"bases: {data['base_count']}"
        if data.get("circuits") is not None:
            yield "circuits: " + _fmt_sets(data["circuits"])
        if data.get("enumeration_skipped"):
            yield f"enumeration skipped: {data['enumeration_skipped']}"
        if "a_parts" in data:
            yield f"a-parts: {_fmt_sets(data['a_parts'])}; b-part: {{{' '.join(data['b_part'])}}}"

    _emit(report, args.format, render)
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    family = _read_family(args.file)
    if args.kind == "transversal":
        matroid = TransversalMatroid(family)
    else:
        matroid = induced_partition_matroid(as_covering(family), UpperOperator(args.kind))
    lattice = enumerate_lattice(matroid, args.max_lattice_size)
    if args.format == "dot":
        print(lattice.to_dot(), end="")
        return 0

    def render(data: dict):
        yield f"flats: {len(data['flats'])}"
        by_height: dict[int, list[str]] = {}
        for members, h in zip(data["flats"], data["heights"]):
            by_height.setdefault(h, []).append("{" + " ".join(members) + "}")
        for h in sorted(by_height):
            yield f"height {h}: " + " ".join(by_height[h])
        yield "covers:"
        for lower, upper in data["edges"]:
            yield (
                "  {" + " ".join(data["flats"][lower]) + "} -> {"
                + " ".join(data["flats"][upper]) + "}"
            )

    _emit(lattice.to_json_dict(), args.format, render)
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    covering = _read_covering(args.file)
    table = NeighborhoodTable.build(covering)
    subset = covering.universe.subset(args.set.split())
    image = table.apply(UpperOperator(args.operator), subset)
    print("{" + " ".join(image.labels()) + "}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    covering = _read_covering(args.file)
    table = NeighborhoodTable.build(covering)
    verdicts = {kind: closure_operator_verdict(table, kind) for kind in UpperOperator}
    matroid = TransversalMatroid(covering)
    try:
        lattice = enumerate_lattice(matroid)
    except GuardExceeded:
        lattice = None  # the claims that read it are skipped with the guard's text
    report = full_relation_report(table, verdicts, matroid, lattice)

    def render(data: dict):
        for record in data["claims"]:
            if not record["applicable"]:
                yield f"SKIP {record['claim']}: {record['precondition']}"
            elif record["holds"] is None:
                yield f"NOTE {record['claim']}: {record['note']}"
            else:
                status = "PASS" if record["holds"] else "FAIL"
                suffix = f": {record['witness']}" if record["witness"] else ""
                yield f"{status} {record['claim']}{suffix}"

    _emit(report.to_dict(), args.format, render)
    return CHECK_FAILED if report.failures() else 0


def cmd_reduce(args: argparse.Namespace) -> int:
    covering = _read_covering(args.file)
    reduced = reduct(covering) if args.mode == "reduct" else exclusion(covering)
    text = reduced.serialize()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random is not None:
        if args.file is not None or args.round_trip:
            raise ValidationError("verify --random takes neither a covering file nor --round-trip")
        seed = 0 if args.seed is None else args.seed
        max_n = 6 if args.max_n is None else args.max_n
        max_m = 6 if args.max_m is None else args.max_m
        campaign = verify_random(args.random, seed, max_n, max_m)
        for failure in campaign.failures:
            print(failure.line())
        print(
            f"{'PASS' if campaign.passed else 'FAIL'} random campaign: "
            f"{campaign.checks_run} checks, {len(campaign.failures)} failures, "
            f"{campaign.skipped} instances skipped by a guard"
        )
        return 0 if campaign.passed else CHECK_FAILED
    if (args.seed, args.max_n, args.max_m) != (None, None, None):
        raise ValidationError("verify --seed, --max-n and --max-m need --random")
    if args.file is None:
        raise ValidationError("verify needs a covering file or --random")
    family = _read_family(args.file)
    if args.round_trip:
        results = verify_family_round_trip(family)
    elif isinstance(family, Covering) or family.covers_universe():
        results = verify_covering(as_covering(family))
    else:
        results = verify_family(family)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlat",
        description="Matroids and geometric lattices from finite coverings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("check", help="full property report for a covering")
    p.add_argument("file")
    add_format(p)
    p.add_argument("--skip-lattice", action="store_true")
    p.add_argument("--max-lattice-size", type=int, default=None)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("matroid", help="matroid statistics")
    p.add_argument("file")
    p.add_argument("--kind", choices=("transversal", "sh", "xh", "vh"), default="transversal")
    p.add_argument("--guard", type=int, default=20, help="enumeration guard on |E|")
    add_format(p)
    p.set_defaults(handler=cmd_matroid)

    p = sub.add_parser("lattice", help="flat lattice as text, JSON or DOT")
    p.add_argument("file")
    p.add_argument("--kind", choices=("transversal", "sh", "xh", "vh"), default="transversal")
    p.add_argument("--max-lattice-size", type=int, default=None)
    add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(handler=cmd_lattice)

    p = sub.add_parser("closure", help="apply an upper approximation operator")
    p.add_argument("file")
    p.add_argument("--operator", choices=("sh", "xh", "vh"), required=True)
    p.add_argument("--set", required=True, help="whitespace-separated element labels")
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("compare", help="structure relationship report")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("reduce", help="write the reduct or exclusion of a covering")
    p.add_argument("file")
    p.add_argument("--mode", choices=("reduct", "exclusion"), required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--round-trip", action="store_true")
    p.add_argument("--random", type=int, default=None, metavar="COUNT")
    p.add_argument("--seed", type=int, help="with --random (default 0)")
    p.add_argument("--max-n", type=int, help="with --random (default 6)")
    p.add_argument("--max-m", type=int, help="with --random (default 6)")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (CriterionNotSatisfied, GuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except CovlatError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
