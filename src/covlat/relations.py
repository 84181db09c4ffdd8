"""Executable checks for the structural relationships between the four
matroids a covering induces (transversal plus the three operator matroids),
and for how deletion, reducts and exclusions affect them.

Each check produces ``ClaimRecord`` rows.  A claim whose precondition fails
is reported as inapplicable with the failed precondition, never with a
verdict.  Containments of independence families are checked predicate
against predicate over all subsets within an enumeration guard; containments
of flat lattices are checked flat by flat against the closure operator of
the larger structure, so the larger lattice is never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .approximation import (
    PartitionMatroid,
    UpperOperator,
    closure_operator_verdict,
    induced_partition_matroid,
    neighborhood_table,
)
from .lattice import enumerate_lattice
from .reduction import exclusion, immured_block_indices, reducible_block_indices, reduct
from .transversal import TransversalMatroid
from .universe import Covering, SetFamily, Universe, as_covering, is_partition

ENUM_GUARD_N = 14


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    applicable: bool
    precondition: str | None = None
    holds: bool | None = None
    witness: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "applicable": self.applicable,
            "precondition": self.precondition,
            "holds": self.holds,
            "witness": self.witness,
            "note": self.note,
        }


@dataclass
class RelationReport:
    records: list[ClaimRecord] = field(default_factory=list)

    def add(self, record: ClaimRecord) -> None:
        self.records.append(record)

    def skipped(self, claim: str, precondition: str) -> None:
        self.add(ClaimRecord(claim, applicable=False, precondition=precondition))

    def verdict(self, claim: str, holds: bool, witness: str | None = None, note: str | None = None) -> None:
        self.add(ClaimRecord(claim, applicable=True, holds=holds, witness=witness, note=note))

    def note_only(self, claim: str, note: str) -> None:
        self.add(ClaimRecord(claim, applicable=True, holds=None, note=note))

    def failures(self) -> list[ClaimRecord]:
        return [r for r in self.records if r.applicable and r.holds is False]

    def extend(self, other: "RelationReport") -> None:
        self.records.extend(other.records)

    def to_dict(self) -> dict:
        return {"claims": [r.to_dict() for r in self.records]}


def _subset_containment(universe: Universe, smaller, larger) -> tuple[bool, str | None]:
    for x in universe.subsets():
        if smaller(x) and not larger(x):
            return False, f"{x!r} separates the families"
    return True, None


def _flats_closed_in(flats, closure) -> tuple[bool, str | None]:
    for flat in flats:
        if closure(flat) != flat:
            return False, f"{flat!r} is not closed in the larger structure"
    return True, None


def check_containments(covering: Covering, guard_n: int = ENUM_GUARD_N) -> RelationReport:
    """Containments and equalities between the four induced structures."""
    report = RelationReport()
    universe = covering.universe
    n = universe.n
    transversal = TransversalMatroid(covering)
    sh_verdict = closure_operator_verdict(covering, UpperOperator.SH)
    xh_verdict = closure_operator_verdict(covering, UpperOperator.XH)
    table = neighborhood_table(covering)
    guard_note = f"universe size {n} exceeds enumeration guard {guard_n}"
    sh_gate = "block-union operator is a closure operator"
    xh_gate = "neighborhood-hit operator is a closure operator"

    if not sh_verdict.is_closure:
        report.skipped("sh-independents-within-transversal", sh_gate)
        report.skipped("sh-flats-within-transversal-flats", sh_gate)
        report.skipped("indiscernible-neighborhoods-are-transversal-flats", sh_gate)
    elif n > guard_n:
        report.skipped("sh-independents-within-transversal", guard_note)
        report.skipped("sh-flats-within-transversal-flats", guard_note)
        report.skipped("indiscernible-neighborhoods-are-transversal-flats", guard_note)
    else:
        sh_matroid = induced_partition_matroid(covering, UpperOperator.SH)
        holds, witness = _subset_containment(
            universe, sh_matroid.is_independent, transversal.is_independent
        )
        report.verdict("sh-independents-within-transversal", holds, witness)
        sh_lattice = enumerate_lattice(sh_matroid)
        holds, witness = _flats_closed_in(sh_lattice.flats, transversal.closure)
        report.verdict("sh-flats-within-transversal-flats", holds, witness)
        bad = [
            i
            for i in range(n)
            if transversal.closure(table.indiscernible[i]) != table.indiscernible[i]
        ]
        report.verdict(
            "indiscernible-neighborhoods-are-transversal-flats",
            not bad,
            None if not bad else f"I({universe.labels[bad[0]]}) is not a flat",
        )

    if not xh_verdict.is_closure:
        report.skipped("xh-vh-operators-coincide", xh_gate)
    elif n > guard_n:
        report.skipped("xh-vh-operators-coincide", guard_note)
    else:
        witness = None
        for x in universe.subsets():
            if table.xh(x) != table.vh(x):
                witness = f"operators differ on {x!r}"
                break
        report.verdict("xh-vh-operators-coincide", witness is None, witness)

    if not (sh_verdict.is_closure and xh_verdict.is_closure):
        gate = "both block-union and neighborhood-hit operators are closure operators"
        report.skipped("sh-independents-within-xh", gate)
        report.skipped("sh-flats-within-xh-flats", gate)
    elif n > guard_n:
        report.skipped("sh-independents-within-xh", guard_note)
        report.skipped("sh-flats-within-xh-flats", guard_note)
    else:
        sh_matroid = induced_partition_matroid(covering, UpperOperator.SH)
        xh_matroid = induced_partition_matroid(covering, UpperOperator.XH)
        holds, witness = _subset_containment(
            universe, sh_matroid.is_independent, xh_matroid.is_independent
        )
        report.verdict("sh-independents-within-xh", holds, witness)
        sh_lattice = enumerate_lattice(sh_matroid)
        holds, witness = _flats_closed_in(sh_lattice.flats, xh_matroid.closure)
        report.verdict("sh-flats-within-xh-flats", holds, witness)

    if not is_partition(covering):
        report.skipped("partition-structures-coincide", "covering is not a partition")
    elif n > guard_n:
        report.skipped("partition-structures-coincide", guard_note)
    else:
        matroids: list = [transversal]
        matroids += [
            induced_partition_matroid(covering, kind)
            for kind in (UpperOperator.SH, UpperOperator.XH, UpperOperator.VH)
        ]
        witness = None
        for x in universe.subsets():
            verdicts = {m.is_independent(x) for m in matroids}
            if len(verdicts) > 1:
                witness = f"families disagree on {x!r}"
                break
        if witness is None:
            flat_sets = {
                tuple(f.mask for f in enumerate_lattice(m).flats) for m in matroids
            }
            if len(flat_sets) > 1:
                witness = "flat lattices differ"
        report.verdict("partition-structures-coincide", witness is None, witness)

    return report


def check_deletion_monotonicity(
    family: SetFamily, block_index: int, guard_n: int = ENUM_GUARD_N
) -> RelationReport:
    """Deleting any block shrinks the independence family and the flat set."""
    report = RelationReport()
    if family.m < 2:
        report.skipped("deletion-shrinks-independents", "family has fewer than two blocks")
        report.skipped("deletion-shrinks-flats", "family has fewer than two blocks")
        return report
    universe = family.universe
    n = universe.n
    note = None
    if isinstance(family, Covering):
        tags = []
        if block_index in reducible_block_indices(family):
            tags.append("reducible")
        if block_index in immured_block_indices(family):
            tags.append("immured")
        if tags:
            note = f"block {family.block_name(block_index)} is {' and '.join(tags)}"
    whole = TransversalMatroid(family)
    smaller = TransversalMatroid(family.without_block(block_index))
    if n > guard_n:
        guard_note = f"universe size {n} exceeds enumeration guard {guard_n}"
        report.skipped("deletion-shrinks-independents", guard_note)
        report.skipped("deletion-shrinks-flats", guard_note)
        return report
    holds, witness = _subset_containment(universe, smaller.is_independent, whole.is_independent)
    report.verdict("deletion-shrinks-independents", holds, witness, note)
    holds, witness = _flats_closed_in(enumerate_lattice(smaller).flats, whole.closure)
    report.verdict("deletion-shrinks-flats", holds, witness, note)
    return report


def check_reduct_exclusion_containments(
    covering: Covering, guard_n: int = ENUM_GUARD_N
) -> RelationReport:
    """Reducts and exclusions only shrink the structures of the original."""
    report = RelationReport()
    universe = covering.universe
    n = universe.n
    if n > guard_n:
        guard_note = f"universe size {n} exceeds enumeration guard {guard_n}"
        for mode in ("reduct", "exclusion"):
            report.skipped(f"{mode}-independents-within-original", guard_note)
            report.skipped(f"{mode}-flats-within-original", guard_note)
        return report
    whole = TransversalMatroid(covering)
    for mode, reduced in (("reduct", reduct(covering)), ("exclusion", exclusion(covering))):
        smaller = TransversalMatroid(reduced)
        holds, witness = _subset_containment(
            universe, smaller.is_independent, whole.is_independent
        )
        report.verdict(f"{mode}-independents-within-original", holds, witness)
        holds, witness = _flats_closed_in(enumerate_lattice(smaller).flats, whole.closure)
        report.verdict(f"{mode}-flats-within-original", holds, witness)
    return report


def _classes_equal(a: PartitionMatroid, b: PartitionMatroid) -> bool:
    return {c.mask for c in a.classes} == {c.mask for c in b.classes}


def check_reduction_preservation(covering: Covering) -> RelationReport:
    """Closure operators survive the removals that leave them untouched.

    Removing an immured block preserves the block-union operator together
    with its matroid and lattice; removing a reducible block does the same
    for the neighborhood operators.  The converse removals are only observed:
    a breakage is recorded as a note, not asserted, because it need not
    happen.
    """
    report = RelationReport()
    reducible = reducible_block_indices(covering)
    immured = immured_block_indices(covering)
    verdicts = {
        kind: closure_operator_verdict(covering, kind)
        for kind in (UpperOperator.SH, UpperOperator.XH, UpperOperator.VH)
    }

    preserved = {
        UpperOperator.SH: ("immured", immured),
        UpperOperator.XH: ("reducible", reducible),
        UpperOperator.VH: ("reducible", reducible),
    }
    for kind, (tag, indices) in preserved.items():
        claim = f"{kind.value}-closure-survives-{tag}-removal"
        if not verdicts[kind].is_closure:
            report.skipped(claim, f"{kind.value} is not a closure operator on the covering")
            continue
        if not indices:
            report.skipped(claim, f"covering has no {tag} block")
            continue
        original = induced_partition_matroid(covering, kind)
        for i in indices:
            shrunk = as_covering(covering.without_block(i))
            name = covering.block_name(i)
            after = closure_operator_verdict(shrunk, kind)
            if not after.is_closure:
                report.verdict(
                    claim, False, f"{kind.value} stops being a closure operator without {name}"
                )
                continue
            unchanged = _classes_equal(original, induced_partition_matroid(shrunk, kind))
            report.verdict(
                claim,
                unchanged,
                None if unchanged else f"induced matroid changes without {name}",
                note=f"checked block {name}",
            )

    observed = {
        UpperOperator.SH: ("reducible", reducible),
        UpperOperator.XH: ("immured", immured),
        UpperOperator.VH: ("immured", immured),
    }
    for kind, (tag, indices) in observed.items():
        claim = f"{kind.value}-after-{tag}-removal"
        if not verdicts[kind].is_closure or not indices:
            continue
        for i in indices:
            shrunk = as_covering(covering.without_block(i))
            name = covering.block_name(i)
            still = closure_operator_verdict(shrunk, kind).is_closure
            report.note_only(
                claim,
                f"removing {name} {'keeps' if still else 'breaks'} the closure property",
            )
    return report


def full_relation_report(covering: Covering, guard_n: int = ENUM_GUARD_N) -> RelationReport:
    """Everything: containments, per-block deletion, reducts, preservation."""
    report = check_containments(covering, guard_n)
    for i in range(covering.m):
        if covering.m < 2:
            break
        block_report = check_deletion_monotonicity(covering, i, guard_n)
        for record in block_report.records:
            tagged = ClaimRecord(
                f"{record.claim}[{covering.block_name(i)}]",
                record.applicable,
                record.precondition,
                record.holds,
                record.witness,
                record.note,
            )
            report.add(tagged)
    report.extend(check_reduct_exclusion_containments(covering, guard_n))
    report.extend(check_reduction_preservation(covering))
    return report
