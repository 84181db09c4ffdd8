"""Executable checks for the structural relationships between the four
matroids a covering induces (transversal plus the three operator matroids),
and for how deletion, reducts and exclusions affect them.

Each check produces ``ClaimRecord`` rows.  A claim whose precondition fails
is reported as inapplicable with the failed precondition, never with a
verdict.  Each claim is decided on the covering's transversal matroid, its
flat lattice L, the operators' classes and the neighbourhood table: no claim
enumerates a second lattice or sweeps all subsets.  The caller enumerates L
once and passes it as ``lattice`` with the matroid, or None over the lattice
guard, which skips exactly the claims that read L.  A structure within the
transversal matroid is checked on L's flats by the weak-map and quotient
criteria.  The deletions, the reduct and the exclusion are the matroid less
some blocks: each pass over L finds one matching of each flat, from which
every deletion it checks derives its rank and closure there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache

from .approximation import (
    ClosureVerdict,
    NeighborhoodTable,
    UpperOperator,
    Verdicts,
    closure_operator_verdict,
)
from .errors import InternalConsistencyError
from .lattice import FlatLattice, default_max_flats, lattice_guard_exceeded
from .reduction import exclusion, immured_block_indices, reducible_block_indices, reduct
from .transversal import TransversalMatroid
from .universe import Covering, ElementSet, as_covering, bits_of, is_partition


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    applicable: bool
    precondition: str | None = None
    holds: bool | None = None
    witness: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RelationReport:
    records: list[ClaimRecord] = field(default_factory=list)

    def add(self, record: ClaimRecord) -> None:
        self.records.append(record)

    def skipped(self, precondition: str | None, *claims: str) -> bool:
        """Record every claim as inapplicable if a precondition failed, and
        say whether one did."""
        if precondition is None:
            return False
        for claim in claims:
            self.add(ClaimRecord(claim, applicable=False, precondition=precondition))
        return True

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


def _lattice_gate(lattice: FlatLattice | None) -> str | None:
    """Why the claims that read L are skipped: L is None only over the guard."""
    return None if lattice is not None else str(lattice_guard_exceeded(default_max_flats()))


def _separating_on_flats(smaller, lattice: FlatLattice) -> ElementSet | None:
    """A set independent in the smaller structure S and dependent in the
    matroid L whose flat lattice is given; None if there is none.

    Weak-map criterion: indep(S) is within indep(L) iff r_S(F) <= r_L(F) for
    every flat F of L, and r_L(F) is the height of F (``enumerate_lattice``
    asserts it).  (=>) A maximum S-independent subset of F is L-independent.
    (<=) For X independent in S, |X| <= r_S(cl_L X) <= r_L(cl_L X) = r_L(X),
    so X is L-independent.
    The witness is the greedy S-basis of the first failing flat: its
    r_S(F) > r_L(F) members lie in F, so it is L-dependent.
    """
    for flat, height in zip(lattice.flats, lattice.heights):
        if smaller.rank(flat) > height:
            basis = lattice.universe.empty()
            for e in bits_of(flat.mask):
                if smaller.is_independent(basis.with_index(e)):
                    basis = basis.with_index(e)
            return basis
    return None


def _unclosed_on_flats(
    smaller, lattice: FlatLattice, separating: ElementSet | None
) -> ElementSet | None:
    """A flat of the smaller structure S that is not a flat of the matroid L
    whose flat lattice is given, or None; ``separating`` is the answer of
    ``_separating_on_flats``.

    Quotient criterion.  If the weak map holds, every S-flat is an L-flat
    iff cl_S(F) is in L for every flat F of L.  (=>) cl_S(F) is an S-flat.
    (<=) Let G be an S-flat with S-basis B.  B is L-independent, so
    F = cl_L(B) has r_L(F) = |B| = r_S(G).  Then cl_S(F) contains G and
    r_S(F) <= r_L(F) = r_S(G), so cl_S(F) = G, and G is in L.
    If the weak map fails, some prefix b1..bj (j < k, the empty one
    included) of the separating S-independent set b1 < ... < bk has an
    S-closure that is not L-closed: otherwise each b(j+1), outside the
    L-flat cl_S(b1..bj), hence outside cl_L(b1..bj), raises the L-rank, and
    b1..bk is L-independent.  The witness is the first such closure.
    """
    if separating is None:
        sets = lattice.flats
    else:
        mask = separating.mask
        sets = [ElementSet(lattice.universe, mask & (1 << e) - 1) for e in bits_of(mask)]
    unclosed = next((g for g in map(smaller.closure, sets) if g.mask not in lattice._index), None)
    if unclosed is None and separating is not None:
        raise InternalConsistencyError(f"every prefix closure of {separating!r} is a flat")
    return unclosed


def _record_within(report, claims, separating, unclosed, note=None) -> None:
    """Record the claim pair: the smaller structure's independent sets lie
    within the larger's (``separating`` is a set that shows they do not),
    and its flats are closed in the larger (``unclosed`` is one that is not)."""
    independents_claim, flats_claim = claims
    witness = None if separating is None else f"{separating!r} separates the families"
    report.verdict(independents_claim, witness is None, witness, note)
    witness = None if unclosed is None else f"{unclosed!r} is not closed in the larger structure"
    report.verdict(flats_claim, witness is None, witness, note)


def _record_on_flats(report, claims, smaller, lattice: FlatLattice, note=None) -> None:
    """Record the claim pair for a structure within the matroid of the lattice."""
    separating = _separating_on_flats(smaller, lattice)
    unclosed = _unclosed_on_flats(smaller, lattice, separating)
    _record_within(report, claims, separating, unclosed, note)


def _record_without(report, whole, lattice: FlatLattice | None, deletions) -> None:
    """Record the claim pair of each (claims, D, subfamily, note) in
    ``deletions`` for M \\ D, the matroid of ``subfamily``: the family of
    ``whole`` (M) less the blocks in the bitmask D.  Without L, skip them.

    One pass over the flats F of L finds one matching of each, from which
    both criteria read r_{M \\ D}(F) and cl_{M \\ D}(F) for every D
    (``TransversalMatroid.ranks_and_closures_without``).  M \\ D is a
    weak-map image of M, so the rank exceeds no height if L is M's lattice;
    if it does, that pair is recorded on a fresh matroid of the subfamily.
    """
    gate = _lattice_gate(lattice)
    if gate is not None:
        for claims, _, _, _ in deletions:
            report.skipped(gate, *claims)
        return
    masks = [deleted for _, deleted, _, _ in deletions]
    foreign = [False] * len(masks)
    unclosed: list[ElementSet | None] = [None] * len(masks)
    for flat, height in zip(lattice.flats, lattice.heights):
        for k, (rank, closed) in enumerate(whole.ranks_and_closures_without(flat, masks)):
            if rank > height:
                foreign[k] = True
            elif unclosed[k] is None and closed.mask not in lattice._index:
                unclosed[k] = closed
    for (claims, _, subfamily, note), over, closed in zip(deletions, foreign, unclosed):
        if over:
            _record_on_flats(report, claims, TransversalMatroid(subfamily), lattice, note)
        else:
            _record_within(report, claims, None, closed, note)


def check_containments(
    table: NeighborhoodTable,
    verdicts: Verdicts,
    transversal: TransversalMatroid,
    lattice: FlatLattice | None,
) -> RelationReport:
    """Containments and equalities between the four induced structures."""
    report = RelationReport()
    covering = table.covering
    universe = covering.universe
    sh_verdict = verdicts[UpperOperator.SH]
    xh_verdict = verdicts[UpperOperator.XH]
    lattice_gate = _lattice_gate(lattice)
    sh_gate = None if sh_verdict.is_closure else "block-union operator is a closure operator"
    xh_gate = None if xh_verdict.is_closure else "neighborhood-hit operator is a closure operator"

    claims = ("sh-independents-within-transversal", "sh-flats-within-transversal-flats")
    if not report.skipped(sh_gate or lattice_gate, *claims):
        _record_on_flats(report, claims, sh_verdict.partition_matroid(universe), lattice)
    if not report.skipped(sh_gate, "indiscernible-neighborhoods-are-transversal-flats"):
        bad = next(
            (e for e, hood in enumerate(table.indiscernible) if transversal.closure(hood) != hood),
            None,
        )
        report.verdict(
            "indiscernible-neighborhoods-are-transversal-flats",
            bad is None,
            None if bad is None else f"I({universe.labels[bad]}) is not a flat",
        )

    if not report.skipped(xh_gate, "xh-vh-operators-coincide"):
        # both operators preserve unions and send {} to {}, so the first
        # subset in mask order on which they differ is a singleton
        singletons = map(universe.singleton, range(universe.n))
        differ = next((x for x in singletons if table.xh(x) != table.vh(x)), None)
        witness = None if differ is None else f"operators differ on {differ!r}"
        report.verdict("xh-vh-operators-coincide", witness is None, witness)

    both_gate = "both block-union and neighborhood-hit operators are closure operators"
    claims = ("sh-independents-within-xh", "sh-flats-within-xh-flats")
    if not report.skipped(both_gate if sh_gate or xh_gate else None, *claims):
        # between partition matroids both claims hold iff every xh class lies
        # in one sh class.  Otherwise one meets the sh class of its lowest
        # member a and, at b, another: {a, b} is sh-independent and
        # xh-dependent, and a's sh class is an sh flat whose xh closure has b
        separating = unclosed = None
        for xh_class in xh_verdict.classes:
            low = xh_class.mask & -xh_class.mask
            home = next(c for c in sh_verdict.classes if c.mask & low)
            outside = xh_class.mask & ~home.mask
            if outside:
                separating, unclosed = ElementSet(universe, low | outside & -outside), home
                break
        _record_within(report, claims, separating, unclosed)

    partition_gate = None if is_partition(covering) else "covering is not a partition"
    if not report.skipped(partition_gate or lattice_gate, "partition-structures-coincide"):
        # a matroid is determined by its flats.  The operators' matroids are
        # the partition matroid of the k blocks iff their classes are the
        # blocks; its flats are the 2^k unions of blocks, and they are the
        # transversal matroid's iff L holds 2^k flats, each such a union
        blocks = tuple(sorted(covering.blocks, key=ElementSet.sort_key))
        unions = sum(all(f.mask & b.mask in (0, b.mask) for b in blocks) for f in lattice.flats)
        witness = None
        if any(verdicts[kind].classes != blocks for kind in UpperOperator):
            witness = "operator classes differ from the blocks"
        elif not unions == len(lattice) == 1 << len(blocks):
            witness = "flat lattices differ"
        report.verdict("partition-structures-coincide", witness is None, witness)

    return report


def check_deletion_monotonicity(
    whole: TransversalMatroid, lattice: FlatLattice | None
) -> RelationReport:
    """Deleting any block shrinks the independence family and the flat set:
    one claim pair per block, suffixed [name], all decided in one pass."""
    report = RelationReport()
    family = whole.family
    claims = ("deletion-shrinks-independents", "deletion-shrinks-flats")
    if report.skipped("family has fewer than two blocks" if family.m < 2 else None, *claims):
        return report
    tagged: dict[str, tuple[int, ...]] = {}
    if isinstance(family, Covering):
        tagged["reducible"] = reducible_block_indices(family)
        tagged["immured"] = immured_block_indices(family)
    deletions = []
    for i in range(family.m):
        name = family.block_name(i)
        tags = [tag for tag, indices in tagged.items() if i in indices]
        note = f"block {name} is {' and '.join(tags)}" if tags else None
        named = tuple(f"{claim}[{name}]" for claim in claims)
        deletions.append((named, 1 << i, family.without_block(i), note))
    _record_without(report, whole, lattice, deletions)
    return report


def check_reduct_exclusion_containments(
    whole: TransversalMatroid, lattice: FlatLattice | None
) -> RelationReport:
    """Reducts and exclusions only shrink the structures of the original."""
    report = RelationReport()
    covering = whole.family
    deletions = []
    for mode, reduce in (("reduct", reduct), ("exclusion", exclusion)):
        reduced = reduce(covering)
        # a covering has no duplicate blocks, so masks name the deleted ones
        kept = {block.mask for block in reduced.blocks}
        deleted = sum(1 << j for j, b in enumerate(covering.blocks) if b.mask not in kept)
        claims = (f"{mode}-independents-within-original", f"{mode}-flats-within-original")
        deletions.append((claims, deleted, reduced, None))
    _record_without(report, whole, lattice, deletions)
    return report


def check_reduction_preservation(table: NeighborhoodTable, verdicts: Verdicts) -> RelationReport:
    """Closure operators survive the removals that leave them untouched.

    Removing an immured block preserves the block-union operator together
    with its matroid and lattice; removing a reducible block does the same
    for the neighborhood operators.  The converse removals are only observed:
    a breakage is recorded as a note, not asserted, because it need not
    happen.  A block that is both reducible and immured is met by both
    loops; its shrunk covering's table and verdicts are computed once.
    """
    report = RelationReport()
    covering = table.covering
    reducible = reducible_block_indices(covering)
    immured = immured_block_indices(covering)

    @cache
    def shrunk_table(i: int) -> NeighborhoodTable:
        return NeighborhoodTable.build(as_covering(covering.without_block(i)))

    @cache
    def verdict_without(i: int, kind: UpperOperator) -> ClosureVerdict:
        return closure_operator_verdict(shrunk_table(i), kind)

    preserved = {
        UpperOperator.SH: ("immured", immured),
        UpperOperator.XH: ("reducible", reducible),
        UpperOperator.VH: ("reducible", reducible),
    }
    for kind, (tag, indices) in preserved.items():
        claim = f"{kind.value}-closure-survives-{tag}-removal"
        if not verdicts[kind].is_closure:
            report.skipped(f"{kind.value} is not a closure operator on the covering", claim)
            continue
        if not indices:
            report.skipped(f"covering has no {tag} block", claim)
            continue
        for i in indices:
            name = covering.block_name(i)
            after = verdict_without(i, kind)
            if not after.is_closure:
                report.verdict(
                    claim, False, f"{kind.value} stops being a closure operator without {name}"
                )
                continue
            # the classes determine the partition matroid and its lattice
            unchanged = after.classes == verdicts[kind].classes
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
            name = covering.block_name(i)
            still = verdict_without(i, kind).is_closure
            report.note_only(
                claim,
                f"removing {name} {'keeps' if still else 'breaks'} the closure property",
            )
    return report


def full_relation_report(
    table: NeighborhoodTable,
    verdicts: Verdicts,
    transversal: TransversalMatroid,
    lattice: FlatLattice | None,
) -> RelationReport:
    """Everything: containments, per-block deletion, reducts, preservation."""
    report = check_containments(table, verdicts, transversal, lattice)
    if table.covering.m > 1:
        report.extend(check_deletion_monotonicity(transversal, lattice))
    report.extend(check_reduct_exclusion_containments(transversal, lattice))
    report.extend(check_reduction_preservation(table, verdicts))
    return report
