"""Executable checks for the structural relationships between the four
matroids a covering induces (transversal plus the three operator matroids),
and for how deletion, reducts and exclusions affect them.

Each check produces ``ClaimRecord`` rows.  A claim whose precondition fails
is reported as inapplicable with the failed precondition, never with a
verdict.  Each claim is decided on the covering's transversal matroid, its
flat lattice L, the operators' classes and the neighbourhood table: no claim
enumerates a second lattice or sweeps all subsets.  The caller enumerates L
once through a ``DeletionReads`` of the matroid and hands in both, with L
None over the lattice guard, which skips exactly the claims that read L.  A
structure within the transversal matroid is checked on L's flats by the
weak-map and quotient criteria.  The deletions, the reduct and the exclusion
are the matroid less some blocks, each named by its block bitmask D.
``DeletionReads`` decides them all while L is enumerated through it, from
the matching that gives each flat's covers, where no single-block deletion
needs a read; its ``walk`` reads a lattice handed in from outside, one
matching per flat.  A pass that has not read L's top flat is refused.  No
family less D is built unless L is not the covering's lattice, where the
deletion's own matroid decides.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
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
from .reduction import reduction_report
from .transversal import TransversalMatroid
from .universe import ElementSet, as_covering, bits_of, is_partition


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    applicable: bool
    precondition: str | None = None
    holds: bool | None = None
    witness: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        """``dataclasses.asdict`` less its deep copy: each field is a str, bool or None."""
        return dict(vars(self))


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


class DeletionReads:
    """An oracle over M = ``whole`` for ``enumerate_lattice`` that folds, as
    each flat F is found, F's rank and closure in M \\ D for the reduct's and
    the exclusion's dropped blocks D from the matching that gives F's
    covers.  ``masks`` holds each block as a bitmask, then those two D;
    ``walk`` reads them all.  A closure that is neither F nor a cover of F
    is kept until L is known.

    The enumeration needs no read of a single block b.  Proof: in covers
    mode every element outside F is reached, or ``_search`` refuses F, so
    cl_M(F) = F.  The read of b (``ranks_and_closures_without``) is then
    r - 1 and F if the search misses b, and otherwise r and F plus the
    elements under b's child of t and under no other child.  Those are
    none or one of F's covers less F.  So the rank exceeds no height and the closure is F or a
    cover of F: ``fold`` records neither (deleting one block is an
    elementary quotient; Oxley, Matroid Theory, ch. 7).
    """

    def __init__(self, whole: TransversalMatroid):
        self.whole, self.universe, family = whole, whole.universe, whole.family
        self.reductions = reduction_report(family)
        dropped = astuple(self.reductions)
        masks = [1 << i for i in range(family.m)] + [sum(1 << i for i in d) for d in dropped]
        self.masks, self.foreign, self.kept = masks, [False] * len(masks), [[] for _ in masks]
        self.read_top = False

    def closure(self, x: ElementSet) -> ElementSet:
        return self.whole.closure(x)

    def covers_of(self, flat: ElementSet) -> tuple[int, list[int]]:
        singles = self.whole.family.m
        rank, covers, reads = self.whole._search(flat, self.masks[singles:], True)
        self.fold(flat.mask, rank, reads, covers, singles)
        return rank, covers

    def walk(self, lattice: FlatLattice) -> "DeletionReads":
        """Read a lattice handed in from outside through the same fold: one
        matching per flat, in L's order, which ends at the top."""
        search, masks, index = self.whole._search, self.masks, lattice._index
        for flat, height in zip(lattice.flats, lattice.heights):
            self.fold(flat.mask, height, search(flat, masks, False)[2], index)
        return self

    def fold(self, flat: int, rank: int, reads, known, first: int = 0) -> None:
        """Note each D that raises F's ``rank``; keep each other closure that
        is neither F nor in ``known`` (F's covers, or L).  ``reads`` are of
        the masks from position ``first`` on."""
        if flat == self.universe.full_mask:
            self.read_top = True
        for k, (r, closed) in enumerate(reads, first):
            if r > rank:
                self.foreign[k] = True
            elif closed != flat and closed not in known:
                self.kept[k].append((flat, closed))

    def outcomes(self, lattice: FlatLattice) -> dict:
        """Each D -> (r_{M \\ D}(F) exceeds the height of some flat F read,
        the first kept closure not in L, in L's order, or None).  Refused
        unless the top flat E, which both orders read last, has been read."""
        if not self.read_top:
            raise InternalConsistencyError(
                "deletion reads have not read the top flat: enumerate L through them or walk it"
            )
        index, unclosed = lattice._index, []
        for kept in self.kept:
            first = min(((index[f], c) for f, c in kept if c not in index), default=None)
            unclosed.append(first and ElementSet(self.universe, first[1]))
        return dict(zip(self.masks, zip(self.foreign, unclosed)))


def _record_without(report, reads: DeletionReads, lattice: FlatLattice | None, deletions) -> None:
    """Record the claim pair of each (claims, D, note) in ``deletions`` for
    M \\ D, the matroid of the family of M = ``reads.whole`` less the blocks
    in the bitmask D, from the outcomes of ``reads``.  Without L, skip them.
    M \\ D is a weak-map image of M, so the rank exceeds no height if L is
    M's lattice; if it does, that pair is recorded on a fresh matroid of the
    family less D, the only one built.
    """
    gate = _lattice_gate(lattice)
    if gate is not None:
        for claims, _, _ in deletions:
            report.skipped(gate, *claims)
        return
    outcomes = reads.outcomes(lattice)
    for claims, deleted, note in deletions:
        over, closed = outcomes[deleted]
        if over:
            smaller = TransversalMatroid(reads.whole.family.without(deleted))
            _record_on_flats(report, claims, smaller, lattice, note)
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
    reads: DeletionReads, lattice: FlatLattice | None
) -> RelationReport:
    """Deleting any block shrinks the independence family and the flat set:
    one claim pair per block, suffixed [name], read from ``reads``."""
    report = RelationReport()
    family = reads.whole.family
    claims = ("deletion-shrinks-independents", "deletion-shrinks-flats")
    if report.skipped("family has fewer than two blocks" if family.m < 2 else None, *claims):
        return report
    tagged = dict(zip(("reducible", "immured"), astuple(reads.reductions)))
    deletions = []
    for i, name in enumerate(family.names):
        tags = [tag for tag, found in tagged.items() if i in found]
        note = f"block {name} is {' and '.join(tags)}" if tags else None
        named = tuple(f"{claim}[{name}]" for claim in claims)
        deletions.append((named, 1 << i, note))
    _record_without(report, reads, lattice, deletions)
    return report


def check_reduct_exclusion_containments(
    reads: DeletionReads, lattice: FlatLattice | None
) -> RelationReport:
    """Reducts and exclusions only shrink the structures of the original.
    Each is decided as the matroid less the blocks that ``reduct`` or
    ``exclusion`` would drop, the last two masks of ``reads``, without
    building either."""
    report = RelationReport()
    deletions = []
    for mode, dropped in zip(("reduct", "exclusion"), reads.masks[-2:]):
        claims = (f"{mode}-independents-within-original", f"{mode}-flats-within-original")
        deletions.append((claims, dropped, None))
    _record_without(report, reads, lattice, deletions)
    return report


def check_reduction_preservation(
    table: NeighborhoodTable, verdicts: Verdicts, reductions=None
) -> RelationReport:
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
    reducible, immured = astuple(reductions or reduction_report(covering))

    @cache
    def shrunk_table(i: int) -> NeighborhoodTable:
        return NeighborhoodTable.build(as_covering(covering.without(1 << i)))

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
            name = covering.names[i]
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
            name = covering.names[i]
            still = verdict_without(i, kind).is_closure
            report.note_only(
                claim,
                f"removing {name} {'keeps' if still else 'breaks'} the closure property",
            )
    return report


def full_relation_report(
    table: NeighborhoodTable,
    verdicts: Verdicts,
    reads: DeletionReads,
    lattice: FlatLattice | None,
) -> RelationReport:
    """Everything: containments, per-block deletion, reducts, preservation,
    from one ``reduction_report``.  Every deletion is read from ``reads``, the
    ``DeletionReads`` of the transversal matroid that L was enumerated
    through (or that walked L)."""
    report = check_containments(table, verdicts, reads.whole, lattice)
    if table.covering.m > 1:
        report.extend(check_deletion_monotonicity(reads, lattice))
    report.extend(check_reduct_exclusion_containments(reads, lattice))
    report.extend(check_reduction_preservation(table, verdicts, reads.reductions))
    return report
