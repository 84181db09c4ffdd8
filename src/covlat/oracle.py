"""Brute-force ground truth for tests and the verify command.

Everything here is deliberately naive so that a bug in the main
implementation cannot hide: independence is backtracking over injective
block assignments, rank is the definitional maximum over independent
subsets, closure and flats come from full powerset scans, and operator
images are recomputed from raw blocks rather than reusing the library's
neighborhood tables.
"""

from __future__ import annotations

from .approximation import AxiomWitness, UpperOperator
from .errors import GuardExceeded, ValidationError
from .universe import Covering, ElementSet, SetFamily, bits_of

ORACLE_MAX_N = 7


def _check_budget(family: SetFamily) -> None:
    n = family.universe.n
    if n > ORACLE_MAX_N:
        raise GuardExceeded(
            f"universe size {n} exceeds the oracle budget of {ORACLE_MAX_N} elements"
        )


def brute_independent(family: SetFamily, x: ElementSet) -> bool:
    """Search all injective assignments of members of x to containing blocks."""
    _check_budget(family)
    if x.universe != family.universe:
        raise ValidationError("set lives on a different universe")
    members = x.indices()
    options = [
        [j for j, block in enumerate(family.blocks) if block.has_index(e)] for e in members
    ]

    def assign(i: int, used: set[int]) -> bool:
        if i == len(members):
            return True
        for j in options[i]:
            if j not in used:
                used.add(j)
                if assign(i + 1, used):
                    return True
                used.remove(j)
        return False

    return assign(0, set())


class BruteForce:
    """Tabulated oracle: every subset's independence, rank and closure."""

    def __init__(self, family: SetFamily):
        _check_budget(family)
        self.universe = family.universe
        n = self.universe.n
        size = 1 << n
        indep = [False] * size
        for mask in range(size):
            indep[mask] = brute_independent(family, ElementSet(self.universe, mask))
        rank = [0] * size
        for mask in range(1, size):
            if indep[mask]:
                rank[mask] = mask.bit_count()
            else:
                rank[mask] = max(rank[mask & ~(1 << e)] for e in bits_of(mask))
        self._indep = indep
        self._rank = rank

    def independent(self, x: ElementSet) -> bool:
        return self._indep[x.mask]

    def rank(self, x: ElementSet) -> int:
        return self._rank[x.mask]

    def closure(self, x: ElementSet) -> ElementSet:
        r = self._rank[x.mask]
        mask = x.mask
        for e in bits_of(self.universe.full_mask & ~x.mask):
            if self._rank[x.mask | 1 << e] == r:
                mask |= 1 << e
        return ElementSet(self.universe, mask)

    def flats(self) -> tuple[ElementSet, ...]:
        found = [
            ElementSet(self.universe, mask)
            for mask in range(1 << self.universe.n)
            if self.closure(ElementSet(self.universe, mask)).mask == mask
        ]
        return tuple(sorted(found, key=ElementSet.sort_key))


def _operator_table(covering: Covering, kind: UpperOperator) -> list[int]:
    """Operator images for every subset, recomputed from raw blocks."""
    universe = covering.universe
    n = universe.n
    neighborhoods = []
    for e in range(n):
        n_mask = universe.full_mask
        for block in covering.blocks:
            if block.has_index(e):
                n_mask &= block.mask
        neighborhoods.append(n_mask)
    table = [0] * (1 << n)
    for mask in range(1 << n):
        if kind is UpperOperator.SH:
            image = 0
            for block in covering.blocks:
                if block.mask & mask:
                    image |= block.mask
        elif kind is UpperOperator.XH:
            image = 0
            for e in range(n):
                if neighborhoods[e] & mask:
                    image |= 1 << e
        else:
            image = 0
            for e in range(n):
                if neighborhoods[e] & mask:
                    image |= neighborhoods[e]
        table[mask] = image
    return table


def brute_operator_axioms(
    covering: Covering, kind: UpperOperator
) -> tuple[bool, AxiomWitness | None]:
    """Exhaustively test extensivity, monotonicity, idempotence and exchange.

    Monotonicity is f(X - e) ⊆ f(X) for every X and e in X, n·2^n tests,
    for X ascending and e in X lowest first; the witness is that X - e.  It
    is the witness of the walk over every submask S of every U (3^n tests),
    U ascending and S descending: the largest S for the least U with one.
    Let U be least with some S ⊂ U and f(S) ⊄ f(U).  Every e in U - S gives
    S ⊆ U - e < U, so f(S) ⊆ f(U - e) by the choice of U, and U - e
    violates too.  So this loop first stops at U, at its lowest violating
    e, and any violating S lies in some violating U - e' with e' ≥ e, so
    S ≤ U - e' ≤ U - e as numbers: U - e is the largest violating S.
    """
    _check_budget(covering)
    universe = covering.universe
    n = universe.n
    table = _operator_table(covering, kind)

    for mask in range(1 << n):
        if mask & ~table[mask]:
            return False, AxiomWitness("extensivity", ElementSet(universe, mask))
    for mask in range(1 << n):
        for e in bits_of(mask):
            if table[mask ^ 1 << e] & ~table[mask]:
                return False, AxiomWitness("monotonicity", ElementSet(universe, mask ^ 1 << e))
    for mask in range(1 << n):
        if table[table[mask]] != table[mask]:
            return False, AxiomWitness("idempotence", ElementSet(universe, mask))
    for mask in range(1 << n):
        for x in range(n):
            grown = table[mask | 1 << x]
            for y in bits_of(grown & ~table[mask]):
                if not table[mask | 1 << y] >> x & 1:
                    return False, AxiomWitness(
                        "exchange",
                        ElementSet(universe, mask),
                        universe.labels[x],
                        universe.labels[y],
                    )
    return True, None
