"""Seeded inputs and the four benchmark workloads.

Every workload turns a seed into one *pass*: a fixed list of operations.  The
timed loop (run.py) repeats the pass until the time is up and always finishes
the first pass, so the first pass's answers can be pinned.  An operation
returns its raw result; ``answer`` reduces it to a small comparable value
outside the timed region, and ``units`` says how much work it counts for in
``ops_per_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import covlat
from covlat import cli, verify
from covlat.errors import GuardExceeded
from covlat.universe import Covering, ElementSet, SetFamily, Universe, as_covering

DENSITY = 0.3


# --------------------------------------------------------------- inputs


def density_covering(rng: random.Random, n: int, m: int) -> Covering:
    """m distinct blocks, each element in each block with probability 0.3;
    an element left uncovered joins a random block."""
    universe = Universe(tuple(str(i + 1) for i in range(n)))
    masks: list[int] = []
    while len(masks) < m:
        mask = sum(1 << e for e in range(n) if rng.random() < DENSITY)
        if mask and mask not in masks:
            masks.append(mask)
    for e in range(n):
        if not any(mask >> e & 1 for mask in masks):
            masks[rng.randrange(m)] |= 1 << e
    return as_covering(SetFamily(universe, [ElementSet(universe, mask) for mask in masks]))


def partition_plus_block(rng: random.Random, n: int, nested: bool) -> Covering:
    """A random partition of n elements plus one block: a union of two or
    more classes, or a proper subset of a class (``nested``)."""
    universe = Universe(tuple(str(i + 1) for i in range(n)))
    order = list(range(n))
    rng.shuffle(order)
    k = rng.randint(2, max(2, n // 2))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    classes = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        classes.append(sum(1 << e for e in order[lo:hi]))
    if nested:
        # k <= n // 2 classes, so some class has two or more elements
        host = rng.choice([c for c in classes if c.bit_count() >= 2])
        members = [e for e in range(n) if host >> e & 1]
        extra = sum(1 << e for e in rng.sample(members, rng.randint(1, len(members) - 1)))
    else:
        extra = sum(rng.sample(classes, rng.randint(2, len(classes))))
    blocks = [ElementSet(universe, mask) for mask in classes + [extra]]
    return as_covering(SetFamily(universe, blocks))


def relabelled(covering: Covering, rng: random.Random) -> Covering:
    """The same covering with its elements permuted and its blocks shuffled:
    an isomorphic lattice under other masks and another matching order."""
    n = covering.universe.n
    perm = list(range(n))
    rng.shuffle(perm)
    universe = covering.universe
    blocks = [
        ElementSet(universe, sum(1 << perm[e] for e in range(n) if block.mask >> e & 1))
        for block in covering.blocks
    ]
    rng.shuffle(blocks)
    return as_covering(SetFamily(universe, blocks))


def catalog_covering(kind: str, n: int, m: int, index: int, seed: int) -> Covering:
    """Entry ``index`` of a fixed catalog, relabelled by ``seed``.

    At a fixed (n, m) the flat count of a random covering, and with it the
    cost of every layer, varies about 2.5-fold from one draw to the next, so
    seeding the shapes made the figures measure the seed (see README.md).
    The shapes therefore come from fixed catalog seeds, and the run's seed
    permutes elements and blocks and draws the query streams.
    """
    rng = random.Random(f"catalog:{kind}:{n}:{m}:{index}")
    if kind == "density":
        base = density_covering(rng, n, m)
    else:
        base = partition_plus_block(rng, n, nested=kind == "nested")
    return relabelled(base, random.Random(f"relabel:{seed}:{kind}:{n}:{m}:{index}"))


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


# ------------------------------------------------- independent reference


def reference_rank(blocks_of: list[list[int]], mask: int) -> int:
    """Maximum matching of mask's elements to blocks (Kuhn), written apart
    from covlat so that it can check covlat's answers."""
    owner: dict[int, int] = {}

    def augment(e: int, seen: set[int]) -> bool:
        for b in blocks_of[e]:
            if b not in seen:
                seen.add(b)
                if b not in owner or augment(owner[b], seen):
                    owner[b] = e
                    return True
        return False

    return sum(augment(e, set()) for e in range(len(blocks_of)) if mask >> e & 1)


def blocks_of(covering: Covering) -> list[list[int]]:
    return [
        [j for j, block in enumerate(covering.blocks) if block.mask >> e & 1]
        for e in range(covering.universe.n)
    ]


def check_lattice(covering: Covering, lattice, rng: random.Random, samples: int = 48) -> list[str]:
    """Sampled check of an enumerated lattice against reference_rank: sampled
    flats are closed with height equal to rank, and the closures of sampled
    subsets are flats."""
    problems = []
    owners = blocks_of(covering)
    n = covering.universe.n
    full = (1 << n) - 1
    masks = {f.mask for f in lattice.flats}
    picks = rng.sample(range(len(lattice)), min(samples, len(lattice)))
    for i in picks:
        flat, height = lattice.flats[i].mask, lattice.heights[i]
        r = reference_rank(owners, flat)
        if r != height:
            problems.append(f"height {height} != rank {r} at flat {flat:#x}")
        for e in range(n):
            if not flat >> e & 1 and reference_rank(owners, flat | 1 << e) == r:
                problems.append(f"flat {flat:#x} is not closed at element {e}")
    for _ in range(samples):
        x = rng.randrange(full + 1)
        r = reference_rank(owners, x)
        closure = x
        for e in range(n):
            if not x >> e & 1 and reference_rank(owners, x | 1 << e) == r:
                closure |= 1 << e
        if closure not in masks:
            problems.append(f"closure {closure:#x} of {x:#x} is not an enumerated flat")
    return problems[:5]


# ------------------------------------------------------------ workloads


@dataclass
class Op:
    instance: int
    call: Callable[[], object]


@dataclass
class Pass:
    ops: list[Op]
    # check(i, result) -> problems in the i-th result of the first pass,
    # found by checks that do not rely on the pinned digests
    check: Callable[[int, object], list[str]]
    info: dict = field(default_factory=dict)
    # named parts of the pass (op indices), each reported on its own
    parts: dict[str, range] = field(default_factory=dict)


class Workload:
    name = ""
    unit = ""  # what ops_per_s counts
    op = ""  # what one operation is

    def setup(self, seed: int, root: Path) -> Pass:
        raise NotImplementedError

    def answer(self, result):
        """A small value that identifies the result, for pinning."""
        return result

    def units(self, result) -> int:
        return 1

    @contextlib.contextmanager
    def session(self):
        yield self

    def counts(self) -> dict[str, int]:
        """Campaign counts reported next to the per-layer metrics."""
        return {"verify.instances": 0, "verify.dropped": 0, "verify.checks_run": 0}


class Enumerate(Workload):
    """A fresh TransversalMatroid and enumerate_lattice per random covering."""

    name = "enumerate"
    unit = "flats"
    op = "instance"
    LADDER = ((12, 7),) * 2 + ((14, 8),) * 2 + ((16, 8),) * 1

    def setup(self, seed, root):
        coverings = [
            catalog_covering("density", n, m, self.LADDER[:i].count((n, m)), seed)
            for i, (n, m) in enumerate(self.LADDER)
        ]
        ops = [
            Op(i, lambda c=c: covlat.enumerate_lattice(covlat.TransversalMatroid(c)))
            for i, c in enumerate(coverings)
        ]

        def check(i, lattice):
            return check_lattice(coverings[i], lattice, random.Random(f"check:{seed}:{i}"))

        return Pass(ops, check)

    def answer(self, lattice):
        flats = lattice.flats
        return (
            len(flats),
            digest(sorted(f.mask for f in flats)),
            digest(sorted((flats[a].mask, flats[b].mask) for a, b in lattice.hasse_edges)),
        )

    def units(self, lattice):
        return len(lattice)


class LatticeQuery(Workload):
    """A seeded stream of lattice queries on two large prebuilt lattices,
    then is_geometric() on four mid-size ones.

    The query mix is the traffic covlat's own callers send, as counted by
    the traced campaign and cli runs (``--trace 1`` prints it: calls not
    made inside another query, at seed 0): verify_modularity sends
    modular_pair_by_heights on every pair of flats (56,987 calls in one
    pass of the campaign workload), verify_induced_matroids sends covers
    (4,480), and the cli none.  join and meet reach the lattice only inside
    modular_pair_by_heights, and nothing in covlat calls upper_covers or
    lower_covers, so they are not sent on their own.  is_geometric scans
    for joins the way join does, over every pair of flats."""

    name = "lattice_query"
    unit = "operations"
    op = "operation"
    CATALOG = ((15, 8, 0), (15, 8, 1))
    GEOMETRIC = tuple((10, 6, index) for index in (0, 2, 4, 6))
    STREAM = 1300
    CHECKED = 200
    TRAFFIC = {"modular_pair": 56_987, "covers": 4_480}

    def setup(self, seed, root):
        coverings = [catalog_covering("density", n, m, i, seed) for n, m, i in self.CATALOG]
        lattices = [covlat.enumerate_lattice(covlat.TransversalMatroid(c)) for c in coverings]
        mid_size = [
            covlat.enumerate_lattice(covlat.TransversalMatroid(catalog_covering("density", n, m, i, seed)))
            for n, m, i in self.GEOMETRIC
        ]
        uppers = []
        for lattice in lattices:
            above: dict[int, list[ElementSet]] = {}
            for lo, up in lattice.hasse_edges:
                above.setdefault(lo, []).append(lattice.flats[up])
            uppers.append(above)
        rng = random.Random(f"lattice_query:{seed}")
        # exact shares of each kind on each lattice: the kinds differ in cost
        # by 500x, so a drawn mix would move the figure with the seed
        per_lattice = self.STREAM // len(lattices)
        total = sum(self.TRAFFIC.values())
        covers = round(per_lattice * self.TRAFFIC["covers"] / total)
        shares = {"covers": covers, "modular_pair": per_lattice - covers}
        plan = [(li, kind) for li in range(len(lattices)) for kind, count in shares.items() for _ in range(count)]
        rng.shuffle(plan)
        queries = []
        for li, kind in plan:
            flats = lattices[li].flats
            xi = rng.randrange(len(flats))
            x, y = flats[xi], rng.choice(flats)
            # verify_induced_matroids asks whether a flat is covered by a
            # flat above it; half the covers queries here are Hasse edges
            if kind == "covers" and xi in uppers[li] and rng.random() < 0.5:
                y = rng.choice(uppers[li][xi])
            queries.append((li, kind, x, y))
        ops = [Op(li, self._query(lattices[li], kind, x, y)) for li, kind, x, y in queries]
        # looked up at call time, so that an untraced pass calls the untraced method
        ops += [Op(len(lattices) + i, lambda lat=lat: lat.is_geometric()) for i, lat in enumerate(mid_size)]
        ranks: list[dict[int, int]] = []

        def check(i, result):
            if i >= len(queries):
                return [] if result.ok else [f"lattice {i - len(queries)} reported non-geometric: {result.violation}"]
            if i >= self.CHECKED:
                return []
            if not ranks:
                for covering, lattice in zip(coverings, lattices):
                    owners = blocks_of(covering)
                    ranks.append({f.mask: reference_rank(owners, f.mask) for f in lattice.flats})
            li, kind, x, y = queries[i]
            want = self._reference(ranks[li], kind, x.mask, y.mask)
            return [] if want == result else [f"{kind} on lattice {li}: got {result!r}, reference {want!r}"]

        info = {
            "flats": [len(lat) for lat in lattices],
            "queries": shares,
            "geometric_flats": [len(lat) for lat in mid_size],
        }
        return Pass(ops, check, info, {"queries": range(len(queries)), "geometric": range(len(queries), len(ops))})

    @staticmethod
    def _query(lattice, kind, x, y):
        if kind == "covers":
            return lambda: lattice.covers(x, y)
        return lambda: covlat.modular_pair_by_heights(lattice, x, y)

    @staticmethod
    def _reference(rank: dict[int, int], kind: str, x: int, y: int) -> bool:
        if kind == "covers":
            return x & ~y == 0 and rank[y] == rank[x] + 1
        join = min((f for f in rank if (x | y) & ~f == 0), key=lambda f: rank[f])
        return rank[join] + rank[x & y] == rank[x] + rank[y]

    def answer(self, result):
        return result if isinstance(result, bool) else (result.ok, result.violation)


class CampaignCounter:
    """Counts the instances verify_random hands to verify_family and
    verify_covering, and the GuardExceeded drops it would swallow."""

    def __init__(self) -> None:
        self.instances = 0
        self.dropped = 0
        self._depth = 0
        self._undo: list[tuple[str, object]] = []

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            outer = self._depth == 0
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            except GuardExceeded:
                if outer:
                    self.dropped += 1
                raise
            finally:
                self._depth -= 1
                if outer:
                    self.instances += 1

        return counted

    def install(self) -> None:
        for name in ("verify_family", "verify_covering"):
            original = getattr(verify, name)
            self._undo.append((name, original))
            setattr(verify, name, self._wrap(original))

    def uninstall(self) -> None:
        for name, original in reversed(self._undo):
            setattr(verify, name, original)
        self._undo.clear()


class Campaign(Workload):
    """The README's campaign, verify_random(count, s, max_n=6, max_m=6), as
    four campaigns of 50 instances, s = 0..3, at every seed.  verify_random
    draws its instances itself, so they cannot be relabelled like the
    other workloads' catalog shapes, and the draw moves the cost: six
    campaigns of 100, s = 6 * seed + j, timed alternately against s = 0,
    cost 4.5 to 6.7 seed-0 campaigns over seeds 0..5 (IQR/median 0.11).
    With the inputs fixed, a short pass (about 4 s) gives the per-operation
    medians several passes to draw on.

    max_n=6 keeps every instance inside the brute-force oracle budget (7
    elements), so the campaign's silent drop of instances over the budget is
    not exercised here; the counter would report it if it were."""

    name = "campaign"
    unit = "instances"
    op = "campaign"
    CAMPAIGNS = 4
    COUNT = 50

    def setup(self, seed, root):
        self.counter = CampaignCounter()
        self.checks_run = 0
        ops = [
            Op(i, lambda s=s: verify.verify_random(self.COUNT, s, max_n=6, max_m=6))
            for i, s in enumerate(range(self.CAMPAIGNS))
        ]
        seen = {"instances": 0, "dropped": 0}

        def check(i, result):
            problems = [f"{f.name}: {f.detail.splitlines()[0] if f.detail else ''}" for f in result.failures]
            instances = self.counter.instances - seen["instances"]
            dropped = self.counter.dropped - seen["dropped"]
            seen.update(instances=self.counter.instances, dropped=self.counter.dropped)
            if dropped:
                problems.append(f"{dropped} instances dropped by a guard")
            if instances != self.COUNT:
                problems.append(f"{instances} instances verified, expected {self.COUNT}")
            return problems[:5]

        return Pass(ops, check)

    @contextlib.contextmanager
    def session(self):
        self.counter.install()
        try:
            yield self
        finally:
            self.counter.uninstall()

    def answer(self, result):
        self.checks_run += result.checks_run
        return len(result.failures)

    def counts(self):
        return {
            "verify.instances": self.counter.instances,
            "verify.dropped": self.counter.dropped,
            "verify.checks_run": self.checks_run,
        }

    def units(self, result):
        return self.COUNT


class Cli(Workload):
    """covlat check then covlat compare on each file, in-process."""

    name = "cli"
    unit = "files"
    op = "file"
    SIZES = (8, 10, 12)
    KINDS = ("density", "density", "union", "nested")
    INPUT_ERROR_FILES = ("partial_family.cov",)

    def setup(self, seed, root):
        data = sorted((root / "data").glob("*.cov"))
        if not data:
            raise FileNotFoundError(f"no covering files under {root / 'data'}")
        out = root / ".bench_out" / "cli" / str(seed)
        out.mkdir(parents=True, exist_ok=True)
        generated = []
        for n in self.SIZES:
            for j, kind in enumerate(self.KINDS):
                covering = catalog_covering(kind, n, n // 2 + 1, self.KINDS[:j].count(kind), seed)
                path = out / f"n{n}_{j}_{kind}.cov"
                path.write_text(covering.serialize(), encoding="utf-8")
                generated.append(path)
        files = [p.relative_to(root).as_posix() for p in data + generated]
        ops = [Op(i, lambda f=f: self._run(f)) for i, f in enumerate(files)]

        def check(i, result):
            want = 2 if Path(files[i]).name in self.INPUT_ERROR_FILES else 0
            codes = result[:2]
            return [] if codes == (want, want) else [f"{files[i]}: exit codes {codes}, expected {want}"]

        return Pass(ops, check, {"files": len(files)})

    @staticmethod
    def _run(path: str):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            check_code = cli.main(["check", path])
            compare_code = cli.main(["compare", path])
        return check_code, compare_code, stdout.getvalue(), stderr.getvalue()

    def answer(self, result):
        check_code, compare_code, out, err = result
        return (check_code, compare_code, digest(out), digest(err))


WORKLOADS = {w.name: w for w in (Enumerate, LatticeQuery, Campaign, Cli)}
