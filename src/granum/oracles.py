"""Independent brute-force verifiers.

These deliberately avoid the code paths they grade: antichain enumeration is
a maximal-independent-set search over the conflict graph, signatures are
recomputed element by element from the definitions, the inverse check
searches every partition of the universe (it grades the closed form
:func:`granum.gos.rough_origin`), a run's decomposition is re-verified
by asking the conflict callback pair by pair (it grades the mask verifier
:func:`granum.counting.verify_decomposition`), and a greedy counting pass
scans its order item by item (it grades the run-mask pass of
:mod:`granum.counting`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import Granulation, IndiscernibilityRelation, Region, Universe
from .counting import (AntichainDecomposition, CategoryVerdict, CountingTrace, CountLabel,
                       OrderArrangement, count_label)
from .gos import PartitionWitness

Item = Hashable

MAX_ANTICHAIN_ITEMS = 20
MAX_COVER_ITEMS = 200      # n^3 order checks: a few seconds at the cap
MAX_SIGNATURE_UNIVERSE = 14
MAX_INVERSE_UNIVERSE = 10  # Bell(10) = 115975 partitions


def enumerate_maximal_antichains(conflict: Callable[[Item, Item], bool],
                                 collection: Iterable[Item]) -> list[tuple]:
    """All maximal conflict-free subsets, canonically ordered.

    Bron-Kerbosch with pivoting on the compatibility graph (two items are
    compatible when neither direction conflicts).
    """
    items = list(collection)
    n = len(items)
    if n > MAX_ANTICHAIN_ITEMS:
        raise ValueError(f"collection too large for exhaustive enumeration "
                         f"(n={n} > {MAX_ANTICHAIN_ITEMS})")
    if n == 0:
        return []
    compat = []
    for i, a in enumerate(items):
        bits = 0
        for j, b in enumerate(items):
            if i != j and not conflict(a, b) and not conflict(b, a):
                bits |= 1 << j
        compat.append(bits)

    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append(r)
            return
        pool = p | x
        pivot = max(_bit_indices(pool), key=lambda u: (p & compat[u]).bit_count())
        candidates = p & ~compat[pivot]
        for v in _bit_indices(candidates):
            bit = 1 << v
            expand(r | bit, p & compat[v], x & compat[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    sets = [tuple(items[i] for i in _bit_indices(mask)) for mask in found]
    sets.sort(key=lambda s: tuple(items.index(m) for m in s))
    return sets


def verify_decomposition_by_calls(trace: CountingTrace,
                                  conflict: Callable[[Item, Item], bool]) -> AntichainDecomposition:
    """:func:`granum.counting.verify_decomposition` asked of the callback, lazily.

    Each category's pairs are asked in member order until one conflicts,
    and each item outside it, in collection order, against its members
    until one conflicts.  The relation is taken as it is, reflexive or
    asymmetric ones included.
    """
    items = list(trace.collection)
    verdicts = []
    covered: set[Item] = set()
    total = 0
    for cat in trace.categories:
        members = list(cat.members)
        covered.update(members)
        total += len(members)
        cw = None
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if conflict(a, b):
                    cw = (a, b)
                    break
            if cw:
                break
        mw = None
        member_set = set(members)
        for x in items:
            if x not in member_set and all(not conflict(x, m) for m in members):
                mw = x
                break
        verdicts.append(CategoryVerdict(cat.index, cat.members,
                                        cw is None, cw, mw is None, mw))
    missing = tuple(x for x in items if x not in covered)
    counts_match = (total == len(items)) if trace.algorithm == "pca" else None
    coverage = not missing
    coherent = None
    if trace.algorithm in ("hpca", "fhca"):
        coherent = coverage and all(v.maximal and v.conflict_free for v in verdicts)
    return AntichainDecomposition(tuple(c.members for c in trace.categories),
                                  tuple(verdicts), coverage, missing, total,
                                  len(items), counts_match, coherent)


def greedy_pass_by_scan(order: OrderArrangement, items: Sequence[Item], rows: Sequence[int],
                        cat_index: int) -> tuple[int, tuple[tuple[Item, CountLabel], ...], tuple]:
    """:func:`granum.counting._greedy_pass` as an item-by-item scan of ``order``.

    Each item, in order, is taken when its row (over ``items``) meets no
    earlier member, else rejected.  Returns the members' position mask, the
    members with their count labels and the rejected items, in scan order.
    """
    index = {x: i for i, x in enumerate(items)}
    taken = 0
    assigned: list[tuple[Item, CountLabel]] = []
    rejected: list[Item] = []
    for x in order.sequence:
        p = index[x]
        if rows[p] & taken:
            rejected.append(x)
        else:
            taken |= 1 << p
            assigned.append((x, count_label(len(assigned) + 1, cat_index)))
    return taken, tuple(assigned), tuple(rejected)


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class MirskyCover:
    """Height-leveling cover: as many antichains as the longest chain."""

    levels: tuple[tuple, ...]
    longest_chain: int

    def to_dict(self) -> dict:
        return {"levels": [list(l) for l in self.levels],
                "longest_chain": self.longest_chain}


def minimum_antichain_cover(le: Callable[[Item, Item], bool],
                            collection: Iterable[Item]) -> MirskyCover:
    """Cover a partial order by height levels.

    ``le`` must be a reflexive partial order on the collection; violations
    are rejected with a witness.  Level k collects the items whose longest
    descending chain has length k, so the number of levels equals the
    longest chain length.
    """
    items = list(collection)
    if len(items) > MAX_COVER_ITEMS:
        raise ValueError(f"collection too large for the partial-order check "
                         f"(n={len(items)} > {MAX_COVER_ITEMS})")
    for a in items:
        if not le(a, a):
            raise ValueError(f"relation is not a partial order: not reflexive at {a!r}")
    for a in items:
        for b in items:
            if a != b and le(a, b) and le(b, a):
                raise ValueError(f"relation is not a partial order: "
                                 f"antisymmetry fails on ({a!r}, {b!r})")
    for a in items:
        for b in items:
            for c in items:
                if le(a, b) and le(b, c) and not le(a, c):
                    raise ValueError(f"relation is not a partial order: "
                                     f"transitivity fails on ({a!r}, {b!r}, {c!r})")

    height: dict[Item, int] = {}

    def h(x: Item) -> int:
        if x not in height:
            below = [y for y in items if y != x and le(y, x)]
            height[x] = (1 + max(h(y) for y in below)) if below else 0
        return height[x]

    for x in items:
        h(x)
    top = max(height.values(), default=0)
    levels = tuple(tuple(x for x in items if height[x] == k) for k in range(top + 1))
    return MirskyCover(levels, top + 1)


def brute_force_signatures(g: Granulation) -> dict[Region, tuple[Region, Region]]:
    """Recompute every region's (lower, upper) pair element by element.

    An element is in the lower approximation when some granule containing it
    lies inside the region, and in the upper when some granule containing it
    meets the region.  Pure set logic, no mask shortcuts.
    """
    universe = g.universe
    els = universe.elements
    n = len(els)
    if n > MAX_SIGNATURE_UNIVERSE:
        raise ValueError(f"universe too large for signature enumeration "
                         f"(n={n} > {MAX_SIGNATURE_UNIVERSE})")
    gsets = [frozenset(gr) for gr in g.granules]
    out: dict[Region, tuple[Region, Region]] = {}
    for bits in range(1 << n):
        s = frozenset(els[i] for i in range(n) if bits >> i & 1)
        lower = {e for e in els if any(e in gs and gs <= s for gs in gsets)}
        upper = {e for e in els if any(e in gs and gs & s for gs in gsets)}
        out[universe.region(s)] = (universe.region(lower), universe.region(upper))
    return out


def all_partitions(items: Sequence[str]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Every partition of the items, in restricted-growth-string order.

    The single-block partition comes first; the all-singletons partition
    comes last.  Deterministic, so "first witness" is well defined.
    """
    n = len(items)
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    while True:
        nblocks = max(rgs) + 1
        blocks: list[list[str]] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(items[i])
        yield tuple(tuple(b) for b in blocks)
        # successor in lexicographic RGS order
        i = n - 1
        while i > 0:
            prefix_max = max(rgs[:i])
            if rgs[i] <= prefix_max:
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


def inverse_rough_check(pairs: Sequence[tuple[Region, Region]],
                        universe: Universe) -> PartitionWitness | None:
    """Decide whether some partition realizes every (lower, upper) pair.

    Fast necessary filters run first: each pair must be nested, and no
    boundary may be a single element (boundaries are unions of blocks of at
    least two elements).  Then every partition of the universe is tried in
    restricted-growth order; the first that realizes all pairs is returned
    with per-pair realizing regions.  ``None`` means no partition works -
    the search is exhaustive, never sampled.
    """
    n = len(universe)
    if n > MAX_INVERSE_UNIVERSE:
        raise ValueError(f"universe too large for exhaustive partition search "
                         f"(n={n} > {MAX_INVERSE_UNIVERSE})")
    for lo, up in pairs:
        if lo.universe != universe or up.universe != universe:
            raise ValueError("pair regions must live in the given universe")
        if not lo.issubset(up):
            return None
        if (up.bits & ~lo.bits).bit_count() == 1:
            return None

    for blocks in all_partitions(universe.elements):
        masks = [universe.region(b).bits for b in blocks]
        regions = _realize_all(pairs, masks, universe)
        if regions is not None:
            rel = IndiscernibilityRelation.from_sets(universe, blocks)
            return PartitionWitness(rel, tuple(regions))
    return None


def _realize_all(pairs: Sequence[tuple[Region, Region]], masks: list[int],
                 universe: Universe) -> list[Region] | None:
    out = []
    for lo, up in pairs:
        a, b = lo.bits, up.bits
        ok = True
        boundary_blocks = []
        for m in masks:
            if m & a and m & ~a:
                ok = False   # a is not a union of blocks
                break
            if m & b:
                if m & ~b:
                    ok = False   # b is not a union of blocks
                    break
                if not m & a:
                    if m.bit_count() < 2:
                        ok = False   # boundary block too small to stay proper
                        break
                    boundary_blocks.append(m)
        if not ok:
            return None
        bits = a
        for m in boundary_blocks:
            bits |= m & -m   # least element keeps the witness lexicographically least
        out.append(universe.region_from_bits(bits))
    return out
