"""Shared fixtures: the block-partition context, small posets, random corpora."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from granum import (Granulation, GranularOperatorSpace, IndiscernibilityRelation,
                    Universe, lower_approx, upper_approx)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def u5() -> Universe:
    return Universe(("1", "2", "3", "4", "5"))


@pytest.fixture(scope="session")
def blocks5(u5) -> IndiscernibilityRelation:
    """Partition {{1,2},{3},{4,5}} of a five-element universe."""
    return IndiscernibilityRelation.from_sets(u5, [["1", "2"], ["3"], ["4", "5"]])


@pytest.fixture(scope="session")
def gran5(blocks5) -> Granulation:
    return blocks5.granulation()


@pytest.fixture()
def space5(u5, gran5) -> GranularOperatorSpace:
    return GranularOperatorSpace(u5, gran5)


# --- small poset fixtures ---------------------------------------------------

def make_poset(items, strict_pairs):
    """(items, le, conflict) from a strict-order pair set."""
    strict = set(strict_pairs)

    def le(a, b):
        return a == b or (a, b) in strict

    def conflict(a, b):
        return a != b and ((a, b) in strict or (b, a) in strict)

    return tuple(items), le, conflict


NAMED_POSETS = {
    "vee-iso": (("p", "q", "r", "s"), {("p", "q"), ("p", "r")}),
    "chain5": (("a", "b", "c", "d", "e"),
               {(x, y) for i, x in enumerate("abcde") for y in "abcde"[i + 1:]}),
    "antichain5": (("a", "b", "c", "d", "e"), set()),
    "diamond": (("bot", "x", "y", "top"),
                {("bot", "x"), ("bot", "y"), ("bot", "top"), ("x", "top"), ("y", "top")}),
    "two-chains": (("a", "b", "c", "d", "e"),
                   {("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")}),
    "zigzag": (("a", "b", "c", "d"), {("a", "c"), ("a", "d"), ("b", "d")}),
}


@pytest.fixture(scope="session")
def vee_poset():
    """p < q, p < r, q and r incomparable, s isolated."""
    return make_poset(*NAMED_POSETS["vee-iso"])


def random_poset(n: int, rng: random.Random, density: float = 0.35):
    """A random strict order: random ranking, random edges, transitive closure."""
    items = tuple(f"x{i}" for i in range(n))
    rank = list(items)
    rng.shuffle(rank)
    strict = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                strict.add((rank[i], rank[j]))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(strict):
            for (c, d) in list(strict):
                if b == c and (a, d) not in strict:
                    strict.add((a, d))
                    changed = True
    return make_poset(items, strict)


def build_poset_corpus():
    """Six named posets plus 200 seeded random ones with 2..10 elements."""
    corpus = [(name, make_poset(items, strict))
              for name, (items, strict) in NAMED_POSETS.items()]
    rng = random.Random(20260810)
    for k in range(200):
        n = rng.randint(2, 10)
        corpus.append((f"random-{k}", random_poset(n, rng)))
    return corpus


@pytest.fixture(scope="session")
def poset_corpus():
    return build_poset_corpus()


# --- independent re-implementations used as acceptance referees --------------

def recursive_partitions(items):
    """Second, independently coded partition enumerator (insertion style)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for p in recursive_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + ((first,) + p[i],) + p[i + 1:]
        yield p + ((first,),)


def planted_pairs(rng: random.Random, universe: Universe, k: int) -> list:
    """``k`` realizable (lower, upper) pairs: the signatures of random regions
    under a random partition of the universe."""
    n = len(universe)
    width = rng.randint(1, n)
    blocks: dict[int, list[str]] = {}
    for e in universe.elements:
        blocks.setdefault(rng.randrange(width), []).append(e)
    g = IndiscernibilityRelation.from_sets(universe, list(blocks.values())).granulation()
    regions = [universe.region_from_bits(rng.getrandbits(n)) for _ in range(k)]
    return [(lower_approx(a, g), upper_approx(a, g)) for a in regions]


def independently_realizable(pairs, elements) -> bool:
    """Ground-truth inverse check: subset scan under every partition.

    ``pairs`` are (frozenset, frozenset) targets.  For each partition, every
    subset's approximations are recomputed from the block definitions and
    compared; no feasibility shortcuts.
    """
    els = tuple(elements)
    n = len(els)
    subsets = [frozenset(els[i] for i in range(n) if mask >> i & 1)
               for mask in range(1 << n)]
    for partition in recursive_partitions(els):
        blocks = [frozenset(b) for b in partition]

        def sig(region):
            lower = frozenset().union(*(b for b in blocks if b <= region)) \
                if any(b <= region for b in blocks) else frozenset()
            upper = frozenset().union(*(b for b in blocks if b & region)) \
                if any(b & region for b in blocks) else frozenset()
            return lower, upper

        if all(any(sig(a) == pair for a in subsets) for pair in pairs):
            return True
    return False


def seeded_space(rng: random.Random, n: int, explicit: bool = False) -> GranularOperatorSpace:
    """A context on n elements with random granules; with ``explicit``, its
    operators are random lookup tables instead of the derived ones."""
    u = Universe(tuple(f"e{i}" for i in range(n)))
    granules = sorted({tuple(sorted(rng.sample(u.elements, rng.randint(1, n))))
                       for _ in range(rng.randint(1, n + 1))})
    g = Granulation.from_sets(u, granules)
    if not explicit:
        return GranularOperatorSpace(u, g)
    regions = list(u.all_regions())
    return GranularOperatorSpace(u, g, lower={a: rng.choice(regions) for a in regions},
                                 upper={a: rng.choice(regions) for a in regions})


# --- granulation fixture suite ----------------------------------------------

def granulation_suite() -> list[tuple[str, Granulation]]:
    """At least 25 granulations over universes of 2..6 elements.

    Mix of partitions, overlapping families, non-covering families and
    nested chains.
    """
    out = []
    rng = random.Random(97)
    for n in range(2, 7):
        u = Universe(tuple(str(i) for i in range(1, n + 1)))
        els = u.elements
        out.append((f"singletons{n}",
                    Granulation.from_sets(u, [[e] for e in els])))
        out.append((f"one-block{n}", Granulation.from_sets(u, [els])))
        if n >= 3:
            split = [list(els[:2])] + [[e] for e in els[2:]]
            out.append((f"pair-head{n}", Granulation.from_sets(u, split)))
            windows = [list(els[i:i + 2]) for i in range(n - 1)]
            out.append((f"windows2-{n}", Granulation.from_sets(u, windows)))
            prefixes = [list(els[:i + 1]) for i in range(n)]
            out.append((f"nested{n}", Granulation.from_sets(u, prefixes)))
            out.append((f"gap{n}",
                        Granulation.from_sets(u, [[e] for e in els[:-1]])))
        if n >= 4:
            windows3 = [list(els[i:i + 3]) for i in range(n - 2)]
            out.append((f"windows3-{n}", Granulation.from_sets(u, windows3)))
            labels = [rng.randrange(2) for _ in els]
            blocks: dict[int, list[str]] = {}
            for e, b in zip(els, labels):
                blocks.setdefault(b, []).append(e)
            out.append((f"random-partition{n}",
                        Granulation.from_sets(u, list(blocks.values()))))
    return out
