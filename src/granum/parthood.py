"""Parthood predicates on regions and an empirical property auditor.

Every one of the ten predicate variants is read from one table of subset
tests on approximation signatures, ``X(a) <= Y(b)`` with X and Y each the
lower, upper or boundary mask; g-simple is very-cautious on the
granule-derived signatures (:func:`_subset_tests`).  ``holds`` evaluates a
variant on one pair of regions; ``relation_rows`` evaluates it over lists
of region masks as bit rows, by ANDing per-element columns rather than
testing pair by pair.  The auditor measures reflexivity, transitivity,
antisymmetry and strict confluence on a region basis and reports verdicts
with concrete counterexample witnesses.  Every verdict is scanned but one:
transitivity, when a lemma proves it from the signatures the relation is
read from.  If ``Y(s) <= X(s)`` for every signature s on the basis, each
subset test ``X(a) <= Y(b)`` is transitive there, and so is a conjunction
of them.  That holds on every basis for very-cautious, possibilist,
bilateral, lateral-plus, rough-inclusion and g-simple, and wherever
lower <= upper (every derived space) for ultra-cautious; the check reads
the very signatures the relation is built from, so it is exact, and when
it fails the relation is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import islice
from operator import and_, itemgetter, or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .core import DEFAULT_SEED, Basis, Region, _jsonify, _region_masks, _transpose

if TYPE_CHECKING:  # pragma: no cover
    from .gos import GranularOperatorSpace

EXHAUSTIVE_REGION_LIMIT = 32  # 2^5: full pair/triple scans stay cheap below this
_MAX_BASIS = 1 << 14   # gos-audit's exhaustive basis; a larger property basis is refused

_lower, _upper = itemgetter(0), itemgetter(1)


def _boundary(sig: tuple[int, int]) -> int:
    return sig[1] & ~sig[0]


# Signature formulas: each variant holds from a to b iff X(a) is a subset of
# Y(b) for every (X, Y) test listed, where X and Y map a (lower, upper)
# signature to the lower, upper or boundary mask.
_FORMULAS: dict[str, tuple[tuple[Callable[[tuple[int, int]], int],
                                  Callable[[tuple[int, int]], int]], ...]] = {
    "very-cautious": ((_lower, _lower),),
    "cautious": ((_lower, _upper),),
    "lateral": ((_lower, _boundary),),
    "possibilist": ((_upper, _upper),),
    "ultra-cautious": ((_upper, _lower),),
    "lateral-plus": ((_upper, _boundary),),
    "bilateral": ((_boundary, _boundary),),
    "lateral-plus-plus": ((_boundary, _lower),),
    "rough-inclusion": ((_lower, _lower), (_upper, _upper)),
}


@dataclass(frozen=True)
class ParthoodVariant:
    """One 'part of' predicate, named by a row of ``_FORMULAS`` or g-simple:
    :func:`_subset_tests` gives the subset tests that decide it on a space."""

    name: str


VERY_CAUTIOUS = ParthoodVariant("very-cautious")
CAUTIOUS = ParthoodVariant("cautious")
LATERAL = ParthoodVariant("lateral")
POSSIBILIST = ParthoodVariant("possibilist")
ULTRA_CAUTIOUS = ParthoodVariant("ultra-cautious")
LATERAL_PLUS = ParthoodVariant("lateral-plus")
BILATERAL = ParthoodVariant("bilateral")
LATERAL_PLUS_PLUS = ParthoodVariant("lateral-plus-plus")
G_SIMPLE = ParthoodVariant("g-simple")
ROUGH_INCLUSION = ParthoodVariant("rough-inclusion")

VARIANTS: dict[str, ParthoodVariant] = {
    v.name: v
    for v in (VERY_CAUTIOUS, CAUTIOUS, LATERAL, POSSIBILIST, ULTRA_CAUTIOUS,
              LATERAL_PLUS, BILATERAL, LATERAL_PLUS_PLUS, G_SIMPLE, ROUGH_INCLUSION)
}


def variant(name: str) -> ParthoodVariant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown parthood variant {name!r} "
                         f"(known: {', '.join(sorted(VARIANTS))})") from None


def holds(v: ParthoodVariant, a: Region, b: Region, ctx: "GranularOperatorSpace") -> bool:
    """Evaluate the parthood ``v`` between regions ``a`` and ``b`` in ``ctx``;
    g-simple by its granules, the per-pair reference for :func:`_subset_tests`."""
    if v.name == "g-simple":
        # Every granule contained in a is contained in b.
        for g in ctx.granulation.granules:
            if g.bits & ~a.bits == 0 and g.bits & ~b.bits != 0:
                return False
        return True
    sa, sb = ctx.signature_bits(a.bits), ctx.signature_bits(b.bits)
    return all(x(sa) & ~y(sb) == 0 for x, y in _FORMULAS[v.name])


def _subset_tests(v: ParthoodVariant, ctx: "GranularOperatorSpace"):
    """The subset tests that decide ``v`` on ``ctx``, and the space whose
    signatures they read: ``ctx``, but for g-simple the granule-derived
    one (``ctx`` or, with explicit operators, its derived twin).  g-simple
    is very-cautious there: a granule inside a lies inside lowerG(a), which
    lies inside a, so every granule inside a lies inside b iff lowerG(a) <=
    lowerG(b)."""
    if v.name == "g-simple":
        return _FORMULAS["very-cautious"], ctx._derived or ctx
    return _FORMULAS[v.name], ctx


def relation_rows(v: ParthoodVariant, ctx: "GranularOperatorSpace",
                  sources: list[int], targets: list[int]) -> list[int]:
    """Bit rows of ``v`` between region masks: one row per source.

    Bit j of row i is set iff ``v`` holds from ``sources[i]`` to
    ``targets[j]``.  The signatures of the sources and of the targets are
    read in one :meth:`~granum.gos.GranularOperatorSpace.signatures` call
    each, or in one call in all when ``sources is targets``.  For a
    signature formula, each subset test ``X(a) <= Y(b)`` gets one column
    per universe element e, the targets whose ``Y`` contains e, from one
    bit-matrix transpose of the targets' ``Y`` masks; a source's row is the
    AND of the columns at the elements of its ``X`` (all targets when ``X``
    is empty), with ``X`` read once per distinct source signature and each
    AND built once per distinct ``X`` mask.  On the count
    benchmark's 40-120 singletons that takes 0.11 to 0.19 ms a call, where
    walking each distinct ``Y`` mask bit by bit took 0.21 to 0.30 (Python
    3.11.7 on 2 vCPUs).  A transpose costs about 0.3 microseconds a column
    whatever the rows, so a call with a handful of targets on thousands of
    elements can cost more than walking their ``Y`` masks did, and one
    with thousands of targets in a handful of signatures transposes every
    target: callers that meet such targets, like the lower-stability
    audit, pass one region per signature.  Every variant is built so, g-simple
    from the signatures that :func:`_subset_tests` names.
    """
    tests, space = _subset_tests(v, ctx)
    target_sigs = space.signatures(targets)
    return _signature_rows(tests, len(ctx.universe), target_sigs,
                           target_sigs if sources is targets else space.signatures(sources))


def _signature_rows(tests, n: int, target_sigs: list[tuple[int, int]],
                    source_sigs: list[tuple[int, int]]) -> list[int]:
    """:func:`relation_rows` for the subset ``tests`` of a signature formula
    on ``n`` elements, from the signatures of the targets and sources.

    Each test's columns are one :func:`~granum.core._transpose` of the
    targets' ``Y`` masks, with ``Y`` read once per distinct target
    signature: column e holds the targets whose ``Y`` holds e.  The rows of
    the sources then come from :func:`_column_rows`.
    """
    if not target_sigs or not source_sigs:
        return [0] * len(source_sigs)
    distinct = dict.fromkeys(target_sigs)
    columns = []
    for x, y in tests:
        ys = dict(zip(distinct, map(y, distinct)))
        columns.append((x, _transpose(list(map(ys.__getitem__, target_sigs)), n)))
    return _column_rows(columns, source_sigs, (1 << len(target_sigs)) - 1)


def _column_rows(columns, sigs: list[tuple[int, int]], everything: int) -> list[int]:
    """Per signature in ``sigs``, the targets that a source of it is part of.

    Each subset test comes as ``X`` and the columns of its ``Y``: per
    element e, the targets whose ``Y`` holds e.  A row ANDs, for each test,
    the columns at the elements of ``X(sig)`` (``everything`` when there are
    none).  ``X`` is read once per distinct signature, and each test ANDs
    the columns once per distinct ``X`` mask.  On sampled bases many
    signatures share a side: rough-inclusion on 256 seed-7 regions of
    ``ctx_overlap24.json`` has 164 signatures and 973 AND steps, where one
    AND per signature took 2076.
    """
    distinct = list(dict.fromkeys(sigs))
    rows = [everything] * len(distinct)
    for x, cols in columns:
        xs = list(map(x, distinct))
        ands = dict.fromkeys(xs, everything)
        for xm in ands:
            row, rest = everything, xm
            while rest:
                low = rest & -rest
                row &= cols[low.bit_length() - 1]
                rest ^= low
            ands[xm] = row
        rows = list(map(and_, rows, map(ands.__getitem__, xs)))
    part = dict(zip(distinct, rows))
    return list(map(part.__getitem__, sigs))


def proper_part(v: ParthoodVariant, a: Region, b: Region, ctx: "GranularOperatorSpace") -> bool:
    """Parthood holds one way but not the other."""
    return holds(v, a, b, ctx) and not holds(v, b, a, ctx)


def conflict(v: ParthoodVariant, a: Region, b: Region, ctx: "GranularOperatorSpace",
             mode: str = "comparability") -> bool:
    """The discernibility relation used to carve antichains.

    ``comparability``: distinct regions related by parthood in either
    direction (its antichains are the conflict-free sets).
    ``incomparability``: neither direction holds; kept literal, including on
    the diagonal, so non-reflexive variants are reported as they are.
    """
    if mode == "comparability":
        return a != b and (holds(v, a, b, ctx) or holds(v, b, a, ctx))
    if mode == "incomparability":
        return not holds(v, a, b, ctx) and not holds(v, b, a, ctx)
    raise ValueError(f"unknown conflict mode {mode!r}")


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    verdict: str  # holds-exhaustively | holds-sampled | fails
    witnesses: tuple = ()

    def _fields(self) -> dict:
        """The layout of :meth:`to_dict`, its regions left as regions."""
        return {"name": self.name, "verdict": self.verdict, "witnesses": self.witnesses}

    def to_dict(self) -> dict:
        return _jsonify(self._fields())


@dataclass(frozen=True)
class PropertyReport:
    """Measured verdicts for one parthood variant on one context."""

    variant: str
    checks: tuple[PropertyCheck, ...]
    scope: dict

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def _fields(self) -> dict:
        """The layout of :meth:`to_dict`, its regions left as regions."""
        return {
            "variant": self.variant,
            "scope": dict(self.scope),
            "checks": [c._fields() for c in self.checks],
        }

    def to_dict(self) -> dict:
        return _jsonify(self._fields())


def _property_basis(n: int, budget: int = EXHAUSTIVE_REGION_LIMIT,
                    seed: int = DEFAULT_SEED) -> Basis:
    """The property audits' basis: all 2^n regions when at most ``budget``,
    else ``budget`` distinct ones drawn with ``seed``; refused, before any
    is drawn, past ``_MAX_BASIS`` regions, each row of that many bits."""
    if min(budget, 1 << n) > _MAX_BASIS:
        raise ValueError(f"budget {budget} asks for {min(budget, 1 << n)} regions, over {_MAX_BASIS}")
    return _region_masks(n, budget, budget, seed)


def audit_properties(v: ParthoodVariant, ctx: "GranularOperatorSpace",
                     basis: Basis | None = None, witness_cap: int = 5,
                     include_proper_confluence: bool = False) -> PropertyReport:
    """Measure reflexivity, transitivity, antisymmetry and strict confluence.

    Scans ``basis`` (default: all regions up to 5 elements, past that 32
    drawn with ``DEFAULT_SEED``); the scope states its mode and seed.  A
    check fails iff its scan finds a violation, whatever the
    ``witness_cap``; it carries the first ``witness_cap`` genuine witnesses.
    Transitivity holds without a scan when :func:`_transitive_by_form`
    proves it from the basis's signatures, the ones the rows are built from.
    """
    basis = basis or _property_basis(len(ctx.universe))
    masks = basis.scan(ctx.universe)
    m = len(masks)
    tests, space = _subset_tests(v, ctx)
    sigs = space.signatures(masks)
    rows = _signature_rows(tests, len(ctx.universe), sigs, sigs)
    proved = _transitive_by_form(tests, sigs)
    cols = _transpose(rows, m)
    ok_tag = "holds-exhaustively" if basis.mode == "exhaustive" else "holds-sampled"

    def check(name: str, failures: Iterator[tuple[int, ...]]) -> PropertyCheck:
        first = list(islice(failures, max(witness_cap, 1)))
        return PropertyCheck(name, "fails" if first else ok_tag, tuple(
            tuple(ctx.universe.region_from_bits(masks[i]) for i in ids)
            for ids in first[:witness_cap]))

    checks = [
        check("reflexive", ((i,) for i in _reflexive_failures(rows))),
        check("transitive", () if proved else ((i, j, next(_bits(escape)))
                                               for i, j, escape in _transitive_failures(rows))),
        check("antisymmetric", _antisymmetric_failures(rows, cols)),
        check("strictly-confluent", _confluence_failures(rows, cols)),
    ]
    if include_proper_confluence:
        proper = [row & ~col for row, col in zip(rows, cols)]
        checks.append(check("strictly-confluent-proper",
                            _confluence_failures(proper, _transpose(proper, m))))

    scope = {"mode": basis.mode, "basis_size": m, "universe_size": len(ctx.universe)}
    if basis.seed is not None:
        scope["seed"] = basis.seed
    return PropertyReport(v.name, tuple(checks), scope)


def _transitive_by_form(tests, sigs: Iterable[tuple[int, int]]) -> bool:
    """Whether the lemma proves the relation of the subset ``tests``
    transitive on regions of the signatures ``sigs``.

    The lemma: if ``Y(s) <= X(s)`` for every signature s in ``sigs``, then
    each test ``X(a) <= Y(b)`` is transitive there, since ``X(a) <= Y(b) <=
    X(b) <= Y(c)``; and a conjunction of transitive relations is transitive.
    A test with Y the same side as X meets it on every space (very-cautious
    and so g-simple, possibilist, bilateral, rough-inclusion), and so does
    lateral-plus (the boundary lies inside the upper); ultra-cautious meets
    it wherever lower <= upper, on every derived space.  The others meet it
    only on degenerate signatures (cautious where every upper lies inside
    its lower), and then their relation is transitive too.  False means
    only that the lemma does not apply: the relation must be scanned.
    O(distinct signatures * tests).
    """
    distinct = set(sigs)
    return all(not y(s) & ~x(s) for x, y in tests if x is not y for s in distinct)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Failure scans of bit rows (bit j of rows[i]: i -> j) and their transpose
# ``cols``, in witness order: rows ascending, then set bits ascending.
def _reflexive_failures(rows: Sequence[int]) -> Iterator[int]:
    """Each i with i -/-> i."""
    return (i for i, row in enumerate(rows) if not row >> i & 1)


def _transitive_failures(rows: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each (i, j, escape): i -> j, and the nonzero escape holds each k with j -> k, i -/-> k."""
    return _unless_clean(rows, lambda row: ((j, rows[j] & ~row) for j in _bits(row)
                                            if rows[j] & ~row))


def _antisymmetric_failures(rows: Sequence[int], cols: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Each (i, j) with i < j, i -> j and j -> i."""
    return ((i, j) for i, row in enumerate(rows)
            for j in _bits((row & cols[i]) >> i + 1 << i + 1))


def _confluence_failures(rows: Sequence[int], cols: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each (i, j, k) with j <= k, i -> j, i -> k and no e with j -> e, k -> e.

    A row is clean, and skips the pair scan, when its members' rows share
    an element e (the AND of those rows is nonzero: e lies above every
    member); the test costs one AND per member.  Every other row runs the
    pair scan, which gives its witnesses in order.  On seed-7
    ``parthood-audit --variant cautious`` bases of 64 and 256 regions of
    ``ctx_overlap24.json``, every row is clean by the test, and the check
    takes 0.12 and 0.31 ms where the pair scan took 0.67 and 5.9 (in one
    run, Python 3.11.7 on 2 vCPUs).
    """
    # meet(row): every k with some e where k -> e and row has e
    meet = cache(lambda row: reduce(or_, (cols[e] for e in _bits(row)), 0))

    def failures(row: int):
        if reduce(and_, map(rows.__getitem__, _bits(row)), -1):
            return ()
        return ((j, k) for j in _bits(row) for k in _bits((row & ~meet(rows[j])) >> j << j))
    return _unless_clean(rows, failures)


def _unless_clean(rows: Sequence[int], failures: Callable) -> Iterator[tuple[int, ...]]:
    """``(i, *f)`` for each ``f`` in ``failures(rows[i])``.  ``failures`` reads
    only the row's value, so a row equal to one found clean is skipped."""
    clean: set[int] = set()
    for i, row in enumerate(rows):
        if row not in clean:
            found = False
            for f in failures(row):
                found = True
                yield (i, *f)
            if not found:
                clean.add(row)

