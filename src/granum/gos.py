"""Granular operator spaces: axiom audits, rough quotients, the basic rough
order, and the rough-origin decision for families of approximation pairs.

A space bundles a universe, a granulation, lower/upper operators (derived
from the granulation by union, or supplied explicitly) and a parthood
variant, read through :func:`~granum.parthood._subset_tests` (g-simple on
explicit operators from the granule-derived twin).  The audits check the
defining axioms on a basis of regions and report witnesses.

A derived space meets two axioms by its construction.  Every lower and
upper is a union of granules, so the space is weakly representable; and a
granule inside a region meets it, so the lower lies inside the upper.
Those two audits therefore scan only explicit operators; on a derived
space they check the basis and report it, passed.

On a derived space scanned over all 2^n regions in ascending order, the
lower-stability and full-underlap audits read region-lattice columns
(:class:`RegionColumns`): bit x of a 2^n-bit integer stands for the region
with mask x, and each element e has one column of the regions that hold
it, one of those whose lower holds it, one for the upper and one for the
upper of the lower.  Every check is then a few integer ANDs and ORs of
columns, with no per-region step; only the witnesses are read region by
region.  Every other scan, :func:`rough_objects` included, reads its
regions through :meth:`GranularOperatorSpace.signatures`, the memoized
per-mask read.  On a derived space that read takes a one-element region's
signature from a per-element table, built in one pass over the granules on
the first such read (the elements that ``count --items elements`` orders);
a region of two or more elements makes one pass over the granules, which
measured faster than a per-element read on audit bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from . import parthood as ph
from .core import (DEFAULT_SEED, Basis, Granulation, IndiscernibilityRelation, Region,
                   Universe, _ascending, _is_ascending, _jsonify, _region_masks,
                   _transpose, lower_approx, lower_bits, upper_approx)

EXHAUSTIVE_UNIVERSE_CAP = 14  # 16384 regions; beyond this audits sample
AUDIT_SAMPLE = 2048
QUOTIENT_UNIVERSE_CAP = 14

OperatorLike = Callable[[Region], Region] | Mapping[Region, Region]


class GranularOperatorSpace:
    """Universe + granulation + lower/upper operators + parthood predicate."""

    def __init__(self, universe: Universe, granulation: Granulation,
                 lower: OperatorLike | None = None,
                 upper: OperatorLike | None = None,
                 parthood: ph.ParthoodVariant = ph.ROUGH_INCLUSION):
        if granulation.universe != universe:
            raise ValueError("granulation universe differs from space universe")
        if (lower is None) != (upper is None):
            raise ValueError("explicit mode needs both lower and upper operators")
        self.universe = universe
        self.granulation = granulation
        self.parthood = parthood
        self._masks = granulation.masks()
        self._lower_op = self._wrap(lower)
        self._upper_op = self._wrap(upper)
        self._cache: dict[int, tuple[int, int]] = {}
        self._elements: list[tuple[int, int]] | None = None   # built on first read
        self._columns: RegionColumns | None = None
        # explicit operators: the granule-derived twin whose signatures g-simple reads
        self._derived = None if lower is None else GranularOperatorSpace(universe, granulation)

    @classmethod
    def from_sets(cls, elements: Iterable[str], granules: Iterable[Iterable[str]],
                  parthood: ph.ParthoodVariant = ph.ROUGH_INCLUSION) -> GranularOperatorSpace:
        u = Universe(tuple(elements))
        return cls(u, Granulation.from_sets(u, granules), parthood=parthood)

    def _wrap(self, op: OperatorLike | None) -> Callable[[Region], Region] | None:
        if op is None:
            return None
        if callable(op):
            return op
        table = dict(op)

        def lookup(a: Region) -> Region:
            try:
                return table[a]
            except KeyError:
                raise ValueError(f"operator table has no entry for {a!r}") from None
        return lookup

    @property
    def explicit(self) -> bool:
        return self._lower_op is not None

    def signature_bits(self, bits: int) -> tuple[int, int]:
        """(lower, upper) masks for a region given by its mask; memoized.

        On a derived space a one-element region {e} is read from a table
        built on the first such read, in one pass over the granules:
        lower({e}) is the granule {e} when there is one, else 0, and
        upper({e}) is N(e), the union of the granules that hold e.  That
        costs O(sum of granule sizes) once, where the loop below costs
        O(granules) per element.  Every other region is
        :func:`~granum.core.lower_bits` and :func:`~granum.core.upper_bits`
        in one pass over the granules: only a granule that meets the region
        can lie inside it (an empty one adds nothing to either union).  A
        per-element read of those regions measured 3 to 7 times slower than
        the loop on audit bases (0.16 -> 0.68-1.07 ms for 128 masks on 24
        elements and 8 granules; 4.3-5.8 -> 11.5-19.7 ms for all 4096
        regions on 12 elements), so the path is chosen from the mask:
        exactly one bit set.
        """
        got = self._cache.get(bits)
        if got is not None:
            return got
        if self._lower_op is None:
            if bits and not bits & (bits - 1):
                sig = (self._elements or self._element_signatures())[bits.bit_length() - 1]
            else:
                outside = ~bits
                lo = up = 0
                for g in self._masks:
                    if g & bits:
                        up |= g
                        if not g & outside:
                            lo |= g
                sig = (lo, up)
        else:
            a = Region(self.universe, bits)
            lo, up = self._lower_op(a), self._upper_op(a)
            if lo.universe != self.universe or up.universe != self.universe:
                raise ValueError("explicit operator returned a foreign region")
            sig = (lo.bits, up.bits)
        self._cache[bits] = sig
        return sig

    def _element_signatures(self) -> list[tuple[int, int]]:
        """The (lower, upper) masks of each one-element region {e}, by e,
        kept for later reads.  An empty mask holds no element, and a
        repeated one sets the same bits again."""
        lower = [0] * len(self.universe)
        upper = [0] * len(self.universe)
        for g in self._masks:
            if g and not g & (g - 1):
                lower[g.bit_length() - 1] = g
            for e in ph._bits(g):
                upper[e] |= g
        self._elements = list(zip(lower, upper))
        return self._elements

    def signatures(self, masks: Sequence[int]) -> list[tuple[int, int]]:
        """(lower, upper) masks of each region mask, in order, read mask by
        mask through :meth:`signature_bits`."""
        return [self.signature_bits(bits) for bits in masks]

    def columns(self, masks: Sequence[int]) -> RegionColumns | None:
        """The region-lattice columns when ``masks`` are all 2^n regions in
        ascending order on a derived space (built once and kept), else None."""
        if self._lower_op is not None:
            return None
        n = len(self.universe)
        if not _is_ascending(masks, n):
            return None
        if self._columns is None:
            self._columns = _region_columns(self._masks, n)
        return self._columns

    def lower(self, a: Region) -> Region:
        return Region(self.universe, self.signature_bits(a.bits)[0])

    def upper(self, a: Region) -> Region:
        return Region(self.universe, self.signature_bits(a.bits)[1])

    def signature(self, a: Region) -> tuple[Region, Region]:
        lo, up = self.signature_bits(a.bits)
        return Region(self.universe, lo), Region(self.universe, up)

    def is_definite(self, a: Region) -> bool:
        return self.signature_bits(a.bits) == (a.bits, a.bits)

    def containment_violations(self, cap: int = 10, basis: Basis | None = None) -> list[Region]:
        """Regions where upper does not contain lower, the first ``cap`` of
        them in ``basis`` (default: the axiom audits'); none below a cap of 1.

        Only explicit operators can fail: on a derived space a granule inside
        a region meets it, so the lower lies inside the upper, and the basis
        is checked but not read.
        """
        scanned = (basis or _axiom_basis(len(self.universe))).scan(self.universe)
        if not self.explicit:
            return []
        bad = (bits for bits, (lo, up) in zip(scanned, self.signatures(scanned)) if lo & ~up)
        return [self.universe.region_from_bits(bits) for bits in islice(bad, max(cap, 0))]


@dataclass(frozen=True)
class RegionColumns:
    """One 2^n-bit column per element e of an n-element derived space: bit x
    stands for the region with mask x."""

    everything: int                 # every region
    inside: tuple[int, ...]         # the regions that hold e
    lower: tuple[int, ...]          # the regions whose lower holds e
    upper: tuple[int, ...]          # the regions whose upper holds e
    upper_lower: tuple[int, ...]    # the regions whose upper(lower) holds e

    def side(self, of: Callable[[tuple[int, int]], int], lowered: bool = False) -> list[int]:
        """Per element e, the regions x whose side ``of`` (a side function of
        ``parthood._FORMULAS``) holds e, or whose lower(x)'s side does when
        ``lowered``.  The side functions are bitwise in (lower, upper), so
        they apply to a pair of columns as to a signature.  lower is
        idempotent on a derived space: lower(x)'s lower is lower(x), and its
        upper is upper(lower(x))."""
        up = self.upper_lower if lowered else self.upper
        return list(map(of, zip(self.lower, up)))


def _region_columns(granules: Sequence[int], n: int) -> RegionColumns:
    """The columns of every ``n``-bit region under ``granules``.

    The column of the regions that hold e doubles with each element, as the
    mask range does.  The regions that contain a granule are the AND of its
    elements' columns.  e is in lower(x) iff some granule holding e lies in
    x, and in upper(x) iff x meets N(e), the union of the granules holding
    e; so e is in upper(lower(x)) iff some granule meeting N(e) lies in x.
    Empty and repeated granules add nothing.  O(n^2 + n * granules) integer
    operations on 2^n bits.
    """
    inside: list[int] = []
    for e in range(n):
        size = 1 << e
        inside = [col | col << size for col in inside] + [((1 << size) - 1) << size]
    everything = (1 << (1 << n)) - 1
    above = {g: reduce(and_, map(inside.__getitem__, ph._bits(g)), everything)
             for g in set(granules) - {0}}   # granule -> the regions that contain it
    lower, upper, upper_lower = [], [], []
    for e in range(n):
        near = reduce(or_, (g for g in above if g >> e & 1), 0)   # N(e)
        lower.append(reduce(or_, (col for g, col in above.items() if g >> e & 1), 0))
        upper.append(reduce(or_, (inside[f] for f in ph._bits(near)), 0))
        upper_lower.append(reduce(or_, (col for g, col in above.items() if g & near), 0))
    return RegionColumns(everything, tuple(inside), tuple(lower), tuple(upper),
                         tuple(upper_lower))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom audit, with witnesses for every failure found."""

    axiom: str
    passed: bool
    mode: str                 # exhaustive | sampled
    checked: int
    witnesses: tuple = ()
    details: tuple = ()
    seed: int | None = None

    def _fields(self) -> dict:
        """The layout of :meth:`to_dict`, its regions left as regions."""
        out = {
            "axiom": self.axiom,
            "passed": self.passed,
            "mode": self.mode,
            "checked": self.checked,
            "witnesses": self.witnesses,
        }
        if self.details:
            out["details"] = self.details
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def to_dict(self) -> dict:
        return _jsonify(self._fields())


def _axiom_basis(n: int, seed: int = DEFAULT_SEED) -> Basis:
    """The basis the axiom audits scan unless given one: every region up to
    ``EXHAUSTIVE_UNIVERSE_CAP`` elements, past it ``AUDIT_SAMPLE`` drawn with ``seed``.
    Each audit reports the mode and seed of the basis it scanned."""
    return _region_masks(n, 1 << EXHAUSTIVE_UNIVERSE_CAP, AUDIT_SAMPLE, seed)


def audit_weak_representability(gos: GranularOperatorSpace, basis: Basis | None = None,
                                witness_cap: int = 10) -> AxiomReport:
    """Check that every region's lower and upper map to unions of granules;
    lists the first ``witness_cap`` failures.

    Only explicit operators can fail: a derived space's lower and upper are
    unions of granules, and the basis is checked but not read.  Each
    distinct value of the scanned signatures is tested once.
    """
    basis = basis or _axiom_basis(len(gos.universe))
    scanned = basis.scan(gos.universe)
    if not gos.explicit:
        return AxiomReport("weak-representability", True, basis.mode, len(scanned),
                           seed=basis.seed)
    masks = gos.granulation.masks()
    region = gos.universe.region_from_bits
    sigs = gos.signatures(scanned)
    failing = {v for v in set(chain.from_iterable(sigs)) if lower_bits(v, masks) != v}
    found = ({"region": region(bits), "side": side, "value": region(value)}
             for bits, sig in zip(scanned, sigs)
             for side, value in zip(("lower", "upper"), sig) if value in failing)
    witnesses = tuple(islice(found, max(witness_cap, 0))) if failing else ()
    return AxiomReport("weak-representability", not failing, basis.mode,
                       len(scanned), witnesses, seed=basis.seed)


def audit_lower_stability(gos: GranularOperatorSpace, basis: Basis | None = None,
                          witness_cap: int = 10) -> AxiomReport:
    """For every granule y and region x: parthood y x implies parthood y x^lower;
    lists the first ``witness_cap`` failures.

    The tests read x by its signature in the space that
    :func:`~granum.parthood._subset_tests` names, and x^lower is the lower
    of x's own, so off the region lattice each distinct pair of the two is
    tested once, on one of its regions: 2048 regions sampled from a
    2000-object, 6-block table share one."""
    basis = basis or _axiom_basis(len(gos.universe))
    scanned = basis.scan(gos.universe)
    granules = gos.granulation.granules
    masks = gos.granulation.masks()
    tests, space = ph._subset_tests(gos.parthood, gos)
    cols = gos.columns(scanned)
    if cols is not None:   # bit x of each row is the region x itself
        sigs = gos.signatures(masks)
        of_x = [(x, cols.side(y)) for x, y in tests]
        of_xl = [(x, cols.side(y, lowered=True)) for x, y in tests]
        to_x = ph._column_rows(of_x, sigs, cols.everything)
        to_xl = ph._column_rows(of_xl, sigs, cols.everything)
        at = range(len(scanned))
    else:   # one bit per key: (own signature, the signature the tests read)
        keys = list(zip(gos.signatures(scanned), space.signatures(scanned)))
        first = dict(zip(keys, scanned))   # one scanned region per key
        to_x = ph.relation_rows(gos.parthood, gos, masks, list(first.values()))
        to_xl = ph.relation_rows(gos.parthood, gos, masks, [own[0] for own, _ in first])
        slot = {key: t for t, key in enumerate(first)}
        at = list(map(slot.__getitem__, keys))   # the row bit of each scanned region
    bad = [x & ~xl for x, xl in zip(to_x, to_xl)]   # per granule: row bits that fail
    failing = reduce(or_, bad, 0)
    if failing and cols is None:   # the scanned regions whose row bit fails
        failing = sum(1 << r for r, t in enumerate(at) if failing >> t & 1)
    witnesses: list[dict] = []
    for r in ph._bits(failing):   # region by region, then granule
        if len(witnesses) >= witness_cap:
            break
        region = gos.universe.region_from_bits(scanned[r])
        witnesses += [{"granule": y, "region": region}
                      for y, row in zip(granules, bad) if row >> at[r] & 1]
    return AxiomReport("lower-stability", not any(bad), basis.mode,
                       len(scanned) * len(granules), tuple(witnesses[:witness_cap]),
                       seed=basis.seed)


def audit_full_underlap(gos: GranularOperatorSpace, basis: Basis | None = None) -> AxiomReport:
    """Search, per granule pair, for a definite region of the basis properly above both."""
    basis = basis or _axiom_basis(len(gos.universe))
    scanned = basis.scan(gos.universe)
    granules = gos.granulation.granules
    masks = gos.granulation.masks()
    tests, _ = ph._subset_tests(gos.parthood, gos)
    cols = gos.columns(scanned)
    if cols is not None:   # bit x of each row is the region x itself
        definite = scanned
        exact = cols.everything   # lower(x) is x and upper(x) lies in x
        for col, lo, up in zip(cols.inside, cols.lower, cols.upper):
            exact &= ~(col ^ lo) & ~(up & ~col)
        sigs = gos.signatures(masks)
        above = [(x, cols.side(y)) for x, y in tests]
        up = [exact & row for row in ph._column_rows(above, sigs, cols.everything)]
        # x is part of g when X(x) misses every element outside Y(g)
        below = [(y, cols.side(x)) for x, y in tests]
        elements = (1 << len(gos.universe)) - 1
        down = [cols.everything & ~reduce(or_, (col[e] for y, col in below
                                                for e in ph._bits(elements & ~y(sig))), 0)
                for sig in sigs]
    else:                  # bit k of each row is definite[k]
        definite = [bits for bits, sig in zip(scanned, gos.signatures(scanned))
                    if sig == (bits, bits)]
        up = ph.relation_rows(gos.parthood, gos, masks, definite)
        down = _transpose(ph.relation_rows(gos.parthood, gos, definite, masks), len(masks))
    proper = [u & ~d for u, d in zip(up, down)]   # per granule: definite regions properly above

    def witness(i: int, j: int) -> Region | None:   # the first definite region above both
        k = next(ph._bits(proper[i] & proper[j]), None)
        return None if k is None else gos.universe.region_from_bits(definite[k])

    pairs = [(i, j) for i in range(len(granules)) for j in range(i, len(granules))]
    found = [witness(i, j) for i, j in pairs]
    details = tuple({"pair": [granules[i], granules[j]], "witness": w}
                    for (i, j), w in zip(pairs, found))
    return AxiomReport("full-underlap", all(w is not None for w in found), basis.mode,
                       len(pairs) * len(scanned), (), details=details, seed=basis.seed)


@dataclass(frozen=True)
class RoughClass:
    """A maximal set of regions sharing one (lower, upper) signature."""

    members: tuple[Region, ...]
    lower: Region
    upper: Region

    def representative(self) -> Region:
        return self.members[0]


@dataclass(frozen=True)
class RoughQuotient:
    """Signature classes of all regions, in canonical order of first member."""

    space: GranularOperatorSpace
    classes: tuple[RoughClass, ...]


def rough_objects(gos: GranularOperatorSpace) -> RoughQuotient:
    """Partition all regions into rough-object classes by signature."""
    n = len(gos.universe)
    if n > QUOTIENT_UNIVERSE_CAP:
        raise ValueError(f"universe too large for quotient enumeration (n={n} > {QUOTIENT_UNIVERSE_CAP})")
    # each class enters at its least member: classes come in first-member order
    grouped: dict[tuple[int, int], list[Region]] = {}
    for a, sig in zip(gos.universe.all_regions(), gos.signatures(_ascending(n))):
        grouped.setdefault(sig, []).append(a)
    region = gos.universe.region_from_bits
    return RoughQuotient(gos, tuple(RoughClass(tuple(members), region(lo), region(up))
                                    for (lo, up), members in grouped.items()))


@dataclass(frozen=True)
class BasicRoughOrder:
    """The parthood-induced relation between rough-object classes, as bit
    rows: bit j of ``rows[i]`` is set when class i is part of class j.  Each
    failure check scans the rows as they are."""

    quotient: RoughQuotient
    rows: tuple[int, ...]

    def holds(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def reflexive_failures(self) -> list[int]:
        return list(ph._reflexive_failures(self.rows))

    def transitive_failures(self) -> list[tuple[int, int, int]]:
        """Each (i, j, k) with i -> j, j -> k and i -/-> k, from a scan of the rows."""
        return [(i, j, k) for i, j, escape in ph._transitive_failures(self.rows)
                for k in ph._bits(escape)]

    def antisymmetric_failures(self) -> list[tuple[int, int]]:
        cols = _transpose(self.rows, len(self.rows))
        return list(ph._antisymmetric_failures(self.rows, cols))

    def bottoms(self) -> list[int]:
        full = (1 << len(self.rows)) - 1
        return [i for i, row in enumerate(self.rows) if row == full]

    def tops(self) -> list[int]:
        return list(ph._bits(reduce(and_, self.rows, (1 << len(self.rows)) - 1)))

    def is_bounded(self) -> bool:
        return bool(self.bottoms()) and bool(self.tops())


def basic_rough_order(q: RoughQuotient) -> BasicRoughOrder:
    """Order the quotient by the space's parthood over class members: class
    i is part of class j when every member of i is part of every member of
    j.  ``count`` and ``oracle`` read this order for ``--items
    rough-objects``; no property of its rows is checked here.

    One kernel call decides every class pair.  The variant is a conjunction
    of subset tests, and for one test, ``X(a) <= Y(b)`` for every a in i and
    b in j iff each X(a) lies inside the intersection of Y over j, iff the
    union of X over i does.  So each test gets one X mask per class, the
    union, and the columns of the per-class intersections, which
    :func:`~granum.parthood._column_rows` ANDs.  A class's members share
    its signature, so where the space's own decide, one stands for all.
    """
    gos = q.space
    tests, space = ph._subset_tests(gos.parthood, gos)
    if space is gos:   # a class's members share its signature
        groups = [[(c.lower.bits, c.upper.bits)] for c in q.classes]
    else:
        groups = [space.signatures([a.bits for a in c.members]) for c in q.classes]
    columns = []
    for x, y in tests:
        unions = [reduce(or_, map(x, sigs)) for sigs in groups]
        meets = [reduce(and_, map(y, sigs)) for sigs in groups]
        columns.append((unions.__getitem__, _transpose(meets, len(gos.universe))))
    k = len(groups)
    return BasicRoughOrder(q, tuple(ph._column_rows(columns, range(k), (1 << k) - 1)))


@dataclass(frozen=True)
class KnowledgeValidity:
    """Stability equations that must hold for approximations to read as knowledge."""

    region: Region
    equations: tuple[dict, ...]

    @property
    def all_hold(self) -> bool:
        return all(e["holds"] for e in self.equations)

    def to_dict(self) -> dict:
        return {
            "region": _jsonify(self.region),
            "equations": [_jsonify(e) for e in self.equations],
            "all_hold": self.all_hold,
        }


def knowledge_validity_check(a: Region, gos: GranularOperatorSpace) -> KnowledgeValidity:
    """Evaluate lower/upper stability of one region: ll=l, lu=l and uu=u."""
    lo, up = gos.signature(a)
    ll = gos.lower(lo)
    lu = gos.upper(lo)
    uu = gos.upper(up)
    eqs = (
        {"name": "lower-idempotent", "holds": ll == lo, "lhs": ll, "rhs": lo},
        {"name": "lower-upper-stable", "holds": lu == lo, "lhs": lu, "rhs": lo},
        {"name": "upper-idempotent", "holds": uu == up, "lhs": uu, "rhs": up},
    )
    return KnowledgeValidity(a, eqs)


@dataclass(frozen=True)
class PartitionWitness:
    """A partition plus one realizing region per requested signature pair."""

    partition: IndiscernibilityRelation
    realizations: tuple[Region, ...]

    def replays(self, pairs: Sequence[tuple[Region, Region]]) -> bool:
        """Recompute each realization's signature and compare exactly."""
        g = self.partition.granulation()
        for region, (lo, up) in zip(self.realizations, pairs):
            if lower_approx(region, g) != lo or upper_approx(region, g) != up:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "partition": [sorted(b) for b in self.partition.blocks],
            "realizations": [{"pair": i, "region": sorted(r)}
                             for i, r in enumerate(self.realizations)],
        }


def rough_origin(pairs: Sequence[tuple[Region, Region]],
                 universe: Universe) -> PartitionWitness | None:
    """Decide whether some partition realizes every (lower, upper) pair.

    Every lower and upper region of a witness is a union of its blocks, so a
    witness refines the atoms of the Boolean algebra the regions generate.
    Merging the blocks inside one atom keeps every region a union of blocks
    and only enlarges boundary blocks.  Hence the family is realizable
    exactly when every pair is nested and every atom inside some boundary
    ``up \\ lo`` has at least two elements, and then the atom partition is
    a witness.  With its blocks in least-element order it is the first
    witness in restricted-growth order, the one
    :func:`granum.oracles.inverse_rough_check` finds by scanning; each
    realization adds the least element of every boundary atom to the lower
    region.  O(n * pairs) on masks, for universes of any size.
    """
    for lo, up in pairs:
        if lo.universe != universe or up.universe != universe:
            raise ValueError("pair regions must live in the given universe")
    masks = [(lo.bits, up.bits) for lo, up in pairs]
    if any(lo & ~up for lo, up in masks):
        return None
    atoms = [(1 << len(universe)) - 1]
    for lo, up in masks:
        for m in (lo, up):
            atoms = [part for a in atoms for part in (a & m, a & ~m) if part]
    atoms.sort(key=lambda a: a & -a)
    realizations = []
    for lo, up in masks:
        bits = lo
        for a in atoms:
            if a & up and not a & lo:
                if a.bit_count() < 2:
                    return None   # a one-element boundary block cannot stay proper
                bits |= a & -a
        realizations.append(universe.region_from_bits(bits))
    blocks = tuple(universe.region_from_bits(a) for a in atoms)
    return PartitionWitness(IndiscernibilityRelation(universe, blocks), tuple(realizations))
