"""Finite universes, regions, information tables and approximation operators.

Regions are immutable bit-vector subsets of a fixed universe.  Granulations
are finite families of nonempty regions (they may overlap and need not cover
the universe); the lower/upper approximation of a region is the union of the
granules contained in it / meeting it.  Partition granulations recover the
classical operators.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

DEFAULT_SEED = 1729


class ParseError(ValueError):
    """Raised when an information table or context file is malformed."""


@dataclass(frozen=True)
class Universe:
    """Ordered finite set of distinct object identifiers.

    Element order is fixed at construction: it is the canonical order used
    by counting procedures and report serialization.
    """

    elements: tuple[str, ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) == 0:
            raise ValueError("universe must contain at least one element")
        positions = {e: i for i, e in enumerate(self.elements)}
        if len(positions) != len(self.elements):
            dupes = sorted({e for e in self.elements if self.elements.count(e) > 1})
            raise ValueError(f"duplicate element identifiers: {dupes}")
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def index(self, element: str) -> int:
        try:
            return self._positions[element]
        except (KeyError, TypeError):   # TypeError: an unhashable id is unknown too
            raise ValueError(f"unknown element {element!r}") from None

    def region(self, members: Iterable[str] = ()) -> Region:
        positions = self._positions
        bits = 0
        for m in members:
            try:
                bits |= 1 << positions[m]
            except (KeyError, TypeError):   # as in index
                raise ValueError(f"unknown element {m!r}") from None
        return Region(self, bits)

    def region_from_bits(self, bits: int) -> Region:
        return Region(self, bits)

    def empty_region(self) -> Region:
        return Region(self, 0)

    def full_region(self) -> Region:
        return Region(self, (1 << len(self.elements)) - 1)

    def all_regions(self) -> Iterator[Region]:
        """All 2^n regions, in canonical (ascending bit-pattern) order."""
        for bits in range(1 << len(self.elements)):
            yield Region(self, bits)


@dataclass(frozen=True, slots=True)
class Region:
    """A subset of a universe, stored as a characteristic bit mask.

    Bit i corresponds to ``universe.elements[i]``.  All set algebra stays
    inside the one universe; mixing universes raises ``ValueError``.
    """

    universe: Universe
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << len(self.universe)):
            raise ValueError("region mask out of range for universe")

    def _check(self, other: Region) -> None:
        if self.universe != other.universe:
            raise ValueError("regions belong to different universes")

    def __or__(self, other: Region) -> Region:
        self._check(other)
        return Region(self.universe, self.bits | other.bits)

    def __and__(self, other: Region) -> Region:
        self._check(other)
        return Region(self.universe, self.bits & other.bits)

    def __sub__(self, other: Region) -> Region:
        self._check(other)
        return Region(self.universe, self.bits & ~other.bits)

    def complement(self) -> Region:
        full = (1 << len(self.universe)) - 1
        return Region(self.universe, full & ~self.bits)

    def issubset(self, other: Region) -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: Region) -> bool:
        return self.issubset(other)

    def __lt__(self, other: Region) -> bool:
        return self.issubset(other) and self.bits != other.bits

    def __contains__(self, element: str) -> bool:
        return bool(self.bits >> self.universe.index(element) & 1)

    def __iter__(self) -> Iterator[str]:
        elements = self.universe.elements
        rest = self.bits
        while rest:
            low = rest & -rest
            yield elements[low.bit_length() - 1]
            rest ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def __repr__(self) -> str:
        return "Region{%s}" % ", ".join(self)


@dataclass(frozen=True)
class Granulation:
    """A finite family of nonempty granules over one universe.

    Granules may overlap and need not cover the universe; duplicates are
    rejected.  A partition is the special case of disjoint covering granules.
    """

    universe: Universe
    granules: tuple[Region, ...]

    def __post_init__(self):
        if not isinstance(self.granules, tuple):
            object.__setattr__(self, "granules", tuple(self.granules))
        if not self.granules:
            raise ValueError("granulation must contain at least one granule")
        seen = set()
        for g in self.granules:
            if g.universe is not self.universe and g.universe != self.universe:
                raise ValueError("granule universe differs from granulation universe")
            if g.bits == 0:
                raise ValueError("granules must be nonempty")
            if g.bits in seen:
                raise ValueError(f"duplicate granule {g!r}")
            seen.add(g.bits)

    @classmethod
    def from_sets(cls, universe: Universe, sets: Iterable[Iterable[str]]) -> Granulation:
        return cls(universe, tuple(universe.region(s) for s in sets))

    @classmethod
    def from_partition(cls, partition: IndiscernibilityRelation) -> Granulation:
        return cls(partition.universe, partition.blocks)

    def masks(self) -> tuple[int, ...]:
        return tuple(g.bits for g in self.granules)

    def is_partition(self) -> bool:
        total = 0
        for g in self.granules:
            if total & g.bits:
                return False
            total |= g.bits
        return total == (1 << len(self.universe)) - 1


@dataclass(frozen=True)
class IndiscernibilityRelation:
    """An equivalence relation given by its partition into blocks."""

    universe: Universe
    blocks: tuple[Region, ...]

    def __post_init__(self):
        if not isinstance(self.blocks, tuple):
            object.__setattr__(self, "blocks", tuple(self.blocks))
        total = 0
        for b in self.blocks:
            if b.universe is not self.universe and b.universe != self.universe:
                raise ValueError("block universe differs from relation universe")
            if b.bits == 0:
                raise ValueError("partition blocks must be nonempty")
            if total & b.bits:
                raise ValueError("partition blocks must be pairwise disjoint")
            total |= b.bits
        if total != (1 << len(self.universe)) - 1:
            raise ValueError("partition blocks must cover the universe")

    @classmethod
    def from_sets(cls, universe: Universe, sets: Iterable[Iterable[str]]) -> IndiscernibilityRelation:
        return cls(universe, tuple(universe.region(s) for s in sets))

    def granulation(self) -> Granulation:
        return Granulation.from_partition(self)


@dataclass(frozen=True, eq=False)
class InformationTable:
    """Total attribute-value table over a universe of objects.

    Values are opaque tokens compared for equality only.
    """

    objects: Universe
    attributes: tuple[str, ...]
    values: dict[str, dict[str, str]] = field(repr=False)  # attribute -> object -> token

    def value(self, attribute: str, obj: str) -> str:
        try:
            col = self.values[attribute]
        except KeyError:
            raise ValueError(f"unknown attribute {attribute!r}") from None
        try:
            return col[obj]
        except KeyError:
            raise ValueError(f"unknown object {obj!r}") from None


def parse_information_table(source: str | io.TextIOBase, format: str = "csv") -> InformationTable:
    """Parse a table from CSV (header ``id,attr,...``) or the JSON row format.

    JSON form: ``{"attributes": [...], "objects": [["id", v1, ...], ...]}``.
    Raises :class:`ParseError` naming the offending row/column on duplicate
    ids, ragged rows, or missing values.
    """
    text = source.read() if hasattr(source, "read") else source
    if format == "json":
        return _table_from_json(_decode_json(text))
    if format != "csv":
        raise ParseError(f"unknown table format {format!r}")
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]  # ignore blank lines
    if not rows:
        raise ParseError("empty input: no header row")
    header = rows[0]
    if not header or header[0] != "id":
        raise ParseError("first column of the header must be 'id'")
    return _table(tuple(header[1:]), rows[1:], 2)


def _table_from_json(doc) -> InformationTable:
    """The table of a decoded JSON table document."""
    if not isinstance(doc, dict) or "attributes" not in doc or "objects" not in doc:
        raise ParseError("JSON table must have 'attributes' and 'objects' keys")
    attributes = tuple(str(a) for a in _list_field(doc, "attributes"))
    body = [[str(v) for v in row] for row in _list_field(doc, "objects", nested=True)]
    return _table(attributes, body, 1)


def _table(attributes: tuple[str, ...], body: list[list[str]], first: int) -> InformationTable:
    """The table of ``body``'s rows, numbered from ``first`` in error messages."""
    if not body:
        raise ParseError("no objects: table body is empty")

    ids: list[str] = []
    values: dict[str, dict[str, str]] = {a: {} for a in attributes}
    width = 1 + len(attributes)
    for n, row in enumerate(body, start=first):
        if len(row) < width:
            missing = attributes[len(row) - 1] if row else attributes[0]
            raise ParseError(f"row {n}: missing value for column {missing!r}")
        if len(row) > width:
            raise ParseError(f"row {n}: expected {width} values, got {len(row)}")
        oid = row[0]
        if oid in ids:
            raise ParseError(f"row {n}: duplicate object id {oid!r}")
        ids.append(oid)
        for a, v in zip(attributes, row[1:]):
            values[a][oid] = v
    return InformationTable(Universe(tuple(ids)), attributes, values)


def parse_context(source: str | io.TextIOBase) -> tuple[Universe, Granulation]:
    """Parse a JSON context: ``{"universe": [...], "granules": [[...], ...]}``.

    A ``"partition"`` key may be used instead of ``"granules"``; it is
    validated as a partition before being taken as the granulation.
    """
    text = source.read() if hasattr(source, "read") else source
    return _context_from_json(_decode_json(text))


def _context_from_json(doc) -> tuple[Universe, Granulation]:
    """The universe and granulation of a decoded JSON context document."""
    if not isinstance(doc, dict) or "universe" not in doc:
        raise ParseError("context must be an object with a 'universe' key")
    universe = Universe(tuple(str(e) for e in _list_field(doc, "universe")))
    if ("granules" in doc) == ("partition" in doc):
        raise ParseError("context needs exactly one of 'granules' or 'partition'")
    try:
        if "granules" in doc:
            gran = Granulation.from_sets(universe, _list_field(doc, "granules", nested=True))
        else:
            blocks = _list_field(doc, "partition", nested=True)
            gran = IndiscernibilityRelation.from_sets(universe, blocks).granulation()
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return universe, gran


def _decode_json(text: str):
    """The value of a JSON text; invalid JSON raises :class:`ParseError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def indiscernibility_partition(table: InformationTable, attrs: Iterable[str]) -> IndiscernibilityRelation:
    """Group objects that agree on every attribute in ``attrs``.

    Blocks are ordered by first occurrence of a member in the universe order.
    """
    attrs = tuple(attrs)
    if not attrs:
        raise ValueError("attribute subset must be nonempty")
    for a in attrs:
        if a not in table.attributes:
            raise ValueError(f"unknown attribute {a!r}")
    groups: dict[tuple[str, ...], list[str]] = {}
    for obj in table.objects:
        key = tuple(table.values[a][obj] for a in attrs)
        groups.setdefault(key, []).append(obj)
    blocks = tuple(table.objects.region(g) for g in groups.values())
    return IndiscernibilityRelation(table.objects, blocks)


def _list_field(doc: dict, key: str, nested: bool = False) -> list:
    """``doc[key]``, refused with a ParseError unless it is a list (of lists)."""
    value = doc[key]
    if not isinstance(value, list) or nested and not all(isinstance(v, list) for v in value):
        raise ParseError(f"{key!r} must be a list" + (" of lists" if nested else ""))
    return value


_json_quote = json.encoder.encode_basestring_ascii
# The JSON text of each scalar, dispatched on its exact type: the JSON
# writers (``cli._json_text``, ``CountingTrace.json_text``) write nothing else
# as a leaf.
_JSON_SCALARS = {str: _json_quote, int: int.__repr__,
                 bool: {True: "true", False: "false"}.__getitem__,
                 type(None): lambda _: "null"}


def _jsonify(x):
    """Report values as JSON: regions become sorted member lists."""
    if isinstance(x, Region):
        return sorted(x)
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _json_list(texts: Iterable[str], inner: str) -> str:
    """The JSON list of element ``texts``, one per line at indent ``inner``."""
    body = ("," + inner).join(texts)
    return "[" + inner + body + inner[:-2] + "]" if body else "[]"


class _ReportTexts:
    """The JSON texts of report values for one write: :meth:`value` is
    ``cli._json_text(_jsonify(x), indent)``, byte for byte, where ``indent``
    is the newline and indentation the value's closing bracket sits at.

    A region is the list of its member names, sorted, as ``_jsonify``
    writes it (name order, not universe order).  The regions of one
    universe, the first one written, are kept per indent by mask, so each
    distinct region is sorted and quoted once per indent; a region of any
    other universe is written afresh each time, since its mask means other
    members.  A dict is written by a %-template kept per key tuple and
    indent, its keys sorted and quoted once.
    """

    def __init__(self):
        self.universe: Universe | None = None
        self._regions: dict[str, dict[int, str]] = {}   # indent -> mask -> text
        self._forms: dict[tuple, tuple[tuple, str]] = {}   # (keys, indent) -> sorted, template

    def value(self, x, indent: str) -> str:
        """The JSON text of ``_jsonify(x)``.  A type that writer refuses, or a
        dict key that is not a string, raises ``TypeError``."""
        if isinstance(x, Region):
            if x.universe is not self.universe:
                if self.universe is not None:
                    return _region_text(x, indent)
                self.universe = x.universe
            done = self._regions.get(indent)
            if done is None:
                done = self._regions[indent] = {}
            text = done.get(x.bits)
            if text is None:
                text = done[x.bits] = _region_text(x, indent)
            return text
        scalar = _JSON_SCALARS.get(type(x))
        if scalar is not None:
            return scalar(x)
        inner = indent + "  "
        if isinstance(x, dict):
            if not x:
                return "{}"
            keys = tuple(x)
            got = self._forms.get((keys, indent))
            if got is None:
                order = tuple(sorted(keys))
                got = self._forms[keys, indent] = order, "{" + ",".join(
                    inner + _json_quote(k).replace("%", "%%") + ": %s" for k in order
                ) + indent + "}"
            order, form = got
            items = map(x.__getitem__, order)
        elif isinstance(x, (list, tuple)):
            form, items = None, x
        else:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        # the items' texts; regions of the table's universe, most of a
        # report's values, are read here without a call
        universe = self.universe
        done = self._regions.get(inner)
        if done is None:
            done = self._regions[inner] = {}
        texts = []
        for v in items:
            if type(v) is Region and v.universe is universe:
                text = done.get(v.bits)
                if text is None:
                    text = done[v.bits] = _region_text(v, inner)
            else:
                text = self.value(v, inner)
            texts.append(text)
        return _json_list(texts, inner) if form is None else form % tuple(texts)


def _region_text(r: Region, indent: str) -> str:
    """The JSON list of ``r``'s member names, sorted, its closing bracket at ``indent``."""
    return _json_list(map(_json_quote, sorted(r)), indent + "  ")


@dataclass(frozen=True)
class Basis:
    """The region masks an audit scans: all 2^n, ascending ("exhaustive", seed
    None), or distinct ones drawn with ``seed``, sorted ("sampled")."""

    masks: list[int]
    mode: str
    seed: int | None

    def __post_init__(self):
        if (self.mode, self.seed is None) not in (("exhaustive", True), ("sampled", False)):
            raise ValueError("a basis is exhaustive without a seed or sampled with one, "
                             f"not {self.mode!r} with seed {self.seed!r}")

    def scan(self, universe: Universe) -> list[int]:
        """The masks, refused when an exhaustive basis misses regions of ``universe``."""
        if self.mode == "exhaustive" and len(self.masks) != 1 << len(universe):
            raise ValueError(f"an exhaustive basis of {len(self.masks)} masks cannot hold "
                             f"all regions of {len(universe)} elements")
        return self.masks


@functools.cache
def _ascending(n: int) -> list[int]:
    """All ``n``-bit masks in ascending order: one shared list per ``n``,
    never to be changed.  Exhaustive bases are copies of it, so comparing
    one with it meets the same int objects and takes one C-level pass."""
    return list(range(1 << n))


def _is_ascending(masks: list[int], n: int) -> bool:
    """Whether ``masks`` are all 2^n regions of ``n`` elements, ascending."""
    return len(masks) == 1 << n and masks == _ascending(n)


def _region_masks(n: int, limit: int, sample: int, seed: int) -> Basis:
    """The basis of ``n``-bit masks: all 2^n if at most ``limit``, else
    ``sample`` distinct ones drawn with ``seed``."""
    total = 1 << n
    if total <= limit:
        return Basis(list(_ascending(n)), "exhaustive", None)
    if sample < 1:
        raise ValueError("budget must be >= 1")
    rng = random.Random(seed)
    if total <= sys.maxsize:
        return Basis(sorted(rng.sample(range(total), sample)), "sampled", seed)
    # range(total) has no len() here, so rng.sample cannot draw from it.
    seen: set[int] = set()
    while len(seen) < sample:
        seen.add(rng.getrandbits(n))
    return Basis(sorted(seen), "sampled", seed)


TILE_BITS = 1 << 10   # past this many rows or columns _transpose works in tiles


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The ``width`` columns of a bit matrix of ``width``-bit rows: bit i of
    column j is bit j of row i.

    The matrix is padded to ``size`` = 2^k rows of ``blocks * size`` bits,
    with k = (max(len(rows), 8) - 1).bit_length(): ``blocks`` square blocks
    side by side, as many as the width needs, packed row-major into one int.
    Then k delta swaps, for s = size/2 down to 1, exchange bit s of the row
    index with bit s of the column index within the block, in every block
    at once.  This takes O(k) big-int operations on blocks * size^2 bits,
    whatever the bits set, so 6 rows of 1000 bits take 125 blocks of 8 x 8
    bits, not one of 1024 x 1024.  Column ``b * size + j`` comes out as
    chunk ``j * blocks + b`` of ``size`` bits of the packed int, at about
    0.3 microseconds a column whatever the rows.

    A matrix with more than ``TILE_BITS`` rows or columns is cut into tiles
    of ``TILE_BITS`` rows by as many columns, each transposed so, and column
    j is the OR of its tile columns shifted to their row offsets.  Only the
    swap masks of at most 2^20 bits are thus ever built; they are kept: the
    k square masks of 2^(2k-3) bytes for each k <= 10, 1.6 MiB for all of
    them, and those of the wide shapes met, where one packed transpose at
    k = 13 would need 104 MiB.
    """
    if max(len(rows), width) > TILE_BITS:
        bands = [rows[i:i + TILE_BITS] for i in range(0, max(len(rows), 1), TILE_BITS)]
        cols = []
        for j in range(0, width, TILE_BITS):
            w = min(TILE_BITS, width - j)
            low = (1 << w) - 1
            tiles = [_transpose([row >> j & low for row in band], w) for band in bands]
            cols += tiles[0] if len(tiles) == 1 else [
                sum(c << (i * TILE_BITS) for i, c in enumerate(parts)) for parts in zip(*tiles)]
        return cols
    k = (max(len(rows), 8) - 1).bit_length()
    size, step = 1 << k, 1 << k - 3   # step: bytes per block row
    blocks = -(-width // size) or 1
    line = step * blocks              # bytes per packed row
    x = int.from_bytes(b"".join([row.to_bytes(line, "little") for row in rows]), "little")
    for d, mask in _swap_masks(k, blocks):
        t = (x ^ (x >> d)) & mask
        x ^= t ^ (t << d)
    data = x.to_bytes(line << k, "little")
    return [int.from_bytes(data[p:p + step], "little")
            for b in range(blocks) for p in range(b * step, min(width - b * size, size) * line, line)]


@functools.cache
def _swap_masks(k: int, blocks: int = 1) -> tuple[tuple[int, int], ...]:
    """``(d, mask)`` for each delta swap of :func:`_transpose` at size 2^k
    with ``blocks`` blocks per row, s = size/2 first.  With W = blocks *
    size bits per row, d = s * (W - 1), and the mask holds bit ``i * W + c``
    when bit s of c is set and bit s of i is not: the lower bit of each
    pair to swap.  Each is built as bytes, a zero row or the column pattern
    per row."""
    size, step = 1 << k, 1 << k - 3
    zero = bytes(step * blocks)
    masks = []
    for s in (1 << t for t in reversed(range(k))):
        cols = bytes(sum(1 << j for j in range(8) if (8 * b + j) & s) for b in range(step))
        rows = b"".join(zero if i & s else cols * blocks for i in range(size))
        masks.append((s * (size * blocks - 1), int.from_bytes(rows, "little")))
    return tuple(masks)


def lower_bits(bits: int, masks: Iterable[int]) -> int:
    """Union of granule masks contained in ``bits``."""
    out = 0
    for m in masks:
        if m & ~bits == 0:
            out |= m
    return out


def upper_bits(bits: int, masks: Iterable[int]) -> int:
    """Union of granule masks meeting ``bits``."""
    out = 0
    for m in masks:
        if m & bits:
            out |= m
    return out


def lower_approx(a: Region, g: Granulation) -> Region:
    """Union of all granules contained in ``a``."""
    if a.universe != g.universe:
        raise ValueError("region and granulation universes differ")
    return Region(a.universe, lower_bits(a.bits, g.masks()))


def upper_approx(a: Region, g: Granulation) -> Region:
    """Union of all granules meeting ``a``."""
    if a.universe != g.universe:
        raise ValueError("region and granulation universes differ")
    return Region(a.universe, upper_bits(a.bits, g.masks()))


def rough_inclusion(a: Region, b: Region, g: Granulation) -> bool:
    """True when both the lower and upper approximations are nested."""
    return (lower_approx(a, g).issubset(lower_approx(b, g))
            and upper_approx(a, g).issubset(upper_approx(b, g)))


def rough_equality(a: Region, b: Region, g: Granulation) -> bool:
    """True when the two regions have identical approximation signatures."""
    return (lower_approx(a, g) == lower_approx(b, g)
            and upper_approx(a, g) == upper_approx(b, g))
