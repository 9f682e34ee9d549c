"""Order-sensitive counting procedures that carve collections into antichains.

Four procedures are implemented over a finite ordered collection and a
symmetric conflict relation:

* ``hpc_count``   - primitive counting with full history: successor labels
                    within a run of pairwise-unrelated elements, a fresh type
                    whenever history shows a relation.
* ``pca_count``   - first-fit assignment into conflict-free categories with
                    per-category running count labels.
* ``hpca_count``  - builds one greedy category per pass; elements rejected by
                    the first pass receive deferred markers that seed later
                    passes over rotated orders, until the collection is
                    covered or the markers run out.
* ``fhca_count``  - full-history counting; hpca is coherent on every
                    symmetric, irreflexive conflict, so this is the hpca run
                    relabelled.

Every run is deterministic in (sequence, conflict), and the trace records
enough to replay each pass rule by rule.  Labels are shared immutable
values: ``count_label``, ``deferred_label`` and ``successor_label`` hand
out one instance per argument tuple from a bounded cache, so the runs of
one process build each label once.

Each procedure works on the conflict's bit rows over the sequence: bit j of
row i is set when item i conflicts with item j.  A caller that already holds
them passes ``rows=`` and the conflict callback is never read, so it may be
``None``; otherwise the rows are built from one call per ordered pair, n²
calls in all.  Either way they are refused, with the first witness, unless
irreflexive (hpc never reads the diagonal) and symmetric.
``verify_decomposition`` re-checks a run on masks too, and reads the relation as it is; its pair-by-pair form,
asking the callback lazily, is :func:`granum.oracles.verify_decomposition_by_calls`,
the tests' reference.

Every greedy pass (of hpca and fhca) is one kernel that scans a rotation
of the sequence, the sequence itself for pass 1.  It visits only the pass's
members, the lowest unblocked position in turn, and slices the rejected
items out of the order between them; its item-by-item form is
:func:`granum.oracles.greedy_pass_by_scan`, the tests' reference.  Each
rotation records the sequence it rotated and its start, and the trace's
writer takes the order's text from that record, without rebuilding the
rotation to compare it.

``CountingTrace.write_json`` and ``AntichainDecomposition.write_json``
append their JSON, in pieces, to the writer's list straight from the run,
without building the dict tree of ``to_dict``.  They are the only objects
that write themselves: the one JSON writer, ``core._json_pieces``, calls
them with its piece list and its table of item texts for the whole
payload.  The sections that grow as n² (labels, orders, passes) go out
entry by entry, each order's text one shared piece, so no string of the
payload's size is built; ``json_text`` is the join, for library callers.
``to_dict`` through the writer is their reference, byte for byte.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .core import _json_list, _json_quote, _json_text, _ReportTexts, _transpose

Item = Hashable
ConflictFn = Callable[[Item, Item], bool]


@dataclass(frozen=True)
class OrderArrangement:
    """A total order on the counted collection, with its provenance."""

    sequence: tuple
    origin: str = "canonical"

    def __post_init__(self):
        if not isinstance(self.sequence, tuple):
            object.__setattr__(self, "sequence", tuple(self.sequence))
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("arrangement contains duplicate items")

    def rotate(self, position: int) -> OrderArrangement:
        """Rotation starting at 1-based ``position`` of this arrangement.

        A rotation of a duplicate-free sequence has no duplicates, so it is
        built without the constructor's check, a set of all n items.  It
        keeps ``_rotation`` = (this sequence, 0-based start, the tuple
        built), outside the fields: ``CountingTrace.write_json`` writes the
        order as two slices of the collection's text when that record still
        describes its ``sequence``.
        """
        if not 1 <= position <= len(self.sequence):
            raise ValueError(f"rotation position {position} out of range")
        base = self.sequence
        start = position - 1
        rotated = object.__new__(OrderArrangement)
        built = base[start:] + base[:start]
        object.__setattr__(rotated, "sequence", built)
        object.__setattr__(rotated, "origin", f"rotation({position})")
        object.__setattr__(rotated, "_rotation", (base, start, built))
        return rotated


def arrangement(items: Iterable[Item]) -> OrderArrangement:
    return OrderArrangement(tuple(items))


@dataclass(frozen=True)
class CountLabel:
    """One counting label: k_j (count), T_j (deferred) or s^r(1_j) (successor)."""

    form: str          # count | deferred | successor
    type_index: int    # j
    count: int = 0     # k, for count labels
    power: int = 0     # r, for successor labels

    def __post_init__(self):
        if self.form not in ("count", "deferred", "successor"):
            raise ValueError(f"unknown label form {self.form!r}")
        if self.type_index < 1:
            raise ValueError("type index must be >= 1")
        if self.form == "count" and self.count < 1:
            raise ValueError("count must be >= 1")
        if self.form == "successor" and self.power < 0:
            raise ValueError("successor power must be >= 0")

    def render(self) -> str:
        if self.form == "count":
            return f"{self.count}_{self.type_index}"
        if self.form == "deferred":
            return f"T_{self.type_index}"
        if self.power == 0:
            return f"1_{self.type_index}"
        if self.power == 1:
            return f"s(1_{self.type_index})"
        return f"s^{self.power}(1_{self.type_index})"

    def to_dict(self) -> dict:
        out = {"form": self.form, "type": self.type_index, "text": self.render()}
        if self.form == "count":
            out["count"] = self.count
        if self.form == "successor":
            out["power"] = self.power
        return out


# The label constructors hand out shared instances: a label is frozen, and a
# run builds one per assignment, mostly the same few (1_1, 2_1, ...) run after
# run.  ``typed=True`` keeps ``True`` and ``1`` apart, so ``count_label(1, 1)``
# never gets the label built for ``count_label(True, 1)``.  A refused label
# raises on every call: the cache stores no exception.
@functools.lru_cache(maxsize=4096, typed=True)
def count_label(count: int, type_index: int) -> CountLabel:
    return CountLabel("count", type_index, count=count)


@functools.lru_cache(maxsize=4096, typed=True)
def deferred_label(type_index: int) -> CountLabel:
    return CountLabel("deferred", type_index)


@functools.lru_cache(maxsize=4096, typed=True)
def successor_label(power: int, type_index: int) -> CountLabel:
    return CountLabel("successor", type_index, power=power)


@dataclass(frozen=True)
class Category:
    index: int
    members: tuple

    def __contains__(self, item) -> bool:
        return item in self.members


@dataclass(frozen=True)
class PassRecord:
    """Everything one pass did: order scanned, assignments, rejections."""

    number: int
    order: OrderArrangement
    start: Item | None
    assigned: tuple            # (item, CountLabel) in scan order
    rejected: tuple            # items refused by this pass, in scan order
    category_index: int | None  # None when the pass result was discarded
    retained: bool = True

    def to_dict(self) -> dict:
        return {
            "pass": self.number,
            "order": list(self.order.sequence),
            "origin": self.order.origin,
            "start": self.start,
            "assigned": [[item, lab.to_dict()] for item, lab in self.assigned],
            "rejected": list(self.rejected),
            "category": self.category_index,
            "retained": self.retained,
        }


@dataclass
class CountingTrace:
    """Labeled outcome of a counting run."""

    algorithm: str
    orders: list[OrderArrangement]
    labels: dict[Item, list[tuple[int, CountLabel]]]   # item -> [(pass, label)]
    categories: list[Category]
    passes: list[PassRecord] = field(default_factory=list)
    incomplete: bool = False   # no procedure sets it: every run covers its collection

    @property
    def collection(self) -> tuple:
        return self.orders[0].sequence

    def label_history(self, item: Item) -> list[CountLabel]:
        return [lab for _, lab in self.labels.get(item, [])]

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "orders": [{"sequence": list(o.sequence), "origin": o.origin}
                       for o in self.orders],
            "labels": {key: [{"pass": p, **lab.to_dict()} for p, lab in
                             self.labels.get(x, [])]
                       for key, x in _label_keys(self.collection).items()},
            "categories": [{"index": c.index, "members": list(c.members)}
                           for c in self.categories],
            "passes": [p.to_dict() for p in self.passes],
            "incomplete": self.incomplete,
        }

    def json_text(self, indent: str = "\n") -> str:
        """``core._json_text(self.to_dict(), indent)``: the join of
        :meth:`write_json`'s pieces, for callers that want the text whole."""
        return _json_text(self, indent)

    def write_json(self, out: list[str], indent: str, text: _ReportTexts) -> None:
        """Append the pieces of ``core._json_text(self.to_dict(), indent)`` to
        ``out``, written without the dict tree.

        ``indent`` is the newline and indentation the trace's closing brace
        sits at; ``text`` is the writer's table for the payload the trace is
        part of.  Items are written as the writer writes scalars (str, int,
        bool, None); any other item type raises ``TypeError``.

        The sections that grow as n², the labels, orders and passes, go out
        entry by entry: no piece holds more than one order's text, one
        item's label list or one pass's assigned pairs.  Each order's text
        is built once and is the same piece in ``orders`` and in every pass
        that scanned it.

        Every order sits at the same depth, so the canonical order's item
        texts are joined once, and each item's offset into that text is
        kept.  An order that is a rotation of the canonical one is two
        slices of it when :meth:`OrderArrangement.rotate` built it from the
        collection, as every pass order of hpca and fhca is: its record
        carries its start.  Any other order is joined item by item, which
        writes the same bytes.  A pass's ``rejected`` list is its order
        minus its members, in scan order, so a pass that takes only its
        order's first item rejects the rest of the order: when ``rejected``
        equals the order minus its first item, its text is one slice of the
        order's text.  Any other ``rejected`` list is joined item by item.
        (Slicing out the gaps between several members costs about a
        microsecond per member, and it lost to the join on every such pass
        of the count benchmark, 6 to 39 members: see BENCH_21.json.)  Each
        category's member list is written once per table and depth; each
        label is one %-template per form.
        """
        i1 = indent + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        i4 = i3 + "  "
        i5 = i4 + "  "
        collection = self.collection
        sep = "," + i4
        lsep = len(sep)
        item_texts = list(map(text.__getitem__, collection))
        body = sep.join(item_texts)
        orders: dict[int, str] = {}   # id of an order -> its list text
        at: list[int] = []     # position -> offset of its text in body

        def start(order: OrderArrangement) -> int | None:
            """The 0-based start of ``order`` when :meth:`OrderArrangement.rotate`
            built it from the collection, else ``None``."""
            record = getattr(order, "_rotation", None)
            if record is not None and record[0] is collection and record[2] is order.sequence:
                return record[1]
            return None

        def arranged(order: OrderArrangement) -> str:
            """The list text of ``order`` at depth 4."""
            got = orders.get(id(order))
            if got is None:
                seq = order.sequence
                s = 0 if seq is collection else start(order)
                if s is None:
                    got = _json_list(map(text.__getitem__, seq), i4)
                elif s == 0:
                    got = "".join(("[", i4, body, i3, "]")) if seq else "[]"
                else:
                    if not at:   # on first need: single-pass runs never need them
                        end = 0
                        for item_text in item_texts:
                            at.append(end)
                            end += len(item_text) + lsep
                    head = at[s]
                    got = "".join(("[", i4, body[head:], sep, body[:head - lsep], i3, "]"))
                orders[id(order)] = got
            return got

        def rejected(rec: PassRecord, sequence: str) -> str:
            """The text of ``rec.rejected``; ``sequence`` is the text of the
            pass's order."""
            items = rec.rejected
            seq = rec.order.sequence
            if len(items) == len(seq) - 1 > 0 and items == seq[1:]:
                return "".join(("[", i4, sequence[1 + len(i4) + len(text[seq[0]]) + lsep:]))
            return _json_list(map(text.__getitem__, items), i4)

        # the entries of a list at depth 2: "[" before the first, "," before the rest
        heads = ("[" + i2, "," + i2)
        close = i1 + "]"
        category_head = "%s{" + i3 + '"index": %d,' + i3 + '"members": '
        order_head = "%s{" + i3 + '"origin": %s,' + i3 + '"sequence": '
        pass_head = ("%s{" + i3 + '"assigned": %s,' + i3 + '"category": %s,'
                     + i3 + '"order": ')
        pass_middle = "," + i3 + '"origin": %s,' + i3 + '"pass": %s,' + i3 + '"rejected": '
        pass_tail = "," + i3 + '"retained": %s,' + i3 + '"start": %s' + i2 + "}"
        pair_form = "[" + i5 + "%s," + i5 + "%s" + i4 + "]"
        with_pass = _label_forms(i4, '"pass": %d,')
        without_pass = _label_forms(i5 + "  ", "")
        append = out.append

        append("{" + i1 + '"algorithm": ' + _json_quote(self.algorithm)
               + "," + i1 + '"categories": ')
        members = text.member_lists([c.members for c in self.categories], i4)
        for k, (c, listed) in enumerate(zip(self.categories, members)):
            append(category_head % (heads[k > 0], c.index))
            append(listed)
            append(i2 + "}")
        append(close if members else "[]")
        append("," + i1 + '"incomplete": ' + text[self.incomplete] + "," + i1 + '"labels": ')
        keys = sorted(_label_keys(collection).items())
        for k, (key, x) in enumerate(keys):
            append(("," if k else "{") + i2 + (text[x] if type(x) is str else _json_quote(key))
                   + ": " + _json_list(
                       [_label_text(with_pass, lab, p) for p, lab in self.labels.get(x, ())],
                       i3))
        append(i1 + "}" if keys else "{}")
        append("," + i1 + '"orders": ')
        for k, o in enumerate(self.orders):
            append(order_head % (heads[k > 0], _json_quote(o.origin)))
            append(arranged(o))
            append(i2 + "}")
        append(close if self.orders else "[]")
        append("," + i1 + '"passes": ')
        for k, rec in enumerate(self.passes):
            sequence = arranged(rec.order)
            append(pass_head % (
                heads[k > 0], _json_list([pair_form % (text[x], _label_text(without_pass, lab))
                                          for x, lab in rec.assigned], i4),
                text[rec.category_index]))
            append(sequence)
            append(pass_middle % (_json_quote(rec.order.origin), rec.number))
            append(rejected(rec, sequence))
            append(pass_tail % (text[rec.retained], text[rec.start]))
        append(close if self.passes else "[]")
        append(indent + "}")

    def render_text(self) -> str:
        lines = [f"algorithm: {self.algorithm}"]
        for x in self.collection:
            hist = ", ".join(f"{lab.render()}@{p}" for p, lab in self.labels.get(x, []))
            lines.append(f"  {x}: {hist}")
        for c in self.categories:
            lines.append(f"  C_{c.index} = {{{', '.join(str(m) for m in c.members)}}}")
        if self.incomplete:
            lines.append("  (incomplete: the categories do not cover the collection)")
        return "\n".join(lines)


def _label_keys(collection: Sequence[Item]) -> dict[str, Item]:
    """Each item of ``collection`` under its ``labels`` key, ``str(item)``, in
    collection order.  Two different items with one key, such as ``1`` and
    ``"1"``, would leave one of them without labels: that raises
    ``ValueError`` naming both."""
    keyed: dict[str, Item] = {}
    for x in collection:
        key = str(x)
        other = keyed.setdefault(key, x)
        if other != x:
            raise ValueError(f"items {other!r} and {x!r} share the labels key {key!r}")
    return keyed


def _label_forms(inner: str, pass_field: str) -> dict[str, str]:
    """The %-template of a label dict per form, its keys at indent ``inner``;
    ``pass_field`` is the ``"pass"`` entry, or empty."""
    pass_field = inner + pass_field if pass_field else ""
    close = inner[:-2] + "}"
    return {
        "count": "{" + inner + '"count": %d,' + inner + '"form": "count",' + pass_field
                 + inner + '"text": "%d_%d",' + inner + '"type": %d' + close,
        "deferred": "{" + inner + '"form": "deferred",' + pass_field
                    + inner + '"text": "T_%d",' + inner + '"type": %d' + close,
        "successor": "{" + inner + '"form": "successor",' + pass_field + inner + '"power": %d,'
                     + inner + '"text": "%s",' + inner + '"type": %d' + close,
    }


def _label_text(forms: dict[str, str], lab: CountLabel, *pass_no: int) -> str:
    """``lab`` written by its form's template in ``forms``, with ``pass_no``
    when the forms hold a ``"pass"`` entry."""
    j = lab.type_index
    if lab.form == "count":
        return forms["count"] % (lab.count, *pass_no, lab.count, j, j)
    if lab.form == "deferred":
        return forms["deferred"] % (*pass_no, j, j)
    return forms["successor"] % (*pass_no, lab.power, lab.render(), j)


@dataclass(frozen=True)
class CategoryVerdict:
    index: int
    members: tuple
    conflict_free: bool
    conflict_witness: tuple | None
    maximal: bool
    maximal_witness: Item | None   # an element that could still join

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "members": list(self.members),
            "conflict_free": self.conflict_free,
            "conflict_witness": list(self.conflict_witness) if self.conflict_witness else None,
            "maximal": self.maximal,
            "maximal_witness": self.maximal_witness,
        }


@dataclass(frozen=True)
class AntichainDecomposition:
    """Verified view of a run's categories against its conflict relation."""

    categories: tuple[tuple, ...]
    verdicts: tuple[CategoryVerdict, ...]
    coverage: bool
    missing: tuple
    sum_counts: int
    n_items: int
    counts_match: bool | None   # partition check, pca runs only
    coherent: bool | None = None

    @property
    def all_maximal(self) -> bool:
        return all(v.maximal for v in self.verdicts)

    @property
    def all_conflict_free(self) -> bool:
        return all(v.conflict_free for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "categories": [list(c) for c in self.categories],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "coverage": self.coverage,
            "missing": list(self.missing),
            "sum_counts": self.sum_counts,
            "n_items": self.n_items,
            "counts_match": self.counts_match,
            "coherent": self.coherent,
        }

    def json_text(self, indent: str = "\n") -> str:
        """``core._json_text(self.to_dict(), indent)``: the join of
        :meth:`write_json`'s pieces, for callers that want the text whole."""
        return _json_text(self, indent)

    def write_json(self, out: list[str], indent: str, text: _ReportTexts) -> None:
        """Append the pieces of ``core._json_text(self.to_dict(), indent)`` to
        ``out``, written without the dict tree.

        ``indent`` and ``text`` are as in :meth:`CountingTrace.write_json`;
        each category and verdict is its own piece.  A verdict's member list
        sits at the depth of a trace category's, so with one table for both
        each category's list is written once.
        """
        i1 = indent + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        i4 = i3 + "  "
        heads = ("[" + i2, "," + i2)
        close = i1 + "]"
        verdict_head = "%s{" + "".join(i3 + '"%s": %%s,' % key for key in (
            "conflict_free", "conflict_witness", "index", "maximal", "maximal_witness")) \
            + i3 + '"members": '
        append = out.append
        append("{" + i1 + '"categories": ')
        categories = text.member_lists(self.categories, i3)
        for k, listed in enumerate(categories):
            append(heads[k > 0])
            append(listed)
        append(close if categories else "[]")
        append("".join((
            ",", i1, '"coherent": ', text[self.coherent],
            ",", i1, '"counts_match": ', text[self.counts_match],
            ",", i1, '"coverage": ', text[self.coverage],
            ",", i1, '"missing": ', _json_list(map(text.__getitem__, self.missing), i2),
            ",", i1, '"n_items": ', text[self.n_items],
            ",", i1, '"sum_counts": ', text[self.sum_counts],
            ",", i1, '"verdicts": ')))
        members = text.member_lists([v.members for v in self.verdicts], i4)
        for k, (v, listed) in enumerate(zip(self.verdicts, members)):
            append(verdict_head % (
                heads[k > 0], text[v.conflict_free],
                _json_list(map(text.__getitem__, v.conflict_witness), i4)
                if v.conflict_witness else "null",
                text[v.index], text[v.maximal], text[v.maximal_witness]))
            append(listed)
            append(i2 + "}")
        append(close if members else "[]")
        append(indent + "}")


def _raw_rows(items: Sequence[Item], conflict: ConflictFn) -> list[int]:
    """Row i has bit j set iff ``conflict(items[i], items[j])``: one call per ordered pair."""
    return [int("".join("1" if conflict(a, b) else "0" for b in items)[::-1], 2)
            for a in items]


def _row_shape(items: Sequence[Item], rows: Sequence[int]) -> list[int]:
    """``rows`` as a list, refused unless it holds ``n`` masks of ``n`` bits."""
    n = len(items)
    rows = list(rows)
    if len(rows) != n or not all(0 <= row < 1 << n for row in rows):
        raise ValueError(f"conflict rows must be {n} masks of {n} bits")
    return rows


def _check_rows(items: Sequence[Item], rows: Sequence[int],
                irreflexive: bool = True) -> list[int]:
    """The conflict's bit rows over ``items`` (bit j of row i: ``items[i]``
    conflicts with ``items[j]``), refused unless a run can use them.

    Refuses rows that are not ``n`` masks of ``n`` bits, then, with the first
    witness in sequence order, a reflexive item (unless ``irreflexive`` is
    false: hpc never reads the diagonal) and then an asymmetric pair.
    """
    rows = _row_shape(items, rows)
    if irreflexive:
        for i, row in enumerate(rows):
            if row >> i & 1:
                a = items[i]
                raise ValueError(f"conflict relation is not irreflexive: witness ({a!r}, {a!r})")
    # The first row that differs from its column does so first at its first
    # asymmetric pair, which lies past the diagonal.
    for i, (row, col) in enumerate(zip(rows, _transpose(rows, len(rows)))):
        if row != col:
            j = ((row ^ col) & -(row ^ col)).bit_length() - 1
            raise ValueError(f"relation is not symmetric: witness pair "
                             f"({items[i]!r}, {items[j]!r})")
    return rows


def _conflict_masks(items: Sequence[Item], conflict: ConflictFn, irreflexive: bool = True,
                    rows: Sequence[int] | None = None) -> list[int]:
    """The checked conflict rows of a run: ``rows`` when given, else built
    from ``conflict``, the only calls a run makes (see :func:`_check_rows`)."""
    return _check_rows(items, _raw_rows(items, conflict) if rows is None else rows,
                       irreflexive)


def _require_items(seq: OrderArrangement) -> list[Item]:
    items = list(seq.sequence)
    if not items:
        raise ValueError("cannot count an empty collection")
    return items


def hpc_count(seq: OrderArrangement, relation: ConflictFn, *,
              rows: Sequence[int] | None = None) -> CountingTrace:
    """History-based primitive counting over a symmetric relation.

    The first element opens type 1.  Each next element: related to its
    predecessor -> opens the next type; related to no earlier element ->
    successor of the current type; related to an earlier element but not the
    predecessor -> also opens the next type (history-aware gap rule).
    With ``rows=`` given, ``relation`` is not read and may be ``None``.
    """
    items = _require_items(seq)
    rows = _conflict_masks(items, relation, irreflexive=False, rows=rows)
    labels: dict[Item, list[tuple[int, CountLabel]]] = {}
    type_index = 1
    power = 0
    labels[items[0]] = [(1, successor_label(0, 1))]
    for i in range(1, len(items)):
        if rows[i] & ((1 << i) - 1):   # related to some earlier element
            type_index += 1
            power = 0
        else:
            power += 1
        labels[items[i]] = [(1, successor_label(power, type_index))]
    by_type: dict[int, list[Item]] = {}
    for x in items:
        by_type.setdefault(labels[x][0][1].type_index, []).append(x)
    categories = [Category(j, tuple(by_type[j])) for j in sorted(by_type)]
    rec = PassRecord(1, seq, items[0],
                     tuple((x, labels[x][0][1]) for x in items), (), None)
    return CountingTrace("hpc", [seq], labels, categories, [rec])


def pca_count(seq: OrderArrangement, conflict: ConflictFn, *,
              rows: Sequence[int] | None = None) -> CountingTrace:
    """First-fit counting: join the least-indexed conflict-free category.

    An element that conflicts with every open category opens the next one.
    Labels are per-category running counts, so category j ends up labeled
    1_j .. Q_j with no gaps.  Each category keeps its member list as it
    grows, in sequence order: a label's count is that list's length, and
    the list becomes :attr:`Category.members`.  That is one append per
    item, not a scan of all n items per category: on dense 80-element
    count contexts (71-73 categories) a run took 0.46-0.49 ms
    in-process, against 0.85-0.96 ms with the scan.  With ``rows=`` given,
    ``conflict`` is not read and may be ``None``.
    """
    items = _require_items(seq)
    rows = _conflict_masks(items, conflict, rows=rows)
    taken: list[int] = []   # position mask of each category
    members: list[list[Item]] = []
    labels: dict[Item, list[tuple[int, CountLabel]]] = {}
    for i, x in enumerate(items):
        idx = next((c for c, mask in enumerate(taken) if not rows[i] & mask), len(taken))
        if idx == len(taken):
            taken.append(0)
            members.append([])
        taken[idx] |= 1 << i
        members[idx].append(x)
        labels[x] = [(1, count_label(len(members[idx]), idx + 1))]
    categories = [Category(c, tuple(xs)) for c, xs in enumerate(members, start=1)]
    rec = PassRecord(1, seq, items[0],
                     tuple((x, labels[x][0][1]) for x in items), (), None)
    return CountingTrace("pca", [seq], labels, categories, [rec])


def _greedy_pass(order: OrderArrangement, start: int, items: Sequence[Item],
                 rows: list[int], cat_index: int
                 ) -> tuple[int, tuple[tuple[Item, CountLabel], ...], tuple]:
    """One greedy scan of ``order``: a conflict-free category's position mask,
    its labelled members and the rejected items, both in scan order.

    ``order`` is the rotation of ``items`` (the rows' order) that starts at
    0-based position ``start``, ``items`` itself at 0: scanning it is
    scanning two ascending runs of positions, ``start..n-1`` and then
    ``0..start-1``.  An item is taken unless it conflicts with an
    earlier member; the rows are symmetric, so that is unless it lies in
    ``blocked``, the union of the members' rows.  So the next member of a
    run is the lowest position of ``run & ~blocked`` above the last member,
    and the pass costs O(members) mask steps, not one per item.  The items
    between two members' ranks in ``order`` are the rejected ones.
    """
    seq = order.sequence
    n = len(seq)
    head = (1 << start) - 1
    taken = blocked = 0
    assigned: list[tuple[Item, CountLabel]] = []
    rejected: list[Item] = []
    done = 0   # rank of the first item not yet placed
    for run in (((1 << n) - 1) & ~head, head):
        free = run & ~blocked
        while free:
            low = free & -free
            p = low.bit_length() - 1
            rank = (p - start) % n
            rejected += seq[done:rank]
            done = rank + 1
            taken |= low
            blocked |= rows[p]
            assigned.append((items[p], count_label(len(assigned) + 1, cat_index)))
            free &= ~(blocked | low)
    rejected += seq[done:]
    return taken, tuple(assigned), tuple(rejected)


def hpca_count(seq: OrderArrangement, conflict: ConflictFn, *, rows: Sequence[int] | None = None
               ) -> tuple[CountingTrace, AntichainDecomposition]:
    """History-aware counting on antichains with deferred restart markers.

    Pass 1 scans the whole sequence building category 1; every rejected
    element is marked T_j with j its 1-based position.  Each later pass
    consumes the smallest unconsumed marker, rotates the sequence to start
    there, and greedily builds the next category over all elements.  A pass
    whose category equals an earlier one is discarded (its marker stays
    consumed).  The run stops when the categories cover the collection, or
    when no markers remain.

    Every run is coherent (covers the collection with maximal antichains)
    for a symmetric, irreflexive conflict, which ``_conflict_masks``
    enforces:

    1. Every pass is a greedy scan of the whole (rotated) sequence.  It
       rejects an element only for a conflict with a member and never drops
       a member, so every category is a maximal antichain.
    2. Two distinct maximal antichains are never nested, so a pass whose
       category lies inside an earlier one repeats it, and no retained
       category contains another.
    3. Every element rejected by pass 1 gets a marker.  When its marker is
       consumed the element starts the rotation and is always taken, so it
       is covered by then.

    Hence the stop condition "no markers remain" is reached only once the
    collection is covered: the loop never runs out of markers first.

    ``rows``, when given, are the conflict's bit rows over ``seq`` in
    sequence order; they get the same refusals as rows built from
    ``conflict``, which is then never read and may be ``None``.  Otherwise
    ``conflict`` is called once per ordered pair, n² calls in all.  The run is verified by
    :func:`verify_decomposition` on the same rows, with no further calls.
    """
    items = _require_items(seq)
    rows = _conflict_masks(items, conflict, rows=rows)
    trace = _hpca_trace(seq, rows, "hpca")
    return trace, verify_decomposition(trace, conflict, rows=rows)


def _hpca_trace(seq: OrderArrangement, rows: list[int], algorithm: str) -> CountingTrace:
    """The hpca run of :func:`hpca_count` on checked rows, unverified, labelled ``algorithm``."""
    items = seq.sequence
    n = len(items)
    index = {x: i for i, x in enumerate(items)}
    full = (1 << n) - 1

    covered, assigned, markers = _greedy_pass(seq, 0, items, rows, 1)
    labels: dict[Item, list[tuple[int, CountLabel]]] = {x: [] for x in items}
    for x, lab in assigned:
        labels[x].append((1, lab))
    for x in markers:
        labels[x].append((1, deferred_label(index[x] + 1)))
    passes = [PassRecord(1, seq, items[0], assigned, markers, 1)]
    orders = [seq]
    retained: list[Category] = [Category(1, tuple(x for x, _ in assigned))]
    seen = {covered}

    # Markers are consumed in position order, which is pass 1's scan order.
    for pass_no, start in enumerate(markers, start=2):
        if covered == full:
            break
        order = seq.rotate(index[start] + 1)
        cat_index = len(retained) + 1
        taken, assigned, rejected = _greedy_pass(order, index[start], items, rows, cat_index)
        if taken in seen:
            passes.append(PassRecord(pass_no, order, start, assigned, rejected,
                                     None, retained=False))
        else:
            seen.add(taken)
            retained.append(Category(cat_index, tuple(x for x, _ in assigned)))
            covered |= taken
            for x, lab in assigned:
                labels[x].append((pass_no, lab))
            passes.append(PassRecord(pass_no, order, start, assigned, rejected, cat_index))
        orders.append(order)

    return CountingTrace(algorithm, orders, labels, retained, passes)


def verify_decomposition(trace: CountingTrace, conflict: ConflictFn, *,
                         rows: Sequence[int] | None = None) -> AntichainDecomposition:
    """Re-check a trace's categories: conflict-freeness, maximality, coverage.

    All verdicts are recomputed against the full collection; nothing is
    trusted from the run itself.  The relation is read as it is, from
    ``rows`` (bit rows over the collection, in collection order) when given,
    else from one call of ``conflict`` per ordered pair (with ``rows``
    given, ``conflict`` is not read and may be ``None``), and is not refused
    when reflexive or asymmetric.  A category's conflict witness is its first
    conflicting pair in member order; its maximality witness is the first
    item in collection order that could still join it.
    """
    items = trace.collection
    rows = _raw_rows(items, conflict) if rows is None else _row_shape(items, rows)
    cols = _transpose(rows, len(items))   # bit q of cols[p]: items[q] conflicts with items[p]
    index = {x: i for i, x in enumerate(items)}
    full = (1 << len(items)) - 1
    verdicts = []
    covered = total = 0
    for cat in trace.categories:
        members = cat.members
        try:
            places = [index[m] for m in members]
        except KeyError as exc:
            raise ValueError(f"category {cat.index} holds {exc.args[0]!r}, "
                             f"which is not in the collection") from None
        mask = blocked = 0
        for p in places:
            mask |= 1 << p
            blocked |= cols[p]
        covered |= mask
        total += len(members)
        cw = None
        for i, p in enumerate(places):
            row = rows[p]
            if row & mask:   # some member, maybe earlier or itself: look later only
                k = next((k for k in range(i + 1, len(places)) if row >> places[k] & 1), None)
                if k is not None:
                    cw = (members[i], members[k])
                    break
        free = full & ~(mask | blocked)   # outside the category, conflicting with no member
        mw = items[(free & -free).bit_length() - 1] if free else None
        verdicts.append(CategoryVerdict(cat.index, cat.members,
                                        cw is None, cw, mw is None, mw))
    missing = tuple(x for p, x in enumerate(items) if not covered >> p & 1)
    counts_match = (total == len(items)) if trace.algorithm == "pca" else None
    coverage = not missing
    coherent = None
    if trace.algorithm in ("hpca", "fhca"):
        coherent = coverage and all(v.maximal and v.conflict_free for v in verdicts)
    return AntichainDecomposition(tuple(c.members for c in trace.categories),
                                  tuple(verdicts), coverage, missing, total,
                                  len(items), counts_match, coherent)


def fhca_count(seq: OrderArrangement, conflict: ConflictFn, *,
               rows: Sequence[int] | None = None) -> tuple[CountingTrace, list[tuple]]:
    """Full-history counting: the hpca run, relabelled ``fhca``.

    fhca permutes and re-collects only past a run that is not coherent, and
    by the coherence theorem in :func:`hpca_count`'s docstring every run is,
    so fhca equals hpca relabelled (same labels and categories) and takes no
    budget.  Unlike :func:`hpca_count` it does not verify its run; callers
    that want the verdict call :func:`verify_decomposition`.  With
    ``rows=`` given, ``conflict`` is not read and may be ``None``.
    """
    items = _require_items(seq)
    trace = _hpca_trace(seq, _conflict_masks(items, conflict, rows=rows), "fhca")
    return trace, [c.members for c in trace.categories]

