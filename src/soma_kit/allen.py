"""Allen interval algebra: the 13 base relations, converse, composition,
qualitative abstraction of concrete timestamps, and path-consistency
propagation over interval constraint networks.

The composition and converse tables are not hand-transcribed: they are
generated once at import time by enumerating all weak orderings of the six
endpoints of three intervals and collecting which A-to-C relations co-occur
with each (A-to-B, B-to-C) pair. Both are positional: a relation's position
is its declaration order in BaseRelation, and bit p of a 13-bit mask stands
for the relation at position p.

The qualitative abstraction has one decision tree, `relation_rows`: for one
anchor interval and many others it returns 13 bitsets, one per relation, and
`relation_from_endpoints` reads a single pair from it.

Masks are composed and conversed through chunk tables derived from those two
at import. A 13-bit mask splits into a 7-bit low chunk (positions 0-6) and a
6-bit high chunk (positions 7-12). The converse of a mask is the OR of two
chunk lookups. For composition, four pair tables hold the composition of
every left chunk with every right chunk: `_LL[c1][c2]` for a low chunk c1
with a low chunk c2, and `_LH`, `_HL`, `_HH` for the other low/high pairs,
so composing two masks costs four lookups and three ORs, whatever their
sizes. The 36,864 entries take only 847 distinct values, and the tables
share one int object per value, which keeps them at about 0.35 MB rather
than 1.4 MB (CPython 3.11).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import product
from operator import or_
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DegenerateInterval, StaleNetwork, UnknownVariable


class BaseRelation(Enum):
    """The 13 jointly exhaustive, pairwise disjoint interval relations."""

    BEFORE = "b"
    AFTER = "bi"
    MEETS = "m"
    MET_BY = "mi"
    OVERLAPS = "o"
    OVERLAPPED_BY = "oi"
    STARTS = "s"
    STARTED_BY = "si"
    DURING = "d"
    CONTAINS = "di"
    FINISHES = "f"
    FINISHED_BY = "fi"
    EQUALS = "eq"

    @property
    def code(self) -> str:
        return self.value

    @property
    def index(self) -> int:
        return _INDEX[self]

    @property
    def bit(self) -> int:
        return 1 << _INDEX[self]


_RELATIONS: Tuple[BaseRelation, ...] = tuple(BaseRelation)
_INDEX: Dict[BaseRelation, int] = {r: p for p, r in enumerate(_RELATIONS)}
_BY_CODE: Dict[str, BaseRelation] = {r.code: r for r in _RELATIONS}
_FULL_MASK = (1 << 13) - 1
_EQ_MASK = 1 << _INDEX[BaseRelation.EQUALS]


@dataclass(frozen=True)
class RelationSet:
    """Immutable subset of the 13 base relations, stored as a bitmask.

    The empty set denotes inconsistency; the full set denotes no information.
    """

    mask: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= _FULL_MASK:
            raise ValueError(f"mask out of range: {self.mask}")

    @classmethod
    def of(cls, *relations: BaseRelation) -> "RelationSet":
        mask = 0
        for r in relations:
            mask |= r.bit
        return cls(mask)

    @classmethod
    def from_codes(cls, codes: str) -> "RelationSet":
        """Parse a whitespace-separated string of relation codes, e.g. "b m o".

        Raises ValueError naming the first unknown code.
        """
        mask = 0
        for code in codes.split():
            if code not in _BY_CODE:
                raise ValueError(f"unknown relation code: {code!r}")
            mask |= _BY_CODE[code].bit
        return cls(mask)

    @classmethod
    def full(cls) -> "RelationSet":
        return cls(_FULL_MASK)

    @classmethod
    def empty(cls) -> "RelationSet":
        return cls(0)

    def __contains__(self, r: BaseRelation) -> bool:
        return bool(self.mask & r.bit)

    def __iter__(self) -> Iterator[BaseRelation]:
        mask = self.mask
        return iter([r for p, r in enumerate(_RELATIONS) if mask >> p & 1])

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __and__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.mask & other.mask)

    def __or__(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.mask | other.mask)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == _FULL_MASK

    def converse(self) -> "RelationSet":
        return RelationSet(_converse_mask(self.mask))

    def codes(self) -> str:
        """Canonical textual form: codes in fixed relation order."""
        return " ".join(r.code for r in self)

    def __repr__(self) -> str:
        return f"RelationSet({{{self.codes()}}})"


@dataclass(frozen=True)
class ConcreteInterval:
    """Closed interval of real seconds; strictly positive duration."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"interval must satisfy start < end: [{self.start}, {self.end}]")


def relation_rows(
    anchor: ConcreteInterval, spans: Iterable[Tuple[int, float, float]], eps: float = 0.0
) -> List[int]:
    """The relations of an anchor interval to many others, as 13 bitsets.

    `spans` holds (b, start, end) triples; bit b of row p is on iff the
    anchor stands in the relation at position p to span b. Endpoints within
    eps of each other are treated as coincident, so each span sets one bit
    in one row, unless it or the anchor collapses under eps (width at most
    2 * eps): such a span is in no row, and a collapsed anchor leaves every
    row empty.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    rows = [0] * 13
    s0, e0 = anchor.start, anchor.end
    width = 2 * eps
    if e0 - s0 <= width:
        return rows
    for b, s, e in spans:
        if e - s <= width:
            continue
        # Start is compared with start, end with end, then the gap between
        # them, each as abs(x - y) <= eps before x < y. Thresholds such as
        # y <= x + eps would round differently and disagree at the boundary.
        if abs(s0 - s) <= eps:
            if abs(e0 - e) <= eps:
                p = 12  # eq
            else:
                p = 6 if e0 < e else 7  # s, si
        elif abs(e0 - e) <= eps:
            p = 11 if s0 < s else 10  # fi, f
        elif s0 < s:
            if e0 < e:
                if abs(e0 - s) <= eps:
                    p = 2  # m
                else:
                    p = 0 if e0 < s else 4  # b, o
            else:
                p = 9  # di
        elif e0 < e:
            p = 8  # d
        elif abs(e - s0) <= eps:
            p = 3  # mi
        else:
            p = 1 if e < s0 else 5  # bi, oi
        rows[p] |= 1 << b
    return rows


def relation_from_endpoints(
    a: ConcreteInterval, b: ConcreteInterval, eps: float = 0.0
) -> BaseRelation:
    """Qualitative relation of two concrete intervals.

    Endpoints within eps of each other are treated as coincident; the result
    is the unique base relation under that coarsened comparison, read from
    the one-span `relation_rows` of a. An interval of width at most 2 * eps
    raises DegenerateInterval.
    """
    rows = relation_rows(a, [(0, b.start, b.end)], eps)
    if 1 not in rows:
        iv = a if a.end - a.start <= 2 * eps else b
        raise DegenerateInterval(f"interval [{iv.start}, {iv.end}] collapses under eps={eps}")
    return _RELATIONS[rows.index(1)]


def _generate_tables() -> Tuple[List[List[int]], List[int]]:
    """Positional composition table (13x13 masks) and converse positions.

    Every interval with endpoints in range(6) is enumerated; six values
    suffice to realize every weak ordering of the six endpoints of three
    intervals, so the tables are exact, not sampled.
    """
    spans = [ConcreteInterval(s, e) for s in range(6) for e in range(s + 1, 6)]
    rel = [[_INDEX[relation_from_endpoints(a, b)] for b in spans] for a in spans]
    composition = [[0] * 13 for _ in range(13)]
    converse_of = [0] * 13
    for a, b in product(range(len(spans)), repeat=2):
        converse_of[rel[a][b]] = rel[b][a]
        for c in range(len(spans)):
            composition[rel[a][b]][rel[b][c]] |= 1 << rel[a][c]
    return composition, converse_of


_COMPOSE, _CONVERSE = _generate_tables()


def _chunk_table(masks: Sequence[int]) -> List[int]:
    """Entry c is the OR of masks[p] over the set bits p of c, for every
    c below 2 ** len(masks)."""
    table = [0] * (1 << len(masks))
    for c in range(1, len(table)):
        low = c & -c
        table[c] = table[c ^ low] | masks[low.bit_length() - 1]
    return table


_CONVERSE_LOW = _chunk_table([1 << q for q in _CONVERSE[:7]])
_CONVERSE_HIGH = _chunk_table([1 << q for q in _CONVERSE[7:]])


def _converse_mask(mask: int) -> int:
    return _CONVERSE_LOW[mask & 0x7F] | _CONVERSE_HIGH[mask >> 7]


def _pair_table(rows: Sequence[Sequence[int]], shared: Dict[int, int]) -> List[List[int]]:
    """Row c is the element-wise OR of rows[p] over the set bits p of c, for
    every c below 2 ** len(rows), as `_chunk_table` builds its entries.
    Equal entries are one int object, the first met in `shared`."""
    table = [[0] * len(rows[0])]
    for c in range(1, 1 << len(rows)):
        low = c & -c
        merged = map(or_, table[c ^ low], rows[low.bit_length() - 1])
        table.append([shared.setdefault(v, v) for v in merged])
    return table


def _pair_tables() -> List[List[List[int]]]:
    """`_LL`, `_LH`, `_HL`, `_HH` from per-relation chunk tables that live only
    while they are built; equal entries of all four are one int object."""
    low = [_chunk_table(row[:7]) for row in _COMPOSE]
    high = [_chunk_table(row[7:]) for row in _COMPOSE]
    shared: Dict[int, int] = {}
    return [_pair_table(rows, shared) for rows in (low[:7], high[:7], low[7:], high[7:])]


_LL, _LH, _HL, _HH = _pair_tables()


def _compose_mask(m1: int, m2: int) -> int:
    """Composition of two masks: the union of the compositions of each
    chunk of m1 with each chunk of m2, one pair-table lookup each."""
    l1, h1, l2, h2 = m1 & 0x7F, m1 >> 7, m2 & 0x7F, m2 >> 7
    return _LL[l1][l2] | _LH[l1][h2] | _HL[h1][l2] | _HH[h1][h2]


def converse(r: BaseRelation) -> BaseRelation:
    """Converse of a base relation; an involution with eq as fixpoint."""
    return _RELATIONS[_CONVERSE[_INDEX[r]]]


def compose_base(r1: BaseRelation, r2: BaseRelation) -> RelationSet:
    """Composition of two base relations per the generated table."""
    return RelationSet(_COMPOSE[_INDEX[r1]][_INDEX[r2]])


def compose(r1: RelationSet, r2: RelationSet) -> RelationSet:
    """Union over base pairs of the composition table."""
    return RelationSet(_compose_mask(r1.mask, r2.mask))


@dataclass
class PropagationResult:
    """Outcome of path-consistency propagation."""

    consistent: bool
    witness: Optional[Tuple[str, str]] = None


class ConstraintNetwork:
    """Qualitative constraint network over interval variables.

    Variables are numbered in insertion order; the label of (i, j) is the
    mask at row i, column j of an n x n matrix. The matrix is kept
    converse-closed: [j][i] always holds the converse of [i][j], and the
    diagonal is eq. Mutation marks the network stale; queries require a
    propagation pass after the last mutation.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._labels: List[List[int]] = []
        self._stale = True

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(self._index)

    def add_variable(self, var: str) -> None:
        if var in self._index:
            return
        n = len(self._labels)
        self._index[var] = n
        for row in self._labels:
            row.append(_FULL_MASK)
        self._labels.append([_FULL_MASK] * n + [_EQ_MASK])
        self._stale = True

    def get_label(self, i: str, j: str) -> RelationSet:
        if i not in self._index or j not in self._index:
            raise UnknownVariable(f"unknown variable in ({i}, {j})")
        return RelationSet(self._labels[self._index[i]][self._index[j]])

    def constrain(self, i: str, j: str, relations: RelationSet) -> None:
        """Intersect the current label of (i, j) with the given set."""
        if i == j:
            raise ValueError("cannot constrain a variable against itself")
        for v in (i, j):
            self.add_variable(v)
        a, b = self._index[i], self._index[j]
        label = self._labels[a][b] & relations.mask
        self._labels[a][b] = label
        self._labels[b][a] = _converse_mask(label)
        self._stale = True

    def propagate(self) -> PropagationResult:
        """Run path consistency to fixpoint with a work queue.

        The queue starts with every pair i < j in insertion order and holds
        such pairs only; for each, every variable k in order tightens (i, k)
        and then (k, j). Inconsistency (an empty label) is a return value,
        not an exception; its witness is the first pair in queue order whose
        label was constrained empty, else the (i, k) that emptied.

        The compositions are `_compose_mask` inlined: the pair-table rows of
        rij, and of its converse rji, are fetched once per popped pair, and
        (k, j) is tightened through its converse, (j, k) by rji composed with
        rik, which is the converse of rki composed with rij. Both read the
        labels as they were before either update at this k. Two tests are
        left out as no-ops: k in (i, j), since eq composes as the identity
        and every rij composed with rji holds eq; and a full rij, since it
        composes to the full label with every nonempty one. Nor can the
        (j, k) update empty a label once (i, k) kept some a in rik, from b
        in rij and c in rjk: by the cycle law c is in b's converse, in rji,
        composed with a, so c stays.
        """
        labels = self._labels
        n = len(labels)
        queue = deque((i, j) for i in range(n) for j in range(i + 1, n))
        if not all(map(all, labels)):  # some label was constrained empty
            return self._inconsistent(*next((i, j) for i, j in queue if not labels[i][j]))
        in_queue = set(queue)
        conv_low, conv_high = _CONVERSE_LOW, _CONVERSE_HIGH
        while queue:
            i, j = pair = queue.popleft()
            in_queue.discard(pair)
            row_i, row_j = labels[i], labels[j]
            rij = row_i[j]
            if rij == _FULL_MASK:
                continue
            lo, hi = rij & 0x7F, rij >> 7
            ll, lh, hl, hh = _LL[lo], _LH[lo], _HL[hi], _HH[hi]
            rji = row_j[i]
            lo, hi = rji & 0x7F, rji >> 7
            jll, jlh, jhl, jhh = _LL[lo], _LH[lo], _HL[hi], _HH[hi]
            for k in range(n):
                rik, rjk = row_i[k], row_j[k]
                lo, hi = rjk & 0x7F, rjk >> 7
                ik = rik & (ll[lo] | lh[hi] | hl[lo] | hh[hi])
                lo, hi = rik & 0x7F, rik >> 7
                jk = rjk & (jll[lo] | jlh[hi] | jhl[lo] | jhh[hi])
                if ik == rik and jk == rjk:
                    continue
                if ik != rik:
                    if not ik:
                        return self._inconsistent(i, k)
                    row_i[k] = ik
                    labels[k][i] = conv_low[ik & 0x7F] | conv_high[ik >> 7]
                    key = (i, k) if i < k else (k, i)
                    if key not in in_queue:
                        queue.append(key)
                        in_queue.add(key)
                if jk != rjk:
                    row_j[k] = jk
                    labels[k][j] = conv_low[jk & 0x7F] | conv_high[jk >> 7]
                    key = (j, k) if j < k else (k, j)
                    if key not in in_queue:
                        queue.append(key)
                        in_queue.add(key)
        self._stale = False
        return PropagationResult(True)

    def _inconsistent(self, x: int, y: int) -> PropagationResult:
        self._stale = False
        names = self.variables
        return PropagationResult(False, (names[x], names[y]))

    def query_relation(self, i: str, j: str) -> RelationSet:
        """Propagated label of a variable pair; full set when unconstrained."""
        if self._stale:
            raise StaleNetwork("network mutated since last propagation")
        return self.get_label(i, j)

    def masks(self) -> Tuple[Tuple[int, ...], ...]:
        """The propagated matrix as 13-bit masks, variables in insertion
        order: row i, column j holds the label from the i-th to the j-th."""
        if self._stale:
            raise StaleNetwork("network mutated since last propagation")
        # From lists, not generators: with tuple() over generators, 500 loads
        # of a 4-plan library left peak RSS about 1 MB higher (CPython 3.11).
        return tuple([tuple(row) for row in self._labels])
