import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from soma_kit import (
    BaseRelation,
    ConcreteInterval,
    ConstraintNetwork,
    RelationSet,
    compose,
    compose_base,
    converse,
    relation_from_endpoints,
)
from soma_kit import allen
from soma_kit.allen import relation_rows
from soma_kit.errors import DegenerateInterval, StaleNetwork, UnknownVariable

from oracles import compose_oracle, network_realizable, propagate_oracle, relation_case_analysis

ALL = list(BaseRelation)


def rs(codes):
    return RelationSet.from_codes(codes)


class TestConverse:
    def test_definitional_pairs(self):
        assert converse(BaseRelation.BEFORE) is BaseRelation.AFTER
        assert converse(BaseRelation.OVERLAPS) is BaseRelation.OVERLAPPED_BY
        assert converse(BaseRelation.EQUALS) is BaseRelation.EQUALS

    def test_involution(self):
        for r in ALL:
            assert converse(converse(r)) is r

    def test_unique_converses(self):
        assert len({converse(r) for r in ALL}) == 13


class TestCompose:
    def test_before_transitive(self):
        assert compose(rs("b"), rs("b")) == rs("b")

    def test_equals_is_identity(self):
        rng = random.Random(7)
        eq = rs("eq")
        for _ in range(1000):
            s = RelationSet(rng.randrange(1, 1 << 13))
            assert compose(eq, s) == s
            assert compose(s, eq) == s

    def test_overlaps_overlaps(self):
        # oracle-derived: three mutually overlapping interval chains
        assert compose(rs("o"), rs("o")) == compose_oracle(
            BaseRelation.OVERLAPS, BaseRelation.OVERLAPS
        )
        assert compose(rs("o"), rs("o")) == rs("b m o")

    def test_table_matches_oracle(self):
        for r1 in ALL:
            for r2 in ALL:
                assert compose_base(r1, r2) == compose_oracle(r1, r2), (r1, r2)

    @given(st.integers(0, (1 << 13) - 1), st.integers(0, (1 << 13) - 1))
    def test_converse_antidistributes(self, m1, m2):
        r, s = RelationSet(m1), RelationSet(m2)
        assert compose(r, s).converse() == compose(s.converse(), r.converse())

    def test_empty_annihilates(self):
        assert compose(RelationSet.empty(), RelationSet.full()).is_empty
        assert compose(rs("b"), RelationSet.empty()).is_empty


class TestChunkTables:
    """The chunk and pair tables `allen` composes and converses through
    hold, for every chunk or chunk pair, the union of the 13x13 definition
    over the chunks' bits."""

    @pytest.mark.parametrize("r1", ALL, ids=lambda r: r.code)
    def test_compose_chunks_match_oracle(self, r1):
        # The chunk table of r1 is the pair tables' row for r1's single bit.
        row = [compose_oracle(r1, r2) for r2 in ALL]
        p = r1.index
        low, high = (allen._LL, allen._LH) if p < 7 else (allen._HL, allen._HH)
        bit = 1 << p if p < 7 else 1 << (p - 7)
        for offset, width, table in ((0, 7, low[bit]), (7, 6, high[bit])):
            assert len(table) == 1 << width
            for chunk in range(1 << width):
                expected = RelationSet.empty()
                for p in range(width):
                    if chunk >> p & 1:
                        expected = expected | row[offset + p]
                assert table[chunk] == expected.mask, (r1, offset, chunk)

    @pytest.mark.parametrize(
        "name, left, right",
        [("_LL", (0, 7), (0, 7)), ("_LH", (0, 7), (7, 6)), ("_HL", (7, 6), (0, 7)), ("_HH", (7, 6), (7, 6))],
    )
    def test_pair_tables_match_oracle(self, name, left, right):
        table = getattr(allen, name)
        (left_offset, left_width), (right_offset, right_width) = left, right
        base = [[compose_oracle(r1, r2).mask for r2 in ALL] for r1 in ALL]
        # One-chunk unions first: the union over a chunk pair is then the
        # OR, over the left chunk's bits, of a right-chunk union.
        by_right_chunk = [
            [
                reduce(or_, (row[right_offset + q] for q in range(right_width) if c2 >> q & 1), 0)
                for c2 in range(1 << right_width)
            ]
            for row in base
        ]
        assert len(table) == 1 << left_width
        for c1, table_row in enumerate(table):
            assert len(table_row) == 1 << right_width
            bits = [left_offset + p for p in range(left_width) if c1 >> p & 1]
            for c2, entry in enumerate(table_row):
                expected = reduce(or_, (by_right_chunk[a][c2] for a in bits), 0)
                assert entry == expected, (name, c1, c2)

    def test_pair_tables_share_one_int_per_value(self):
        entries = [v for t in (allen._LL, allen._LH, allen._HL, allen._HH) for row in t for v in row]
        assert len({id(v) for v in entries}) == len(set(entries))

    @example(0, 0)
    @example(0, (1 << 13) - 1)
    @example((1 << 13) - 1, 0)
    @example((1 << 13) - 1, (1 << 13) - 1)
    @given(st.integers(0, (1 << 13) - 1), st.integers(0, (1 << 13) - 1))
    def test_compose_matches_per_bit_union(self, m1, m2):
        left, right = RelationSet(m1), RelationSet(m2)
        expected = reduce(or_, (compose_oracle(r1, r2) for r1 in left for r2 in right), RelationSet.empty())
        assert compose(left, right) == expected

    def test_converse_matches_definition_on_every_mask(self):
        for mask in range(1 << 13):
            expected = RelationSet.of(*(converse(r) for r in ALL if mask & r.bit))
            assert RelationSet(mask).converse() == expected, mask


intervals = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50)
).filter(lambda t: t[0] < t[1]).map(lambda t: ConcreteInterval(t[0], t[1]))


class TestRelationFromEndpoints:
    def test_meets(self):
        assert (
            relation_from_endpoints(ConcreteInterval(0, 1), ConcreteInterval(1, 2))
            is BaseRelation.MEETS
        )

    def test_contains(self):
        assert (
            relation_from_endpoints(ConcreteInterval(0, 5), ConcreteInterval(1, 3))
            is BaseRelation.CONTAINS
        )

    def test_eps_coarsens_starts(self):
        rel = relation_from_endpoints(
            ConcreteInterval(0, 2), ConcreteInterval(0.05, 3), eps=0.1
        )
        assert rel is BaseRelation.STARTS

    def test_degenerate_interval_rejected(self):
        with pytest.raises(DegenerateInterval):
            relation_from_endpoints(
                ConcreteInterval(0, 0.01), ConcreteInterval(5, 6), eps=0.01
            )

    @given(intervals, intervals)
    def test_jepd_matches_case_analysis(self, a, b):
        rel = relation_from_endpoints(a, b, eps=0)
        assert rel is relation_case_analysis(a, b)

    @given(intervals, intervals)
    def test_converse_symmetry(self, a, b):
        assert converse(relation_from_endpoints(a, b)) is relation_from_endpoints(b, a)


# Endpoints where rounding decides: 0.1 + 0.2 is just above 0.3, and
# abs(0.3 - 0.31) and abs(0.3 - 0.4) are just above 0.01 and 0.1, though
# 0.31 <= 0.3 + 0.01 and 0.4 <= 0.3 + 0.1 hold.
ROUNDING_ENDPOINTS = (0.1, 0.2, 0.1 + 0.2, 0.3, 0.29, 0.31, 0.4, 0.7, 0.69, 0.71)
Iv = ConcreteInterval
KERNEL_EPS = st.one_of(st.sampled_from((0.0, 0.01, 0.1, 0.25)), st.floats(0, 1))
QUARTER_SPANS = st.tuples(st.integers(-8, 8), st.integers(1, 8)).map(
    lambda t: ConcreteInterval(t[0] / 4, (t[0] + t[1]) / 4)
)


@st.composite
def kernel_spans(draw, eps):
    """An interval between two endpoints, or from one endpoint to it plus
    eps, 2 * eps, 3 * eps or some quarters: quarters put endpoints exactly
    eps apart when eps is 0.25, and widths of at most 2 * eps collapse."""
    endpoint = st.one_of(
        st.integers(-8, 8).map(lambda q: q / 4),
        st.sampled_from(ROUNDING_ENDPOINTS),
        st.floats(-2, 2, allow_nan=False),
    )
    start = draw(endpoint)
    end = draw(st.one_of(
        endpoint,
        st.sampled_from((start + eps, start + 2 * eps, start + 3 * eps)),
        st.integers(1, 8).map(lambda q: start + q / 4),
    ))
    start, end = min(start, end), max(start, end)
    return ConcreteInterval(start, end if start < end else start + 0.25)


@st.composite
def kernel_cases(draw):
    eps = draw(KERNEL_EPS)
    return eps, draw(kernel_spans(eps)), draw(st.lists(kernel_spans(eps), max_size=10))


class TestRelationRows:
    """`relation_rows` reads many relations at once; pair by pair it says
    what `relation_from_endpoints` says, and a collapsed interval is in no
    row."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    @example((0.25, Iv(0, 1), [Iv(1.25, 3), Iv(1.5, 3)]))
    @example((0.01, Iv(0, 0.3), [Iv(0.31, 1), Iv(0.29, 1)]))
    @example((0.0, Iv(0, 0.1 + 0.2), [Iv(0.3, 1)]))
    @example((0.01, Iv(0, 1), [Iv(1, 1.01), Iv(1, 1.02)]))
    @example((0.25, Iv(0, 0.5), [Iv(0, 1)]))
    def test_rows_agree_with_relation_from_endpoints(self, case):
        eps, anchor, others = case
        rows = relation_rows(anchor, [(b, iv.start, iv.end) for b, iv in enumerate(others)], eps)
        assert len(rows) == 13
        assert reduce(or_, rows, 0) < 1 << len(others)
        for b, iv in enumerate(others):
            try:
                expected = [relation_from_endpoints(anchor, iv, eps).index]
            except DegenerateInterval:
                expected = []
            assert [p for p, row in enumerate(rows) if row >> b & 1] == expected, (b, iv)

    @given(st.sampled_from((0.0, 0.25, 0.5)), QUARTER_SPANS, QUARTER_SPANS)
    def test_quarter_grid_matches_case_analysis(self, eps, a, b):
        if min(a.end - a.start, b.end - b.start) <= 2 * eps:
            with pytest.raises(DegenerateInterval):
                relation_from_endpoints(a, b, eps)
        else:
            assert relation_from_endpoints(a, b, eps) is relation_case_analysis(a, b, eps)

    @pytest.mark.parametrize(
        "eps, anchor, other, expected",
        [
            (0.25, (0, 1), (1.25, 3), BaseRelation.MEETS),  # exactly eps apart
            (0.25, (0, 1), (1.5, 3), BaseRelation.BEFORE),
            (0.01, (0, 0.3), (0.31, 1), BaseRelation.BEFORE),  # rounds just above eps
            (0.1, (0, 0.3), (0.4, 1), BaseRelation.BEFORE),
            (0.0, (0, 0.1 + 0.2), (0.3, 1), BaseRelation.OVERLAPS),
            (0.01, (0, 0.1 + 0.2), (0.3, 1), BaseRelation.MEETS),
            (0.01, (0, 1), (1, 1.02), BaseRelation.MEETS),  # 1.02 - 1 > 0.02
            (0.01, (0, 1), (1, 1.01), None),  # width eps: a widened point
            (0.25, (0, 1), (2, 2.5), None),  # width exactly 2 * eps
            (0.25, (0, 0.5), (0, 1), None),  # a collapsed anchor
        ],
    )
    def test_boundary_cases(self, eps, anchor, other, expected):
        rows = relation_rows(ConcreteInterval(*anchor), [(3, *other)], eps)
        bit = 0 if expected is None else 1 << expected.index
        assert rows == [1 << 3 if 1 << p == bit else 0 for p in range(13)]

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            relation_rows(ConcreteInterval(0, 1), [], -0.1)


class TestConstraintNetwork:
    def test_transitive_before(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b"))
        net.constrain("B", "C", rs("b"))
        assert net.propagate().consistent
        assert net.query_relation("A", "C") == rs("b")

    def test_precedence_cycle_inconsistent(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b"))
        net.constrain("B", "C", rs("b"))
        net.constrain("C", "A", rs("b"))
        result = net.propagate()
        assert not result.consistent
        assert result.witness is not None

    def test_overlap_chain(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("o"))
        net.constrain("B", "C", rs("o"))
        assert net.propagate().consistent
        assert net.query_relation("A", "C") == rs("b m o")

    def test_converse_closure(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b"))
        net.propagate()
        assert net.query_relation("B", "A") == rs("bi")

    def test_unconstrained_pair_is_full(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b"))
        net.add_variable("C")
        net.propagate()
        assert net.query_relation("A", "C").is_full

    def test_self_label_is_eq(self):
        net = ConstraintNetwork()
        net.add_variable("A")
        net.propagate()
        assert net.query_relation("A", "A") == rs("eq")

    def test_stale_query_rejected(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b"))
        with pytest.raises(StaleNetwork):
            net.query_relation("A", "B")
        with pytest.raises(StaleNetwork):
            net.masks()

    def test_masks_match_queries(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b m"))
        net.constrain("B", "C", rs("o"))
        net.add_variable("D")
        assert net.propagate().consistent
        order = net.variables
        assert order == ("A", "B", "C", "D")
        assert net.masks() == tuple(
            tuple(net.query_relation(a, b).mask for b in order) for a in order
        )

    def test_unknown_variable(self):
        net = ConstraintNetwork()
        net.add_variable("A")
        with pytest.raises(UnknownVariable):
            net.get_label("A", "Z")

    def test_empty_label_is_inconsistent_with_two_variables(self):
        net = ConstraintNetwork()
        net.constrain("B", "A", RelationSet.empty())
        result = net.propagate()
        assert (result.consistent, result.witness) == (False, ("B", "A"))

    def test_empty_label_is_the_witness_with_a_third_variable(self):
        # Path consistency would empty (A, C) first; the label constrained
        # empty is the one to name.
        net = ConstraintNetwork()
        net.constrain("A", "B", RelationSet.empty())
        net.constrain("B", "C", rs("b"))
        result = net.propagate()
        assert (result.consistent, result.witness) == (False, ("A", "B"))

    def test_rejected_self_constraint_leaves_network_unchanged(self):
        net = ConstraintNetwork()
        net.constrain("A", "B", rs("b"))
        assert net.propagate().consistent
        with pytest.raises(ValueError):
            net.constrain("X", "X", rs("eq"))
        assert net.variables == ("A", "B")
        assert net.query_relation("A", "B") == rs("b")  # not stale

    def test_propagation_never_drops_realizable_relations(self):
        # soundness: any base relation witnessed by a concrete realization
        # survives propagation
        rng = random.Random(21)
        for _ in range(40):
            names = ["A", "B", "C", "D"][: rng.randint(3, 4)]
            labels = {}
            net = ConstraintNetwork()
            for v in names:
                net.add_variable(v)
            pairs = [
                (names[i], names[j])
                for i in range(len(names))
                for j in range(i + 1, len(names))
            ]
            for pair in rng.sample(pairs, rng.randint(1, len(pairs))):
                label = RelationSet.of(*rng.sample(ALL, rng.randint(1, 3)))
                labels[pair] = label
                net.constrain(pair[0], pair[1], label)
            if not net.propagate().consistent:
                assert not network_realizable(names, labels)
                continue
            for i, j in pairs:
                for r in ALL:
                    probe = dict(labels)
                    probe[(i, j)] = probe.get((i, j), RelationSet.full()) & RelationSet.of(r)
                    if probe[(i, j)].is_empty:
                        continue
                    if network_realizable(names, probe):
                        assert r in net.query_relation(i, j)

    def test_propagation_idempotent(self):
        rng = random.Random(13)
        for _ in range(50):
            net = ConstraintNetwork()
            names = ["A", "B", "C", "D"]
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    if rng.random() < 0.6:
                        label = RelationSet.of(*rng.sample(ALL, rng.randint(1, 4)))
                        net.constrain(names[i], names[j], label)
            if not net.propagate().consistent:
                continue
            first = net.snapshot()
            assert net.propagate().consistent
            assert net.snapshot() == first

    def test_labels_converse_closed_in_both_orientations(self):
        def assert_converse_closed(net, names):
            for i in names:
                for j in names:
                    assert net.get_label(j, i) == net.get_label(i, j).converse(), (i, j)

        rng = random.Random(31)
        for _ in range(60):
            names = [f"V{i}" for i in range(rng.randint(3, 8))]
            net = ConstraintNetwork()
            for v in names:
                net.add_variable(v)
            for _ in range(rng.randint(1, 2 * len(names))):
                a, b = sorted(rng.sample(names, 2), key=names.index, reverse=True)
                net.constrain(a, b, RelationSet(rng.randrange(1, 1 << 13)))
            assert_converse_closed(net, names)
            net.propagate()
            assert_converse_closed(net, names)


@st.composite
def networks(draw):
    """A variable count n of 4-16 (the benchmark's networks have 6-16) and
    at least n constraints over random ordered pairs, some pairs constrained
    twice or in both orientations, with arbitrary labels, the empty one
    included."""
    n = draw(st.integers(4, 16))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    label = st.integers(0, (1 << 13) - 1).map(RelationSet)
    size = {"min_size": n, "max_size": n * (n - 1) // 2 + 4}
    constraints = draw(st.lists(st.tuples(pair, label), **size))
    return n, [(i, j, r) for (i, j), r in constraints]


class TestPropagationOracle:
    @settings(max_examples=60, deadline=None)
    @given(networks())
    def test_propagate_matches_per_bit_oracle(self, network):
        # Same queue, per-base-pair composition: the pair tables leave every
        # label and every witness as the 13x13 definition gives them. The
        # oracle still skips k in (i, j) and has no full-label skip, so a
        # match also shows that leaving both out of `propagate` changes
        # nothing.
        n, constraints = network
        names = [f"v{k}" for k in range(n)]
        net = ConstraintNetwork()
        for v in names:
            net.add_variable(v)
        for i, j, r in constraints:
            net.constrain(names[i], names[j], r)
        result = net.propagate()
        consistent, witness, labels = propagate_oracle(n, constraints)
        assert result.consistent == consistent
        assert result.witness == (None if witness is None else tuple(names[k] for k in witness))
        for a in range(n):
            for b in range(n):
                assert net.get_label(names[a], names[b]) == labels[a][b], (a, b)
