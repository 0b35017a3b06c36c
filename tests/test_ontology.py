import pytest
from hypothesis import given, settings, strategies as st

from soma_kit import (
    ConceptKind,
    Entity,
    EntityKind,
    HasDisposition,
    KindIs,
    OntologyStore,
    Quality,
    RegionWithin,
    TypeTagIn,
)
from soma_kit.ontology import And, Or
from soma_kit.errors import (
    BranchViolation,
    CycleError,
    KindMismatch,
    StoreFrozen,
    UnknownId,
)

from oracles import restriction_brute_force, subsumed_oracle

TAXONOMY_KINDS = (ConceptKind.TASK, ConceptKind.PROCESS_TYPE, ConceptKind.ROLE)


def make_pot(with_containment=True):
    dispositions = ("Containment",) if with_containment else ()
    return Entity("pot", "pot", EntityKind.OBJECT, "Pot", dispositions=dispositions)


@pytest.fixture
def store():
    return OntologyStore()


class TestTaxonomy:
    def test_subsumption_via_parent(self, store):
        physical = store.add_concept("PhysicalTask", ConceptKind.TASK)
        pouring = store.add_concept("Pouring", ConceptKind.TASK, {physical})
        assert store.is_subsumed_by(pouring, physical)
        assert not store.is_subsumed_by(physical, pouring)

    def test_reflexive(self, store):
        t = store.add_concept("Pouring", ConceptKind.TASK)
        assert store.is_subsumed_by(t, t)

    def test_transitive(self, store):
        a = store.add_concept("A", ConceptKind.TASK)
        b = store.add_concept("B", ConceptKind.TASK, {a})
        c = store.add_concept("C", ConceptKind.TASK, {b})
        assert store.is_subsumed_by(c, a)

    def test_self_parent_rejected(self, store):
        with pytest.raises(CycleError):
            store.add_concept("X", ConceptKind.TASK, {"X"}, concept_id="X")

    def test_unknown_parent(self, store):
        with pytest.raises(UnknownId):
            store.add_concept("X", ConceptKind.TASK, {"missing"})

    def test_kind_mismatch_parent(self, store):
        role = store.add_concept("Patient", ConceptKind.ROLE)
        with pytest.raises(KindMismatch):
            store.add_concept("Pouring", ConceptKind.TASK, {role})

    def test_multiple_parents_allowed(self, store):
        a = store.add_concept("A", ConceptKind.ROLE)
        b = store.add_concept("B", ConceptKind.ROLE)
        c = store.add_concept("C", ConceptKind.ROLE, {a, b})
        assert store.is_subsumed_by(c, a) and store.is_subsumed_by(c, b)

    def test_restriction_only_on_roles_and_parameters(self, store):
        with pytest.raises(KindMismatch):
            store.add_concept(
                "Pouring", ConceptKind.TASK, restriction=HasDisposition("Containment")
            )

    def test_frozen_store_rejects_mutation(self, store):
        store.add_concept("A", ConceptKind.TASK)
        store.freeze()
        with pytest.raises(StoreFrozen):
            store.add_concept("B", ConceptKind.TASK)

    def test_unknown_id_in_subsumption(self, store):
        t = store.add_concept("A", ConceptKind.TASK)
        with pytest.raises(UnknownId):
            store.is_subsumed_by("missing", t)
        with pytest.raises(UnknownId):
            store.is_subsumed_by(t, "missing")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_subsumption_matches_dfs(self, data):
        """Random per-kind DAGs, queried while concepts are still being
        added (so some closures are memoized before their descendants
        exist) and again, every ordered pair, after freeze()."""
        store = OntologyStore()
        ids = []
        for _ in range(data.draw(st.integers(1, 16), label="concepts")):
            kind = data.draw(st.sampled_from(TAXONOMY_KINDS))
            same_kind = [c for c in ids if store.concept(c).kind is kind]
            parents = (
                data.draw(st.lists(st.sampled_from(same_kind), max_size=3, unique=True))
                if same_kind
                else []
            )
            ids.append(store.add_concept(data.draw(st.sampled_from("ABC")), kind, parents))
            pairs = data.draw(
                st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4)
            )
            for a, b in pairs:
                assert store.is_subsumed_by(a, b) == subsumed_oracle(store, a, b)
        store.freeze()
        for a in ids:
            for b in ids:
                assert store.is_subsumed_by(a, b) == subsumed_oracle(store, a, b)
        for name in "ABC":
            scan = tuple(c for c in store.concepts() if c.name == name)
            assert store.concepts_named(name) == scan

    def test_deep_chain_needs_no_recursion(self, store):
        chain = [store.add_concept("C0", ConceptKind.TASK)]
        for i in range(1, 3000):
            chain.append(store.add_concept(f"C{i}", ConceptKind.TASK, {chain[-1]}))
        store.freeze()
        assert store.is_subsumed_by(chain[1500], chain[0])
        assert store.is_subsumed_by(chain[-1], chain[0])
        assert not store.is_subsumed_by(chain[0], chain[-1])
        assert len(store.ancestors(chain[-1])) == 3000


class TestClassification:
    def test_disposition_restriction_accepts(self, store):
        role = store.add_concept(
            "Container", ConceptKind.ROLE, restriction=HasDisposition("Containment")
        )
        assert store.check_classification(role, make_pot()) is True

    def test_missing_disposition_rejected(self, store):
        role = store.add_concept(
            "Container", ConceptKind.ROLE, restriction=HasDisposition("Containment")
        )
        knife = Entity("knife", "knife", EntityKind.OBJECT, "Knife")
        assert store.check_classification(role, knife) is False

    def test_unrestricted_role_accepts_any_object(self, store):
        role = store.add_concept("Patient", ConceptKind.ROLE)
        assert store.check_classification(role, make_pot(False)) is True

    def test_wrong_entity_kind_rejected(self, store):
        role = store.add_concept("Patient", ConceptKind.ROLE)
        action = Entity("a1", "a1", EntityKind.ACTION, "Grasping", participants=("pot",))
        assert store.check_classification(role, action) is False

    def test_descriptions_never_classify(self, store):
        plan = store.add_concept("PouringPlan", ConceptKind.PLAN_DESCR)
        with pytest.raises(BranchViolation):
            store.check_classification(plan, make_pot())

    def test_classification_matches_restriction_eval(self, store):
        # metamorphic pairing: accepted iff the restriction holds
        role = store.add_concept(
            "Container", ConceptKind.ROLE, restriction=HasDisposition("Containment")
        )
        for entity in (make_pot(True), make_pot(False)):
            expected = store.satisfies_restriction(entity, HasDisposition("Containment"))
            assert store.check_classification(role, entity) is expected


class TestEntityFields:
    """A non-object entity that carries an object's field is rejected, and
    the message names that field."""

    def test_non_object_qualities_named(self):
        with pytest.raises(KindMismatch, match=r"^only Object entities carry qualities: r$"):
            Entity("r", "r", EntityKind.REGION, "Speed", qualities=(Quality("Volume", 0.3, "l"),))

    def test_non_object_dispositions_named(self):
        with pytest.raises(KindMismatch, match=r"^only Object entities carry dispositions: r$"):
            Entity("r", "r", EntityKind.REGION, "Speed", dispositions=("Containment",))


class TestRestrictions:
    def test_region_bound_check(self, store):
        region = Entity("r1", "r1", EntityKind.REGION, "Speed", value=0.4, units="m/s")
        assert store.satisfies_restriction(region, RegionWithin(0, 1, "m/s"))
        assert not store.satisfies_restriction(region, RegionWithin(0.5, 1, "m/s"))

    def test_conjunction(self, store):
        pot = make_pot()
        r = And((KindIs(EntityKind.OBJECT), TypeTagIn(frozenset({"Pot", "Cup"}))))
        assert store.satisfies_restriction(pot, r)

    def test_quality_region(self, store):
        cup = Entity(
            "cup", "cup", EntityKind.OBJECT, "Cup",
            qualities=(Quality("Volume", 0.3, "l"),),
        )
        assert store.satisfies_restriction(cup, RegionWithin(0, 1, "l"))
        assert not store.satisfies_restriction(cup, RegionWithin(0, 1, "ml"))


# random restrictions of depth <= 4 checked against the independent evaluator
leaf = st.one_of(
    st.sampled_from([KindIs(k) for k in EntityKind]),
    st.sets(st.sampled_from(["Pot", "Cup", "Knife", "Board"]), min_size=1).map(
        lambda s: TypeTagIn(frozenset(s))
    ),
    st.sampled_from(["Containment", "Cutting", "Support"]).map(HasDisposition),
    st.tuples(
        st.floats(-2, 2, allow_nan=False), st.floats(0, 3, allow_nan=False),
        st.sampled_from(["m/s", "l"]),
    ).map(lambda t: RegionWithin(t[0], t[0] + t[1], t[2])),
)
restrictions = st.recursive(
    leaf,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(children, min_size=1, max_size=3).map(lambda xs: Or(tuple(xs))),
    ),
    max_leaves=8,
)

entities = st.builds(
    lambda tag, disp, qual, kind, value: Entity(
        "e", "e", kind, tag,
        dispositions=tuple(disp) if kind == EntityKind.OBJECT else (),
        qualities=tuple(
            Quality("Q", v, u) for v, u in qual
        ) if kind == EntityKind.OBJECT else (),
        value=value if kind == EntityKind.REGION else None,
        units="m/s" if kind == EntityKind.REGION else None,
    ),
    tag=st.sampled_from(["Pot", "Cup", "Knife", "Spoon"]),
    disp=st.sets(st.sampled_from(["Containment", "Cutting", "Support"])),
    qual=st.lists(
        st.tuples(st.floats(-3, 3, allow_nan=False), st.sampled_from(["m/s", "l"])),
        max_size=2,
    ),
    kind=st.sampled_from([EntityKind.OBJECT, EntityKind.REGION, EntityKind.ACTION]),
    value=st.floats(-3, 3, allow_nan=False),
)


@given(entities, restrictions)
def test_restriction_agrees_with_brute_force(entity, restriction):
    store = OntologyStore()
    assert store.satisfies_restriction(entity, restriction) == restriction_brute_force(
        entity, restriction
    )


@given(entities, restrictions)
def test_restriction_deterministic(entity, restriction):
    store = OntologyStore()
    first = store.satisfies_restriction(entity, restriction)
    assert store.satisfies_restriction(entity, restriction) == first


def region(value, units):
    return Entity("region", "region", EntityKind.REGION, "Region", value=value, units=units)


class TestParameters:
    """A Parameter classifies the region entities its restriction admits."""

    def test_within_region(self):
        store = OntologyStore()
        p = store.add_concept(
            "Speed", ConceptKind.PARAMETER, restriction=RegionWithin(0, 0.5, "m/s")
        )
        assert store.check_classification(p, region(0.3, "m/s"))
        assert not store.check_classification(p, region(0.7, "m/s"))
        assert not store.check_classification(p, region(0.3, "rad/s"))

    def test_unrestricted_accepts_all(self):
        store = OntologyStore()
        p = store.add_concept("Effort", ConceptKind.PARAMETER)
        assert store.check_classification(p, region(123.0, "N"))

    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 0.5, allow_nan=False),
        st.floats(0, 0.5, allow_nan=False),
    )
    def test_monotone_under_widening(self, value, widen_lo, widen_hi):
        store = OntologyStore()
        narrow = store.add_concept(
            "P1", ConceptKind.PARAMETER, restriction=RegionWithin(0.2, 0.8, "u")
        )
        wide = store.add_concept(
            "P2", ConceptKind.PARAMETER,
            restriction=RegionWithin(0.2 - widen_lo, 0.8 + widen_hi, "u"),
        )
        if store.check_classification(narrow, region(value, "u")):
            assert store.check_classification(wide, region(value, "u"))
