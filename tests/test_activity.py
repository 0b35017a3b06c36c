import pytest

from soma_kit import (
    BaseRelation,
    Binding,
    ConceptKind,
    ConcreteInterval,
    ConditionalSuccedence,
    Description,
    Entity,
    EntityKind,
    Episode,
    EventTypeRef,
    Goal,
    Interpretation,
    OntologyStore,
    PhaseConstraint,
    RelationSet,
    Scene,
    Situation,
    Token,
    TokenClass,
    check_goal,
    compile_constraints,
    interpretation_square_violations,
    relation_from_endpoints,
    validate_description,
    verify_interpretation,
)
from soma_kit.activity import HAS_PHASE, RELATION_VOCABULARY, binding_classes
from soma_kit.errors import KindMismatch, TemporallyInconsistent

FLOW = ConceptKind.PROCESS_FLOW_DESCR


def rs(codes):
    return RelationSet.from_codes(codes)


def build_store():
    store = OntologyStore()
    store.add_concept("Pouring", ConceptKind.TASK, concept_id="Pouring")
    store.add_concept("Approaching", ConceptKind.PROCESS_TYPE, concept_id="Approaching")
    store.add_concept("Tilting", ConceptKind.PROCESS_TYPE, concept_id="Tilting")
    store.add_concept("Contact", ConceptKind.STATE_TYPE, concept_id="Contact")
    store.add_concept("Touching", ConceptKind.STATE_TYPE, parents={"Contact"}, concept_id="Touching")
    for role in ("Patient", "Source", "Destination"):
        store.add_concept(role, ConceptKind.ROLE, concept_id=role)
    return store


def pouring_plan(goal=None):
    return Description(
        id="PouringPlan",
        defines=EventTypeRef(
            "Pouring_0", "Pouring", uses_roles=("Patient", "Source", "Destination")
        ),
        phases=(
            EventTypeRef("Approaching_0", "Approaching", uses_roles=("Destination",)),
            EventTypeRef("Tilting_0", "Tilting", uses_roles=("Patient",)),
        ),
        constraints=(
            PhaseConstraint("Pouring_0", RELATION_VOCABULARY["startedBy"], "Approaching_0"),
            PhaseConstraint("Approaching_0", RELATION_VOCABULARY["overlapsWith"], "Tilting_0"),
        ),
        bindings=(
            Binding("Binding_1", frozenset({("Pouring_0", "Source"), ("Tilting_0", "Patient")})),
        ),
        goal=goal,
    )


class TestValidation:
    def test_pouring_plan_is_clean(self):
        store = build_store().freeze()
        assert validate_description(pouring_plan(), store) == []

    def test_dangling_phase_reference(self):
        store = build_store().freeze()
        plan = Description(
            id="P",
            defines=EventTypeRef("Pouring_0", "Pouring"),
            phases=(EventTypeRef("Approaching_0", "Approaching"),),
            constraints=(
                PhaseConstraint("Approaching_0", rs("b"), "Lifting_9"),
            ),
        )
        issues = validate_description(plan, store)
        assert any(i.code == "unknown-phase" for i in issues)

    def test_temporal_contradiction(self):
        store = build_store().freeze()
        plan = Description(
            id="P",
            defines=EventTypeRef("Pouring_0", "Pouring"),
            phases=(
                EventTypeRef("A", "Approaching"),
                EventTypeRef("B", "Tilting"),
            ),
            constraints=(
                PhaseConstraint("A", rs("b"), "B"),
                PhaseConstraint("B", rs("b"), "A"),
            ),
        )
        issues = validate_description(plan, store)
        assert any(i.code == "temporally-inconsistent" for i in issues)

    def test_unknown_concept(self):
        store = build_store().freeze()
        plan = Description(id="P", defines=EventTypeRef("X_0", "Levitating"), phases=())
        issues = validate_description(plan, store)
        assert any(i.code == "unknown-concept" for i in issues)

    def test_cross_wired_defines_kind(self):
        store = build_store().freeze()
        flow = Description(id="F", defines=EventTypeRef("Pouring_0", "Pouring"), kind=FLOW)
        issues = validate_description(flow, store)
        assert any(i.code == "kind-mismatch" for i in issues)

    @pytest.mark.parametrize(
        "defines", [None, EventTypeRef("Pouring_0", "Pouring")], ids=["none", "a-task"]
    )
    def test_kind_must_be_a_description_kind(self, defines):
        # The reader knows only the two tags, so no other kind is built.
        for kind in set(ConceptKind) - {ConceptKind.PLAN_DESCR, FLOW}:
            with pytest.raises(KindMismatch, match="^description D: not a plan or process_flow"):
                Description("D", defines, kind=kind)

    def test_binding_needs_two_slots(self):
        store = build_store().freeze()
        plan = Description(
            id="P",
            defines=EventTypeRef("Pouring_0", "Pouring", uses_roles=("Source",)),
            phases=(),
            bindings=(Binding("B1", frozenset({("Pouring_0", "Source")})),),
        )
        issues = validate_description(plan, store)
        assert any(i.code == "binding-too-small" for i in issues)

    def test_valid_implies_compilable(self):
        # metamorphic pairing: no issues -> compile does not raise
        store = build_store().freeze()
        plan = pouring_plan()
        assert validate_description(plan, store) == []
        compile_constraints(plan)


class TestCompilation:
    def test_fig2_relations(self):
        net = compile_constraints(pouring_plan())
        assert net.query_relation("Approaching_0", "Tilting_0") == rs("o")
        assert net.query_relation("Pouring_0", "Approaching_0") == rs("si")

    def test_unconstrained_phases_stay_unconstrained(self):
        flow = Description(
            id="F",
            phases=(EventTypeRef("A", "Approaching"), EventTypeRef("B", "Tilting")),
            kind=FLOW,
        )
        net = compile_constraints(flow)
        assert net.query_relation("A", "B").is_full

    def test_has_phase_is_phase_within_whole(self):
        # Oracle: a phase and its whole, realized as concrete intervals with
        # endpoints on a grid of four, stand in a relation of HAS_PHASE iff
        # the phase lies within or coincides with the whole.
        spans = [ConcreteInterval(a, b) for a in range(4) for b in range(a + 1, 4)]
        realized = set()
        for phase in spans:
            for whole in spans:
                relation = relation_from_endpoints(phase, whole)
                realized.add(relation)
                within = whole.start <= phase.start and phase.end <= whole.end
                assert (relation in HAS_PHASE) == within, (phase, whole, relation)
        assert realized == set(BaseRelation)

    def test_succedence_maps_to_before_or_meets(self):
        plan = Description(
            id="P",
            defines=EventTypeRef("Pouring_0", "Pouring"),
            phases=(EventTypeRef("T1", "Approaching"), EventTypeRef("T2", "Tilting")),
            succedences=(ConditionalSuccedence("S1", "T1", "T2"),),
        )
        net = compile_constraints(plan)
        assert net.query_relation("T1", "T2") == rs("b m")

    def test_inconsistent_plan_raises(self):
        plan = Description(
            id="P",
            defines=EventTypeRef("Pouring_0", "Pouring"),
            phases=(EventTypeRef("A", "Approaching"), EventTypeRef("B", "Tilting")),
            constraints=(
                PhaseConstraint("A", rs("b"), "B"),
                PhaseConstraint("B", rs("b"), "A"),
            ),
        )
        with pytest.raises(TemporallyInconsistent):
            compile_constraints(plan)

    def test_empty_label_raises(self):
        flow = Description(
            id="F",
            phases=(EventTypeRef("A", "Approaching"), EventTypeRef("B", "Tilting")),
            constraints=(PhaseConstraint("A", RelationSet.empty(), "B"),),
            kind=FLOW,
        )
        with pytest.raises(TemporallyInconsistent, match="between A and B"):
            compile_constraints(flow)

    def test_deterministic(self):
        a = compile_constraints(pouring_plan()).masks()
        b = compile_constraints(pouring_plan()).masks()
        assert a == b


def pouring_episode():
    """Approaching the bowl overlapped by tilting the pot."""
    scene = Scene({e: Entity(e, e, EntityKind.OBJECT, e) for e in ("bowl", "pot", "cup")})
    tokens = (
        Token("t0", TokenClass.MOTION_EVENT, "Approaching", ("bowl",), ConcreteInterval(0.0, 2.0)),
        Token("t1", TokenClass.MOTION_EVENT, "Tilting", ("pot",), ConcreteInterval(1.0, 3.0)),
    )
    return Episode("e", tokens, scene)


def verifies(role_grounding):
    """Whether the pouring plan's interpretation of `pouring_episode` that
    grounds Approaching_0 to t0, Tilting_0 to t1 and the roles as given
    verifies."""
    store = build_store().freeze()
    phases = (("Approaching_0", "t0"), ("Tilting_0", "t1"))
    interp = Interpretation("PouringPlan", phases, tuple(role_grounding.items()), 1.0, 0.0)
    return verify_interpretation(interp, pouring_episode(), [pouring_plan()], store)


class TestBindings:
    def test_same_entity_satisfies(self):
        grounding = {("Approaching_0", "Destination"): "bowl", ("Tilting_0", "Patient"): "pot"}
        assert verifies({**grounding, ("Pouring_0", "Source"): "pot"})

    def test_distinct_entities_fail(self):
        grounding = {("Approaching_0", "Destination"): "bowl", ("Tilting_0", "Patient"): "pot"}
        assert not verifies({**grounding, ("Pouring_0", "Source"): "cup"})

    def test_no_bindings_vacuous(self):
        flow = Description(id="F", phases=(EventTypeRef("A", "Approaching"),), kind=FLOW)
        assert binding_classes(flow) == []

    def test_missing_slot(self):
        # A bound slot the interpretation leaves ungrounded.
        grounding = {("Approaching_0", "Destination"): "bowl", ("Tilting_0", "Patient"): "pot"}
        assert not verifies(grounding)

    def test_equivalence_closure_insensitive(self):
        # Bindings that share a slot merge into one class, in any order.
        a, b, c, d = (("A", "R"), ("B", "R"), ("C", "R"), ("D", "R"))
        bindings = (
            Binding("b1", frozenset({a, b})),
            Binding("b2", frozenset({c, d})),
            Binding("b3", frozenset({b, c})),
        )
        for order in (bindings, bindings[::-1]):
            plan = Description("P", bindings=order)
            assert binding_classes(plan) == [frozenset({a, b, c, d})]


class TestGoals:
    def test_achieved_with_subsumed_state(self):
        store = build_store().freeze()
        goal = Goal("G", ((("Contact"), ("Patient", "Destination")),))
        situation = Situation(
            id="S",
            terminal_states=frozenset({("Touching", ("water", "bowl"))}),
            role_grounding=(("Patient", "water"), ("Destination", "bowl")),
        )
        assert check_goal(goal, situation, store).achieved

    def test_not_achieved_reports_missing(self):
        store = build_store().freeze()
        goal = Goal("G", ((("Contact"), ("Patient", "Destination")),))
        situation = Situation(
            id="S",
            terminal_states=frozenset(),
            role_grounding=(("Patient", "water"), ("Destination", "bowl")),
        )
        result = check_goal(goal, situation, store)
        assert not result.achieved
        assert result.missing == ("Contact",)

    def test_empty_goal_vacuously_achieved(self):
        store = build_store().freeze()
        assert check_goal(Goal("G", ()), Situation(id="S"), store).achieved

    def test_wrong_grounding_not_achieved(self):
        store = build_store().freeze()
        goal = Goal("G", ((("Contact"), ("Patient", "Destination")),))
        situation = Situation(
            id="S",
            terminal_states=frozenset({("Contact", ("bowl", "water"))}),
            role_grounding=(("Patient", "water"), ("Destination", "bowl")),
        )
        assert not check_goal(goal, situation, store).achieved


class TestInterpretationSquare:
    @staticmethod
    def pouring_edge(store):
        act = Entity("act1", "act1", EntityKind.ACTION, "Pouring", participants=("pot",))
        assert store.check_classification("Pouring", act)
        return [("Pouring", act)]

    def test_square_closes_on_consistent_data(self):
        store = build_store().freeze()
        plan = pouring_plan()
        situation = Situation(id="S", included_events=frozenset({"act1"}), satisfies=plan.id)
        violations = interpretation_square_violations(
            [situation], {plan.id: plan}, self.pouring_edge(store)
        )
        assert violations == []

    def test_event_without_setting_is_reported(self):
        store = build_store().freeze()
        plan = pouring_plan()
        situation = Situation(id="S", included_events=frozenset(), satisfies=plan.id)
        violations = interpretation_square_violations(
            [situation], {plan.id: plan}, self.pouring_edge(store)
        )
        assert any("no setting" in v for v in violations)

    def test_non_event_classification_is_reported(self):
        store = build_store().freeze()
        plan = pouring_plan()
        pot = Entity("pot", "pot", EntityKind.OBJECT, "Pot")
        situation = Situation(id="S", included_events=frozenset({"pot"}), satisfies=plan.id)
        violations = interpretation_square_violations(
            [situation], {plan.id: plan}, [("Pouring", pot)]
        )
        assert violations == ["Pouring classifies non-event entity pot"]
