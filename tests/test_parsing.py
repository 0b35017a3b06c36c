import dataclasses
import gc
import json
import math
import pathlib
import random
import weakref
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from soma_kit import (
    Binding,
    ConceptKind,
    ConditionalSuccedence,
    ConcreteInterval,
    Description,
    Entity,
    EntityKind,
    Episode,
    EventTypeRef,
    Interpretation,
    OntologyStore,
    PhaseConstraint,
    RawEvent,
    Scene,
    Token,
    TokenClass,
    load_episode,
    load_library,
    parse,
    rank,
    tokenize,
    verify_interpretation,
)
from soma_kit import activity, cli, parsing
from soma_kit.activity import RELATION_VOCABULARY, validate_description
from soma_kit.allen import RelationSet, relation_from_endpoints
from soma_kit.errors import (
    DanglingReference,
    DegenerateInterval,
    NegativeDuration,
    ValidationFailed,
)
from soma_kit.formats import load_episode_document, load_library_document

from generators import (
    MOTIONS,
    RELATION_NAMES,
    ROLES,
    build_generator_store,
    random_case,
    random_episode,
    random_plan,
    random_scene,
)
from conftest import AMBIGUOUS_EPISODE, POURING_EPISODE, SEED_LIBRARY
from oracles import parse_oracle, tokenize_oracle, type_matches_oracle

ALL_DESCRIPTIONS_LIBRARY = (
    pathlib.Path(__file__).resolve().parent / "golden" / "all_descriptions_library.json"
)


def interp_key(i: Interpretation):
    return (i.plan, i.phase_grounding, i.role_grounding)


def token_dump(tokens):
    """Tokens with their times as reprs, so 1 vs 1.0 and 0.0 vs -0.0 differ."""
    return [
        (t.id, t.token_class, t.type_tag, t.participants,
         repr(t.interval.start), repr(t.interval.end))
        for t in tokens
    ]


# Ints next to equal floats, and both zeros, so ties keep their representation.
TIMES = (-0.0, 0, 0.0, 0.5, 1, 1.0, 2, 2.5, 3.0, 4, 4.0, 6.5)
raw_event = st.builds(
    lambda kind, tag, participants, times: RawEvent(
        kind, tag, participants, *sorted(times)
    ),
    st.sampled_from(tuple(TokenClass) + (TokenClass.STATE_CHANGE,) * 3),
    st.sampled_from(("Contact", "Separated", "Supported")),
    st.sampled_from((("a", "b"), ("b", "a"), ("a",), ("a", "c"))),
    st.tuples(st.sampled_from(TIMES), st.sampled_from(TIMES)),
)


@st.composite
def raw_event_lists(draw):
    events = draw(st.lists(raw_event, max_size=30))
    if events:
        events += draw(st.lists(st.sampled_from(events), max_size=10))
    return draw(st.permutations(events))


class TestTokenize:
    def test_point_event_widened(self):
        tokens = tokenize(
            [RawEvent(TokenClass.CONTACT_EVENT, "Contact", ("pot",), 2.0, 2.0)],
            eps=0.01,
        )
        assert len(tokens) == 1
        assert tokens[0].interval.start == 2.0
        assert tokens[0].interval.end == pytest.approx(2.01)

    def test_motion_passes_through(self):
        tokens = tokenize(
            [RawEvent(TokenClass.MOTION_EVENT, "Approaching", ("pot",), 0.0, 4.0)]
        )
        assert [(t.type_tag, t.interval.start, t.interval.end) for t in tokens] == [
            ("Approaching", 0.0, 4.0)
        ]

    def test_state_split_at_interruption(self):
        raw = [
            RawEvent(TokenClass.STATE_CHANGE, "Contact", ("pot", "table"), 0.0, 5.0),
            RawEvent(TokenClass.STATE_CHANGE, "Separated", ("pot", "table"), 2.0, 3.0),
        ]
        tokens = tokenize(raw)
        contact = [t for t in tokens if t.type_tag == "Contact"]
        assert [(t.interval.start, t.interval.end) for t in contact] == [(0.0, 2.0), (3.0, 5.0)]

    def test_homeomericity(self):
        # no state token overlaps a conflicting state over the same objects
        raw = [
            RawEvent(TokenClass.STATE_CHANGE, "Contact", ("a", "b"), 0.0, 10.0),
            RawEvent(TokenClass.STATE_CHANGE, "Separated", ("a", "b"), 2.0, 3.0),
            RawEvent(TokenClass.STATE_CHANGE, "Separated", ("b", "a"), 6.0, 7.0),
        ]
        tokens = tokenize(raw)
        states = [t for t in tokens if t.token_class is TokenClass.STATE_CHANGE]
        for t in states:
            for other in states:
                if t.type_tag == other.type_tag:
                    continue
                overlap = min(t.interval.end, other.interval.end) - max(
                    t.interval.start, other.interval.start
                )
                assert overlap <= 0

    def test_different_participants_do_not_split(self):
        raw = [
            RawEvent(TokenClass.STATE_CHANGE, "Contact", ("a", "b"), 0.0, 5.0),
            RawEvent(TokenClass.STATE_CHANGE, "Separated", ("a", "c"), 2.0, 3.0),
        ]
        contact = [t for t in tokenize(raw) if t.type_tag == "Contact"]
        assert len(contact) == 1

    def test_negative_duration_rejected(self):
        with pytest.raises(NegativeDuration):
            tokenize([RawEvent(TokenClass.MOTION_EVENT, "X", ("a",), 3.0, 1.0)])

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(DegenerateInterval, match="eps must be a positive finite number"):
            tokenize([RawEvent(TokenClass.CONTACT_EVENT, "X", ("a",), 1.0, 1.0)], eps)
        with pytest.raises(DegenerateInterval):
            tokenize([], eps)

    @settings(max_examples=400, deadline=None)
    @given(raw_event_lists(), st.sampled_from((0.01, 0.5, 2.0)))
    @example(  # equal cuts from events met in and out of input order
        [
            RawEvent(TokenClass.STATE_CHANGE, "Y", ("a",), 1, 3.0),
            RawEvent(TokenClass.STATE_CHANGE, "Y", ("a",), 0, 3),
            RawEvent(TokenClass.STATE_CHANGE, "X", ("a",), 1, 5),
        ],
        0.01,
    )
    def test_matches_per_event_definition(self, raws, eps):
        assert token_dump(tokenize(raws, eps)) == token_dump(tokenize_oracle(raws, eps))

    @pytest.mark.parametrize("t", [1e17, 2.0**53])
    def test_point_event_too_far_from_0_to_widen(self, t):
        raw = [
            RawEvent(TokenClass.MOTION_EVENT, "Reach", ("a",), 0.0, 1.0),
            RawEvent(TokenClass.CONTACT_EVENT, "Contact", ("a",), t, t),
        ]
        with pytest.raises(DegenerateInterval) as exc:
            tokenize(raw)
        assert str(exc.value) == f"event 1: Contact at {t} is too far from 0"

    def test_sorted_by_start(self):
        raw = [
            RawEvent(TokenClass.MOTION_EVENT, "B", ("a",), 5.0, 6.0),
            RawEvent(TokenClass.MOTION_EVENT, "A", ("a",), 0.0, 1.0),
        ]
        tokens = tokenize(raw)
        starts = [t.interval.start for t in tokens]
        assert starts == sorted(starts)


class TestParseSeed:
    def test_pouring_episode_single_interpretation(self, seed, pouring_episode):
        store, library = seed
        interps = parse(pouring_episode, library, store)
        assert len(interps) == 1
        grounding = dict(interps[0].phase_grounding)
        assert set(grounding) == {"Approaching_0", "Tilting_0"}

    def test_empty_episode(self, seed, pouring_episode):
        store, library = seed
        empty = pouring_episode.__class__(
            id="empty", tokens=(), scene=pouring_episode.scene, eps=0.01
        )
        assert parse(empty, library, store) == []

    def test_ambiguous_episode_two_interpretations(self, seed, ambiguous_episode):
        store, library = seed
        interps = parse(ambiguous_episode, library, store)
        assert len(interps) == 2
        approaches = {dict(i.phase_grounding)["Approaching_0"] for i in interps}
        assert len(approaches) == 2

    def test_every_emitted_interpretation_verifies(self, seed, pouring_episode, ambiguous_episode):
        store, library = seed
        for episode in (pouring_episode, ambiguous_episode):
            for i in parse(episode, library, store):
                assert verify_interpretation(i, episode, library, store)

    def test_determinism(self, seed, ambiguous_episode):
        store, library = seed
        first = parse(ambiguous_episode, library, store)
        second = parse(ambiguous_episode, library, store)
        assert first == second

    def test_monotone_in_library(self, seed, pouring_episode):
        store, library = seed
        base = {interp_key(i) for i in parse(pouring_episode, library, store)}
        duplicate = library[0].__class__(**{**library[0].__dict__, "id": "PouringPlanCopy"})
        extended = {interp_key(i) for i in parse(pouring_episode, list(library) + [duplicate], store)}
        assert base <= extended

    def test_doubled_participants_give_each_interpretation_once(self, seed, pouring_episode):
        # The role product runs over distinct participants, so listing each
        # one twice must not yield one interpretation more than once.
        store, library = seed
        doc = json.loads(POURING_EPISODE.read_text())
        for event in doc["events"]:
            event["participants"] = event["participants"] * 2
        doubled = load_episode_document(doc)
        got = parse(doubled, library, store)
        assert got == parse(pouring_episode, library, store)
        assert len(got) == 1
        assert verify_interpretation(got[0], doubled, library, store)

    def test_plan_without_phases_is_skipped(self, seed, pouring_episode):
        store, library = seed
        bare = Description("BarePlan", library[0].defines, ())
        with_bare = parse(pouring_episode, list(library) + [bare], store)
        assert with_bare == parse(pouring_episode, library, store)


NAMES = ("A", "B", "C")
TAXONOMY_KINDS = (
    ConceptKind.TASK,
    ConceptKind.PROCESS_TYPE,
    ConceptKind.STATE_TYPE,
    ConceptKind.ROLE,
    ConceptKind.PARAMETER,
)


@st.composite
def shared_name_taxonomies(draw):
    """A store whose concepts take their names from NAMES, so one name may
    label concepts of several kinds; parents are older concepts of the same
    kind."""
    store = OntologyStore()
    for i, kind in enumerate(draw(st.lists(st.sampled_from(TAXONOMY_KINDS), max_size=12))):
        same = [c.id for c in store.concepts() if c.kind is kind]
        parents = draw(st.lists(st.sampled_from(same), max_size=2, unique=True)) if same else []
        store.add_concept(draw(st.sampled_from(NAMES)), kind, parents, concept_id=f"c{i}")
    return store


class TestEventTypes:
    """A phase fits a token iff its concept is in `_event_types` of the
    token's type tag."""

    @settings(max_examples=200, deadline=None)
    @given(shared_name_taxonomies())
    def test_matches_type_oracle(self, store):
        for tag in NAMES + ("Unnamed",):
            token = Token("t0", TokenClass.MOTION_EVENT, tag, ("a",), ConcreteInterval(0.0, 1.0))
            fits = parsing._event_types(tag, store)
            for c in store.concepts():
                assert (c.id in fits) == type_matches_oracle(token, c.id, store)

    def test_unknown_phase_concept_raises(self):
        store, episode = two_reach_case()
        task = EventTypeRef("task0", "GenericTask")
        plan = Description("P", task, (EventTypeRef("ph0", "Ghost"),))
        interp = Interpretation("P", (("ph0", "t0"),), (), 0.5, 0.0)
        for call in (
            lambda: parse(episode, [plan], store),
            lambda: verify_interpretation(interp, episode, [plan], store),
        ):
            with pytest.raises(ValidationFailed) as exc:
                call()
            assert exc.value.issues == ["description P: unknown-concept: ph0 references Ghost"]

    def test_store_change_between_calls_is_seen(self):
        # Type matches are cached per call only, so a concept added to an
        # unfrozen store between two calls counts in the second.
        store = OntologyStore()
        store.add_concept("Motion", ConceptKind.PROCESS_TYPE, concept_id="Motion")
        store.add_concept("GenericTask", ConceptKind.TASK, concept_id="GenericTask")
        _, episode = two_reach_case()
        task = EventTypeRef("task0", "GenericTask")
        plan = Description("P", task, (EventTypeRef("ph0", "Motion"),))
        assert parse(episode, [plan], store) == []
        store.add_concept("Reach", ConceptKind.PROCESS_TYPE, parents={"Motion"}, concept_id="Reach")
        assert len(parse(episode, [plan], store)) == 2


class TestParseOracle:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(42)
        for _ in range(60):
            store, library, episode = random_case(rng)
            got = {interp_key(i) for i in parse(episode, library, store)}
            expected = parse_oracle(episode, library, store)
            assert got == expected

    def test_all_outputs_verify(self):
        rng = random.Random(99)
        for _ in range(30):
            store, library, episode = random_case(rng)
            for i in parse(episode, library, store):
                assert verify_interpretation(i, episode, library, store)


def two_reach_case():
    """A store, and an episode of two disjoint Reach tokens over one object."""
    scene = Scene({"a": Entity("a", "a", EntityKind.OBJECT, "Thing")})
    tokens = tuple(
        Token(f"t{i}", TokenClass.MOTION_EVENT, "Reach", ("a",), ConcreteInterval(s, s + 1.0))
        for i, s in enumerate((0.0, 2.0))
    )
    return build_generator_store(), Episode("e", tokens, scene)


def chain_plan(plan_id, *relations):
    """Plan of Reach phases ph0..phN, each related to the next by one named
    relation."""
    return Description(
        plan_id,
        EventTypeRef("task0", "GenericTask"),
        tuple(EventTypeRef(f"ph{i}", "Reach") for i in range(len(relations) + 1)),
        tuple(
            PhaseConstraint(f"ph{i}", RELATION_VOCABULARY[r], f"ph{i + 1}")
            for i, r in enumerate(relations)
        ),
    )


def assert_every_door_raises(plan, store, episode):
    """`parse`, `verify_interpretation` and `compile_constraints` on the
    plain-list plan `plan` raise ValidationFailed with the issues
    `validate_description` lists for it, prefixed with the plan's id."""
    expected = [f"description {plan.id}: {issue}" for issue in validate_description(plan, store)]
    assert expected
    interp = Interpretation(plan.id, (("ph0", "t0"), ("ph1", "t1")), (), 1.0, 0.0)
    for call in (
        lambda: parse(episode, [plan], store),
        lambda: verify_interpretation(interp, episode, [plan], store),
        lambda: activity.compile_constraints(plan),
    ):
        with pytest.raises(ValidationFailed) as exc:
            call()
        assert exc.value.issues == expected


class TestCompileOnce:
    """`parse` reads each plan's label table from the compiled library; a
    plain description list is compiled on the call that gets it."""

    def test_same_id_different_constraints_each_match_oracle(self):
        store, episode = two_reach_case()
        before, after = chain_plan("Same", "before"), chain_plan("Same", "after")
        results = []
        for plan in (before, after, before):
            got = {interp_key(i) for i in parse(episode, [plan], store)}
            assert got == parse_oracle(episode, [plan], store)
            results.append(got)
        assert results[0] != results[1]

    def test_repeat_and_dict_copy_parse_alike(self, seed, ambiguous_episode):
        store, library = seed
        first = parse(ambiguous_episode, library, store)
        assert first
        assert parse(ambiguous_episode, library, store) == first
        copies = [d.__class__(**d.__dict__) for d in library]
        assert parse(ambiguous_episode, copies, store) == first

    def test_memo_does_not_keep_descriptions_alive(self):
        store, episode = two_reach_case()
        plan = chain_plan("Transient", "before")
        assert parse(episode, [plan], store)
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert ref() is None

    def test_inconsistent_plan_raises_on_every_call(self):
        store, episode = two_reach_case()
        chain = chain_plan("Cycle", "before", "before")
        back = PhaseConstraint("ph2", RELATION_VOCABULARY["before"], "ph0")
        cycle = dataclasses.replace(chain, constraints=chain.constraints + (back,))
        for _ in range(3):
            with pytest.raises(ValidationFailed) as exc:
                parse(episode, [cycle], store)
            (issue,) = exc.value.issues
            assert issue.startswith("description Cycle: temporally-inconsistent: Cycle: empty label")

    @pytest.mark.parametrize("defect", ["self-constraint", "non-slot", "self-succedence"])
    def test_plain_list_malformed_endpoint_raises(self, defect):
        # A plan built in code meets the endpoint rule validation applies to
        # a loaded library, on every door into the search.
        store, episode = two_reach_case()
        plan = chain_plan("Bad", "before")
        before = RELATION_VOCABULARY["before"]
        if defect == "self-constraint":
            edit = {"constraints": (PhaseConstraint("ph0", before, "ph0"),)}
        elif defect == "non-slot":
            edit = {"constraints": (PhaseConstraint("ph0", before, "Ghost"),)}
        else:
            edit = {"succedences": (ConditionalSuccedence("s", "ph1", "ph1"),)}
        assert_every_door_raises(dataclasses.replace(plan, **edit), store, episode)

    @pytest.mark.parametrize("defect", ["phase-is-whole", "shared-phase-id"])
    def test_plain_list_duplicate_slot_raises(self, defect):
        # The duplicate-slot rule of validation holds for a plan built in
        # code: a phase named like the defined event, or two phases of one id.
        store, episode = two_reach_case()
        plan = chain_plan("Bad", "before")
        whole = plan.defines.id
        if defect == "phase-is-whole":
            edit = {
                "phases": (EventTypeRef(whole, "Reach"), plan.phases[1]),
                "constraints": (PhaseConstraint(whole, RELATION_VOCABULARY["before"], "ph1"),),
            }
        else:
            edit = {"phases": (plan.phases[0], plan.phases[0]), "constraints": ()}
        assert_every_door_raises(dataclasses.replace(plan, **edit), store, episode)

    def test_compiles_once_per_distinct_description(self, monkeypatch, capsys):
        compiled = []
        compile_constraints = activity.compile_constraints

        def counted(d):
            compiled.append(d.id)
            return compile_constraints(d)

        monkeypatch.setattr(activity, "compile_constraints", counted)
        store, library = load_library(SEED_LIBRARY)
        plans = [d.id for d in library]
        assert plans and compiled == plans
        for path in (POURING_EPISODE, AMBIGUOUS_EPISODE):
            episode = load_episode(path)
            interps = parse(episode, library, store)
            assert interps
            for interp in interps:
                assert verify_interpretation(interp, episode, library, store)
        assert compiled == plans
        argv = ["query", str(SEED_LIBRARY), "PouringPlan", "Approaching", "Tilting"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "o\n"
        assert compiled == plans * 2  # the query's own load; the query compiles nothing

    def test_masks_cover_every_slot_in_slot_order(self):
        """Row and column i of `masks` are slot i of `_slot_refs`: the defined
        event, if any, then the phases, for each kind of description."""
        store, library = load_library(ALL_DESCRIPTIONS_LIBRARY)
        assert any(d.defines is None for d in library)
        for d, plan in zip(library, library.compiled):
            assert library.plan(d.id) is plan and plan.description is d
            net = activity.compile_constraints(d)
            ids = [ref.id for ref in activity._slot_refs(d)]
            assert plan.masks == tuple(
                tuple(net.query_relation(a, b).mask for b in ids) for a in ids
            )
        assert library.plan("NoSuchPlan") is None

    def test_loaded_library_and_plain_list_agree(self, seed, ambiguous_episode, pouring_episode):
        store, library = seed
        assert isinstance(library, parsing.CompiledLibrary)
        plain = list(library)
        for episode in (pouring_episode, ambiguous_episode):
            interps = parse(episode, library, store)
            assert interps and parse(episode, plain, store) == interps
            for interp in interps:
                assert verify_interpretation(interp, episode, plain, store)
                assert verify_interpretation(interp, episode, library, store)
            wrong = dataclasses.replace(interps[0], role_grounding=())
            assert verify_interpretation(wrong, episode, plain, store) is verify_interpretation(
                wrong, episode, library, store
            )


# The oracle enumerates every injective phase-to-token map, so a plan gets
# at most as many phases as keep that count under this budget.
ORACLE_MAPS = 12_000
# Two motions, their parent and a tag no concept names: few enough that
# multi-phase plans often match.
WIDE_CONCEPTS = ("Reach", "Lift", "Motion")
WIDE_TAGS = ("Reach", "Lift", "Noise")


@st.composite
def realizable_plans(draw, plan_id, max_phases):
    """Validation-clean plans of 1 to `max_phases` phases whose labels,
    convex or not, all hold of one witness interval per phase, so every plan
    is consistent."""
    roles = st.lists(st.sampled_from(ROLES), max_size=1).map(tuple)
    phases = tuple(
        EventTypeRef(f"ph{i}", draw(st.sampled_from(WIDE_CONCEPTS)), draw(roles))
        for i in range(draw(st.integers(1, max_phases)))
    )
    witness = []
    for _ in phases:
        start = draw(st.integers(0, 6))
        witness.append(ConcreteInterval(start, start + draw(st.integers(1, 4))))
    constraints = []
    for i, p in enumerate(phases):
        for j in range(i + 1, len(phases)):
            if draw(st.booleans()):
                truth = relation_from_endpoints(witness[i], witness[j]).bit
                extra = draw(st.integers(0, 2**13 - 1)) if draw(st.booleans()) else 0
                constraints.append(PhaseConstraint(p.id, RelationSet(truth | extra), f"ph{j}"))
    slots = [(p.id, rid) for p in phases for rid in p.uses_roles]
    bindings = ()
    if len(slots) >= 2 and draw(st.booleans()):
        pair = draw(st.lists(st.sampled_from(slots), min_size=2, max_size=2, unique=True))
        bindings = (Binding("b0", frozenset(pair)),)
    return Description(
        plan_id, EventTypeRef("task0", "GenericTask"), phases, tuple(constraints), bindings
    )


@st.composite
def oracle_cases(draw):
    """Up to 3 plans over one shared concept pool and an episode of up to 12
    motion tokens on a half-unit grid; a point token is widened by eps, so
    it is degenerate under eps and anchors no temporal label."""
    store = build_generator_store()
    n_tokens = draw(st.integers(0, 12))
    max_phases = max(k for k in range(1, 6) if math.perm(n_tokens, k) <= ORACLE_MAPS)
    library = [
        draw(realizable_plans(f"P{k}", max_phases)) for k in range(draw(st.integers(1, 3)))
    ]
    for d in library:
        assume(not validate_description(d, store))
    scene = random_scene(random.Random(draw(st.integers(0, 2**32 - 1))))
    eps = draw(st.sampled_from((0.01, 0.25)))
    tokens = []
    for i in range(n_tokens):
        start = draw(st.integers(0, 16)) / 2
        end = start + eps if draw(st.integers(0, 3)) == 0 else start + draw(st.integers(1, 8)) / 2
        participants = draw(
            st.lists(st.sampled_from(sorted(scene.objects)), min_size=1, max_size=2, unique=True)
        )
        tag = draw(st.sampled_from(WIDE_TAGS))
        tokens.append(
            Token(f"t{i}", TokenClass.MOTION_EVENT, tag, tuple(participants),
                  ConcreteInterval(start, end))
        )
    tokens.sort(key=lambda t: (t.interval.start, t.interval.end, t.id))
    return store, library, Episode("gen", tuple(tokens), scene, eps)


class TestParseOracleWide:
    @settings(max_examples=120, deadline=None)
    @given(oracle_cases())
    def test_matches_oracle_and_verifies(self, case):
        store, library, episode = case
        got = parse(episode, library, store)
        assert got == rank(got)
        keys = [interp_key(i) for i in got]
        assert len(keys) == len(set(keys))
        assert set(keys) == parse_oracle(episode, library, store)
        assert len(got) == len(set(got))
        for i in got:
            assert verify_interpretation(i, episode, library, store)

    @settings(max_examples=60, deadline=None)
    @given(oracle_cases(), st.randoms(use_true_random=False))
    def test_participant_order_free(self, case, rnd):
        store, library, episode = case
        tokens = []
        for t in episode.tokens:
            participants = list(t.participants)
            rnd.shuffle(participants)
            tokens.append(dataclasses.replace(t, participants=tuple(participants)))
        reordered = dataclasses.replace(episode, tokens=tuple(tokens))
        assert parse(reordered, library, store) == parse(episode, library, store)

    @settings(max_examples=60, deadline=None)
    @given(oracle_cases(), st.randoms(use_true_random=False))
    def test_scene_order_free(self, case, rnd):
        """Role classes enumerate their entities in scene order; ranking
        hides that order, and each answer verifies under either order."""
        store, library, episode = case
        objects = list(episode.scene.objects.items())
        rnd.shuffle(objects)
        reordered = dataclasses.replace(episode, scene=Scene(dict(objects)))
        got = parse(reordered, library, store)
        assert got == parse(episode, library, store)
        for i in got:
            assert verify_interpretation(i, reordered, library, store)
            assert verify_interpretation(i, episode, library, store)


SOLO = Description("Solo", EventTypeRef("task0", "GenericTask"), (EventTypeRef("ph0", "Motion"),))


@st.composite
def wide_cases(draw):
    """Up to 2 plans of 1 or 2 phases, and the one-phase plan `Solo`, over
    an episode of 65 to 80 motion tokens: a phase's candidates then span
    more positions than a machine word holds. The last token is a widened
    point, which anchors no temporal label, so only a one-phase plan can
    ground it."""
    store = build_generator_store()
    library = [draw(realizable_plans(f"P{k}", 2)) for k in range(draw(st.integers(1, 2)))]
    for d in library:
        assume(not validate_description(d, store))
    scene = random_scene(random.Random(draw(st.integers(0, 2**32 - 1))))
    eps = draw(st.sampled_from((0.01, 0.25)))
    objects = st.lists(st.sampled_from(sorted(scene.objects)), min_size=1, max_size=2, unique=True)
    tokens = []
    for i in range(draw(st.integers(64, 79))):
        start = draw(st.integers(0, 16)) / 2
        end = start + eps if draw(st.integers(0, 7)) == 0 else start + draw(st.integers(1, 8)) / 2
        tokens.append(Token(f"t{i}", TokenClass.MOTION_EVENT, draw(st.sampled_from(WIDE_TAGS)),
                            tuple(draw(objects)), ConcreteInterval(start, end)))
    point = ConcreteInterval(9.0, 9.0 + eps)  # starts after every other token
    tokens.append(Token("point", TokenClass.MOTION_EVENT, draw(st.sampled_from(WIDE_TAGS[:2])),
                        tuple(draw(objects)), point))
    tokens.sort(key=lambda t: (t.interval.start, t.interval.end, t.id))
    return store, library + [SOLO], Episode("wide", tuple(tokens), scene, eps)


class TestParseOracleWideEpisodes:
    @settings(max_examples=15, deadline=None)
    @given(wide_cases())
    def test_matches_oracle_and_verifies(self, case):
        store, library, episode = case
        assert len(episode.tokens) > 64 and episode.tokens[-1].id == "point"
        got = parse(episode, library, store)
        assert {interp_key(i) for i in got} == parse_oracle(episode, library, store)
        assert len(got) == len(set(map(interp_key, got)))
        for i in got:
            assert verify_interpretation(i, episode, library, store)
        grounding_point = [i for i in got if "point" in dict(i.phase_grounding).values()]
        assert any(i.plan == "Solo" for i in grounding_point)
        assert all(len(i.phase_grounding) == 1 for i in grounding_point)


@st.composite
def bound_plans(draw):
    """Validation-clean plans with 1-3 bindings of 2-3 slots each. The
    defined task always uses roles, so bindings often chain through its
    slots, which no token grounds directly."""
    store = build_generator_store()
    roles = st.lists(st.sampled_from(ROLES), max_size=2, unique=True).map(tuple)
    task_roles = tuple(draw(st.permutations(ROLES)))[: draw(st.integers(1, 3))]
    defines = EventTypeRef("task0", "GenericTask", uses_roles=task_roles)
    phases = tuple(
        EventTypeRef(f"ph{i}", draw(st.sampled_from(MOTIONS + ("Motion",))), draw(roles))
        for i in range(draw(st.integers(1, 3)))
    )
    slots = [(ref.id, rid) for ref in (defines,) + phases for rid in ref.uses_roles]
    assume(len(slots) >= 2)
    bound = st.lists(st.sampled_from(slots), min_size=2, max_size=3, unique=True)
    bindings = tuple(
        Binding(f"b{k}", frozenset(group))
        for k, group in enumerate(draw(st.lists(bound, min_size=1, max_size=3)))
    )
    constraints = tuple(
        PhaseConstraint(p.id, RELATION_VOCABULARY[draw(st.sampled_from(RELATION_NAMES))], q.id)
        for i, p in enumerate(phases)
        for q in phases[i + 1:]
        if draw(st.booleans())
    )
    plan = Description("BoundPlan", defines, phases, constraints, bindings)
    assume(not validate_description(plan, store))
    return plan


class TestBindingClosure:
    def test_chain_through_defined_task_closes_in_either_order(self):
        # b1 binds two task slots that no token grounds; only b2 reaches a
        # phase slot, so (task, R) is grounded only if the chain closes.
        store = OntologyStore()
        store.add_concept("Motion", ConceptKind.PROCESS_TYPE, concept_id="Motion")
        store.add_concept("Task", ConceptKind.TASK, concept_id="Task")
        for role in ("R", "S"):
            store.add_concept(role, ConceptKind.ROLE, concept_id=role)
        store.freeze()
        b1 = Binding("b1", frozenset({("task", "R"), ("task", "S")}))
        b2 = Binding("b2", frozenset({("task", "S"), ("p1", "R")}))
        plan = Description(
            "P",
            EventTypeRef("task", "Task", uses_roles=("R", "S")),
            (EventTypeRef("p1", "Motion", uses_roles=("R",)),),
            bindings=(b1, b2),
        )
        assert validate_description(plan, store) == []
        token = Token("t0", TokenClass.MOTION_EVENT, "Motion", ("a",), ConcreteInterval(0.0, 1.0))
        scene = Scene({"a": Entity("a", "a", EntityKind.OBJECT, "Thing")})
        episode = Episode("e", (token,), scene)
        forward = parse(episode, [plan], store)
        backward = parse(episode, [dataclasses.replace(plan, bindings=(b2, b1))], store)
        assert forward == backward
        assert [i.role_grounding for i in forward] == [
            ((("p1", "R"), "a"), (("task", "R"), "a"), (("task", "S"), "a"))
        ]

    @settings(max_examples=300, deadline=None)
    @given(bound_plans(), st.integers(0, 2**32 - 1))
    def test_order_free_oracle_equal_and_verified(self, plan, seed):
        store = build_generator_store()
        episode = random_episode(random.Random(seed), max_tokens=6)
        got = parse(episode, [plan], store)
        assert len(got) == len(set(got))
        for order in permutations(plan.bindings):
            assert parse(episode, [dataclasses.replace(plan, bindings=order)], store) == got
        assert {interp_key(i) for i in got} == parse_oracle(episode, [plan], store)
        for i in got:
            assert verify_interpretation(i, episode, [plan], store)


class TestRank:
    def mk(self, plan, coverage, phases, start):
        return Interpretation(
            plan=plan,
            phase_grounding=tuple((f"p{k}", f"t{k}") for k in range(phases)),
            role_grounding=(),
            coverage=coverage,
            earliest_start=start,
        )

    def test_coverage_first(self):
        a = self.mk("x", 0.8, 1, 0.0)
        b = self.mk("y", 0.5, 1, 0.0)
        assert rank([b, a]) == [a, b]

    def test_equal_coverage_implies_equal_phase_count(self):
        # Why phase count is no rank key: within one parse, coverage is
        # phases / tokens, so it never separates two equal coverages.
        rng = random.Random(5)
        store = build_generator_store()
        for _ in range(200):
            library = [random_plan(rng, store, plan_id=f"P{k}") for k in range(4)]
            phases = {}
            for i in parse(random_episode(rng), library, store):
                phases.setdefault(i.coverage, set()).add(len(i.phase_grounding))
            assert all(len(counts) == 1 for counts in phases.values())

    def test_earliest_start_third(self):
        a = self.mk("x", 0.5, 2, 0.0)
        b = self.mk("y", 0.5, 2, 1.0)
        assert rank([b, a]) == [a, b]

    def test_plan_id_tiebreak(self):
        a = self.mk("alpha", 0.5, 2, 0.0)
        b = self.mk("beta", 0.5, 2, 0.0)
        assert rank([b, a]) == [a, b]
        assert rank([a, b]) == [a, b]


class TestVerify:
    def test_swapped_grounding_fails(self, seed, pouring_episode):
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        grounding = dict(interp.phase_grounding)
        swapped = Interpretation(
            plan=interp.plan,
            phase_grounding=tuple(
                sorted(
                    {
                        "Approaching_0": grounding["Tilting_0"],
                        "Tilting_0": grounding["Approaching_0"],
                    }.items()
                )
            ),
            role_grounding=interp.role_grounding,
            coverage=interp.coverage,
            earliest_start=interp.earliest_start,
        )
        assert not verify_interpretation(swapped, pouring_episode, library, store)

    def test_restriction_violation_fails(self, seed, pouring_episode):
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        bad_roles = tuple(
            (slot, "knife" if slot == ("Pouring_0", "Source") else entity)
            for slot, entity in interp.role_grounding
        )
        bad = Interpretation(
            plan=interp.plan,
            phase_grounding=interp.phase_grounding,
            role_grounding=bad_roles,
            coverage=interp.coverage,
            earliest_start=interp.earliest_start,
        )
        assert not verify_interpretation(bad, pouring_episode, library, store)
        # A slot listed twice, once with an entity its role does not admit.
        listed_twice = dataclasses.replace(
            interp,
            role_grounding=((("Approaching_0", "Destination"), "knife"),) + interp.role_grounding,
        )
        assert not verify_interpretation(listed_twice, pouring_episode, library, store)

    def test_entity_outside_its_token_fails(self, seed, pouring_episode):
        # t0, the Approaching token, has bowl as its only participant.
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        moved = dataclasses.replace(
            interp,
            role_grounding=tuple(
                (slot, "pot" if slot == ("Approaching_0", "Destination") else entity)
                for slot, entity in interp.role_grounding
            ),
        )
        assert not verify_interpretation(moved, pouring_episode, library, store)

    def test_two_phases_on_one_token_fail(self):
        store = build_generator_store()
        plan = Description(
            "P",
            EventTypeRef("task0", "GenericTask"),
            (EventTypeRef("ph0", "Motion"), EventTypeRef("ph1", "Motion")),
        )
        token = Token("t0", TokenClass.MOTION_EVENT, "Reach", ("a",), ConcreteInterval(0.0, 1.0))
        scene = Scene({"a": Entity("a", "a", EntityKind.OBJECT, "Thing")})
        episode = Episode("e", (token,), scene)
        shared = Interpretation("P", (("ph0", "t0"), ("ph1", "t0")), (), 1.0, 0.0)
        assert not verify_interpretation(shared, episode, [plan], store)

    def test_missing_phase_fails(self, seed, pouring_episode):
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        partial = dataclasses.replace(interp, phase_grounding=interp.phase_grounding[:1])
        assert not verify_interpretation(partial, pouring_episode, library, store)
        # One phase per entry: a phase listed twice is no interpretation either.
        listed_twice = dataclasses.replace(
            interp, phase_grounding=interp.phase_grounding[:1] + interp.phase_grounding
        )
        assert not verify_interpretation(listed_twice, pouring_episode, library, store)

    @pytest.mark.parametrize(
        "pair, message",
        [(("Ghost_0", "t0"), "unknown phase: Ghost_0"), (("Tilting_0", "t9"), "unknown token: t9")],
    )
    def test_dangling_phase_or_token(self, seed, pouring_episode, pair, message):
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        ghost = dataclasses.replace(interp, phase_grounding=interp.phase_grounding[:1] + (pair,))
        with pytest.raises(DanglingReference, match=message):
            verify_interpretation(ghost, pouring_episode, library, store)

    def test_groundings_out_of_order_pass(self, seed, pouring_episode):
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        assert len(interp.phase_grounding) > 1 and len(interp.role_grounding) > 1
        reversed_ = dataclasses.replace(
            interp,
            phase_grounding=interp.phase_grounding[::-1],
            role_grounding=interp.role_grounding[::-1],
        )
        assert verify_interpretation(reversed_, pouring_episode, library, store)

    @settings(max_examples=80, deadline=None)
    @given(oracle_cases(), st.randoms(use_true_random=False))
    def test_matches_oracle_under_one_mutation(self, case, rnd):
        """Each oracle interpretation verifies, and so does a copy with one
        phase's token or one slot's entity replaced iff the oracle has it."""
        store, library, episode = case
        expected = parse_oracle(episode, library, store)
        token_ids = [t.id for t in episode.tokens]
        entities = sorted(episode.scene.objects)
        for plan, phases, roles in sorted(expected)[:40]:
            assert verify_interpretation(
                Interpretation(plan, phases, roles, 0.0, 0.0), episode, library, store
            )
            if roles and rnd.random() < 0.5:
                k = rnd.randrange(len(roles))
                roles = roles[:k] + ((roles[k][0], rnd.choice(entities)),) + roles[k + 1:]
            else:
                k = rnd.randrange(len(phases))
                phases = phases[:k] + ((phases[k][0], rnd.choice(token_ids)),) + phases[k + 1:]
            mutant = Interpretation(plan, phases, roles, 0.0, 0.0)
            assert verify_interpretation(mutant, episode, library, store) == (
                (plan, phases, roles) in expected
            )

    @settings(max_examples=30, deadline=None)
    @given(oracle_cases())
    def test_matches_oracle_over_every_phase_map(self, case):
        """Every injective phase-to-token map of each plan, with the role
        groundings of that plan's oracle answers and with none, verifies iff
        the oracle has it."""
        store, library, episode = case
        expected = parse_oracle(episode, library, store)
        compiled = parsing.CompiledLibrary(library, store)
        for d in library:
            role_groundings = {roles for plan, _, roles in expected if plan == d.id} | {()}
            for tokens in permutations(episode.tokens, len(d.phases)):
                phases = tuple(sorted((p.id, t.id) for p, t in zip(d.phases, tokens)))
                for roles in role_groundings:
                    interp = Interpretation(d.id, phases, roles, 0.0, 0.0)
                    assert verify_interpretation(interp, episode, compiled, store) == (
                        (d.id, phases, roles) in expected
                    )

    def test_dangling_plan(self, seed, pouring_episode):
        store, library = seed
        ghost = Interpretation("NoSuchPlan", (), (), 0.0, 0.0)
        with pytest.raises(DanglingReference, match="unknown plan: NoSuchPlan"):
            verify_interpretation(ghost, pouring_episode, library, store)
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["descriptions"].append({"id": "EmptyFlow", "type": "process_flow", "phases": []})
        store, library = load_library_document(doc)
        empty = Interpretation("EmptyFlow", (), (), 0.0, 0.0)
        for descriptions in (library, list(library)):
            with pytest.raises(DanglingReference, match="EmptyFlow has no parseable"):
                verify_interpretation(empty, pouring_episode, descriptions, store)
