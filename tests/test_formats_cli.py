import contextlib
import io
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from soma_kit import (
    FORMAT_VERSION,
    CompiledLibrary,
    ConditionalSuccedence,
    RawEvent,
    TokenClass,
    dumps_canonical,
    load_episode,
    load_library,
    parse,
    serialize_episode,
    serialize_library,
    verify_interpretation,
)
from soma_kit.cli import main
from soma_kit.errors import (
    DegenerateInterval,
    NegativeDuration,
    ParseError,
    ValidationFailed,
    VersionMismatch,
)
from soma_kit.formats import (
    MAX_RESTRICTION_DEPTH,
    _add_concepts,
    _description_from_json,
    _event_times,
    load_episode_document,
    load_library_document,
    restriction_from_json,
    restriction_to_json,
)
from soma_kit.ontology import (
    ConceptKind,
    EntityKind,
    HasDisposition,
    KindIs,
    OntologyStore,
    Or,
    RegionWithin,
)

from conftest import AMBIGUOUS_EPISODE, POURING_EPISODE, SEED_LIBRARY
from oracles import add_concepts_fixpoint

ALL_DESCRIPTIONS_LIBRARY = (
    pathlib.Path(__file__).resolve().parent / "golden" / "all_descriptions_library.json"
)


class TestLibraryLoading:
    def test_seed_library_loads(self, seed):
        store, descriptions = seed
        assert store.frozen
        assert [d.id for d in descriptions] == ["PouringPlan"]

    def test_version_mismatch(self, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["version"] = "soma-kit/9"
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_library(path)

    def test_dangling_parent(self):
        doc = {
            "version": FORMAT_VERSION,
            "concepts": [
                {"id": "A", "name": "A", "kind": "task", "parents": ["Ghost"]}
            ],
        }
        with pytest.raises(ValidationFailed) as exc:
            load_library_document(doc)
        assert any("Ghost" in str(i) for i in exc.value.issues)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": "soma-kit/1",')
        with pytest.raises(ParseError) as exc:
            load_library(path)
        assert "1:" in str(exc.value)

    def test_structural_design_rejected(self):
        doc = {
            "version": FORMAT_VERSION,
            "concepts": [{"id": "D", "name": "D", "kind": "design", "parents": []}],
            "designs": [
                {
                    "concept": "D",
                    "aspect": "structural",
                    "restriction": {"op": "has_disposition", "disposition": "X"},
                }
            ],
        }
        with pytest.raises(ParseError, match="^design 0: design records are not supported$"):
            load_library_document(doc)

    @pytest.mark.parametrize("designs", ["absent", "empty"])
    def test_no_design_records_load(self, designs):
        doc = json.loads(SEED_LIBRARY.read_text())
        if designs == "absent":
            del doc["designs"]
        store, library = load_library_document(doc)
        assert store.has_concept("ContainerDesign")
        assert [d.id for d in library] == [d["id"] for d in doc["descriptions"]]

    def test_empty_affordances_list_loads(self):
        # Canonical files of earlier versions carry "affordances": [].
        doc = json.loads(SEED_LIBRARY.read_text())
        assert doc["affordances"] == []
        store, library = load_library_document(doc)
        assert store.concept("ContainmentAffordance").kind is ConceptKind.AFFORDANCE_DESCR
        assert [d.id for d in library] == ["PouringPlan"]

    @pytest.mark.parametrize("parameters", [None, []])
    def test_empty_slot_parameters_load(self, parameters):
        # Canonical files of earlier versions carry "parameters": [] on every slot.
        doc = json.loads(SEED_LIBRARY.read_text())
        plan = doc["descriptions"][0]
        for slot in [plan["defines"], *plan["phases"]]:
            slot["parameters"] = parameters
        assert load_library_document(doc)[1] == load_library(SEED_LIBRARY)[1]

    def test_null_affordance_loads(self):
        doc = json.loads(POURING_EPISODE.read_text())
        for obj in doc["scene"]["objects"]:
            for disposition in obj["dispositions"]:
                disposition["affordance"] = None
        assert load_episode_document(doc, episode_id="pouring_episode") == load_episode(
            POURING_EPISODE
        )

    @pytest.mark.parametrize("condition", ["absent", "null"])
    def test_unconditional_succedence_loads(self, condition):
        doc = json.loads(ALL_DESCRIPTIONS_LIBRARY.read_text())
        (succedence,) = doc["descriptions"][0]["succedences"]
        assert "condition" not in succedence
        if condition == "null":
            succedence["condition"] = None
        _, library = load_library_document(doc)
        assert library[0].succedences == (
            ConditionalSuccedence("Succedence_1", "Tilting_0", "Retracting_0"),
        )

    def test_invalid_description_lists_all_issues(self):
        doc = {
            "version": FORMAT_VERSION,
            "concepts": [{"id": "T", "name": "T", "kind": "task", "parents": []}],
            "descriptions": [
                {
                    "id": "P",
                    "type": "plan",
                    "defines": {"id": "t0", "concept": "T"},
                    "phases": [],
                    "constraints": [
                        {"left": "ghost1", "relation": "before", "right": "ghost2"}
                    ],
                }
            ],
        }
        with pytest.raises(ValidationFailed) as exc:
            load_library_document(doc)
        assert len(exc.value.issues) >= 2

    def test_duplicate_description_id(self):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["descriptions"].append(doc["descriptions"][0])
        with pytest.raises(ValidationFailed) as exc:
            load_library_document(doc)
        assert exc.value.issues == [
            "description PouringPlan: duplicate-description: id is used more than once"
        ]

    def test_duplicate_concept_id(self):
        doc = json.loads(SEED_LIBRARY.read_text())
        tilting = next(c for c in doc["concepts"] if c["id"] == "Tilting")
        doc["concepts"].append(dict(tilting, name="Shaking"))
        with pytest.raises(ValidationFailed) as exc:
            load_library_document(doc)
        assert exc.value.issues == [
            "concept Tilting: duplicate-concept: id is used more than once"
        ]

    @pytest.mark.parametrize("reused", ["phase", "defines"])
    def test_duplicate_slot_id(self, reused):
        doc = json.loads(SEED_LIBRARY.read_text())
        plan = doc["descriptions"][0]
        slot_id = plan["phases"][0]["id"] if reused == "phase" else plan["defines"]["id"]
        plan["phases"][1]["id"] = slot_id
        with pytest.raises(ValidationFailed) as exc:
            load_library_document(doc)
        assert (
            f"description PouringPlan: duplicate-slot: slot id {slot_id} is used more than once"
        ) in exc.value.issues


CONCEPT_IDS = [f"C{i}" for i in range(10)]


@st.composite
def concept_documents(draw):
    """Shuffled concept records over a few ids: repeated ids, parents that
    come later in the list, are missing (`Ghost`), are the concept itself or
    have another kind, and restrictions that are fine, not allowed on the
    kind, or malformed. Most records are tasks without a restriction, so
    that chains of several passes are common."""
    record = st.fixed_dictionaries(
        {
            "id": st.sampled_from(CONCEPT_IDS),
            "kind": st.sampled_from(["task"] * 9 + ["role"]),
            "parents": st.lists(st.sampled_from(CONCEPT_IDS + ["Ghost"]), max_size=2),
            "restriction": st.sampled_from(
                [None] * 12
                + [{"op": "kind_is", "kind": "object"}, {"op": "kind_is"}, {"op": "gadget"}]
            ),
        }
    )
    return {"concepts": draw(st.permutations(draw(st.lists(record, max_size=14))))}


def concept_load(add, doc):
    """(issues in order, concept ids in store order) after `add`, or the
    ParseError message."""
    store, issues = OntologyStore(), []
    try:
        add(doc, store, issues)
    except ParseError as exc:
        return str(exc)
    return issues, [c.id for c in store.concepts()]


class TestConceptLoadOrder:
    @settings(max_examples=600, deadline=None)
    @given(concept_documents())
    @example(
        {
            "concepts": [
                {"id": "X3", "kind": "task", "parents": ["Ghost", "X0"]},
                {"id": "X2", "kind": "task", "parents": ["X1"]},
                {"id": "X0", "kind": "task", "parents": []},
                {"id": "X1", "kind": "task", "parents": ["X0", "X2"]},
            ]
        }
    )
    @example(  # B waits for A, which comes later; D is added in A's pass, before B
        {
            "concepts": [
                {"id": "B", "kind": "task", "parents": ["A"]},
                {"id": "A", "kind": "task", "parents": []},
                {"id": "D", "kind": "task", "parents": []},
            ]
        }
    )
    def test_matches_fixpoint(self, doc):
        assert concept_load(_add_concepts, doc) == concept_load(add_concepts_fixpoint, doc)

    def test_reversed_chain(self):
        n = 300
        doc = {
            "concepts": [
                {"id": f"K{i}", "kind": "task", "parents": [f"K{i - 1}"] if i else []}
                for i in reversed(range(n))
            ]
        }
        expected = [f"K{i}" for i in range(n)]
        assert concept_load(_add_concepts, doc) == ([], expected)
        assert concept_load(add_concepts_fixpoint, doc) == ([], expected)


MIXING_EPISODE = pathlib.Path(__file__).resolve().parent / "golden" / "mixing_episode.json"


def raw_events(doc):
    """The raw events of an episode document, point events as (t, t)."""
    return [
        RawEvent(
            TokenClass(e["class"]),
            e["type"],
            tuple(e["participants"]),
            *_event_times(f"event {i}", e),
        )
        for i, e in enumerate(doc["events"])
    ]


# Documents of every JSON value: text with control and non-ASCII characters,
# ints of any size, floats with NaN, the infinities and -0.0, lists, tuples,
# and empty containers.
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestRoundTrip:
    def test_serialize_load_fixpoint(self, seed):
        store, descriptions = seed
        doc1 = serialize_library(store, descriptions)
        store2, descriptions2 = load_library_document(doc1)
        doc2 = serialize_library(store2, descriptions2)
        assert doc1 == doc2
        assert dumps_canonical(doc1) == dumps_canonical(doc2)

    def test_canonical_dump_is_stable(self, seed):
        store, descriptions = seed
        a = dumps_canonical(serialize_library(store, descriptions))
        b = dumps_canonical(serialize_library(store, descriptions))
        assert a == b

    @given(JSON_DOCUMENTS)
    @example(float("nan"))
    @example([math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300])
    @example({"é→😀": "naïve ∆ 😀", "": ""})
    @example({"\x00\x1f\n": "\x00\x01\x1f\x7f\t\n\r\"\\/\u2028"})
    @example([10**100, -(10**100), 0, -1])
    @example((1, ("a", (None,)), []))
    @example({"a": [], "b": {}, "c": (), "d": [[], {}], "e": {"f": ()}})
    @example([True, False, None, {"z": True, "a": False, "m": None}])
    def test_canonical_dump_is_json_dumps(self, doc):
        expected = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert dumps_canonical(doc) == expected

    @pytest.mark.parametrize(
        "value", [{1, 2}, b"bytes", object(), 1j], ids=["set", "bytes", "object", "complex"]
    )
    def test_canonical_dump_of_non_json_value_is_type_error(self, value):
        for doc in (value, {"a": [value]}):
            with pytest.raises(TypeError):
                json.dumps(doc)
            with pytest.raises(TypeError, match="is not JSON serializable"):
                dumps_canonical(doc)

    @pytest.mark.parametrize("path", [POURING_EPISODE, AMBIGUOUS_EPISODE, MIXING_EPISODE])
    def test_episode_serialize_load_fixpoint(self, path):
        doc = json.loads(path.read_text())
        episode = load_episode_document(doc)
        doc1 = serialize_episode(episode, raw_events(doc))
        episode2 = load_episode_document(doc1)
        doc2 = serialize_episode(episode2, raw_events(doc1))
        assert dumps_canonical(doc1) == dumps_canonical(doc2)
        assert (episode2.tokens, episode2.scene) == (episode.tokens, episode.scene)

    def test_or_restriction_round_trip(self):
        r = Or((HasDisposition("Containment"), KindIs(EntityKind.OBJECT)))
        node = restriction_to_json(r)
        assert node == {
            "op": "or",
            "items": [
                {"op": "has_disposition", "disposition": "Containment"},
                {"op": "kind_is", "kind": "object"},
            ],
        }
        assert restriction_from_json(node) == r

    def test_type_tag_in_round_trip(self, capsys, tmp_path):
        """Unsorted, repeated tags load and are written sorted, reloading is
        a fixpoint, and the role then admits exactly the objects whose type
        tag is listed."""
        doc = json.loads(SEED_LIBRARY.read_text())
        source = doc["concepts"][7]
        assert source["id"] == "Source"
        source["restriction"] = {"op": "type_tag_in", "tags": ["Pot", "Knife", "Pot"]}
        doc1 = serialize_library(*load_library_document(doc))
        written = [c["restriction"] for c in doc1["concepts"] if c["id"] == "Source"]
        assert written == [{"op": "type_tag_in", "tags": ["Knife", "Pot"]}]
        doc2 = serialize_library(*load_library_document(doc1))
        assert dumps_canonical(doc1) == dumps_canonical(doc2)
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "select", str(path), str(POURING_EPISODE), "Pouring")
        assert (code, err) == (0, "")
        assert "Source: {knife pot}\n" in out.splitlines(keepends=True)

    def test_shallow_nesting_error_keeps_its_item_path(self):
        leaf = {"op": "kind_is", "kind": "object"}
        node = {"op": "and", "items": [leaf, {"op": "or", "items": [{"op": "x"}]}]}
        with pytest.raises(ParseError, match=r"^concept 7: restriction: item 1: item 0: unknown"):
            restriction_from_json(node, "concept 7: restriction")

    def test_integer_too_large_for_a_float_reads_as_infinity(self):
        node = {"op": "region_within", "lo": -(10**400), "hi": 10**400, "units": "m/s"}
        assert restriction_from_json(node) == RegionWithin(-math.inf, math.inf, "m/s")



class TestEpisodeLoading:
    def test_pouring_episode_token_count(self, pouring_episode):
        assert len(pouring_episode.tokens) >= 3

    def test_empty_events(self, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        episode = load_episode(path)
        assert episode.tokens == ()

    def test_negative_duration(self, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"][0]["start"] = 9.0
        doc["events"][0]["end"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NegativeDuration):
            load_episode(path)

    @pytest.mark.parametrize("key", ["start", "end"])
    def test_event_without_time_is_parse_error(self, tmp_path, key):
        doc = json.loads(POURING_EPISODE.read_text())
        del doc["events"][1][key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"event 1: missing '{key}'"):
            load_episode(path)

    def test_non_numeric_time_is_parse_error(self, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"][2]["start"] = "soon"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="event 2: start is not a number: 'soon'"):
            load_episode(path)

    def test_point_timestamp_reads_as_start_equals_end(self, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        event = doc["events"][2]
        assert event["start"] == event["end"]
        event["timestamp"] = event.pop("start")
        del event["end"]
        path = tmp_path / "point.json"
        path.write_text(json.dumps(doc))
        assert load_episode(path).tokens == load_episode(POURING_EPISODE).tokens

    def test_timestamp_with_start_is_parse_error(self, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"][2]["timestamp"] = 6.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="event 2: give start/end or a timestamp"):
            load_episode(path)

    @pytest.mark.parametrize("key", ["class", "type"])
    def test_event_without_class_or_type_is_parse_error(self, key):
        doc = json.loads(POURING_EPISODE.read_text())
        del doc["events"][1][key]
        with pytest.raises(ParseError, match=f"event 1: missing '{key}'"):
            load_episode_document(doc)

    def test_non_string_type_is_parse_error(self):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"][2]["type"] = ["Tilting"]
        with pytest.raises(ParseError, match=r"event 2: type is not a string: \['Tilting'\]"):
            load_episode_document(doc)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_non_positive_eps_is_rejected(self, eps):
        doc = json.loads(POURING_EPISODE.read_text())
        with pytest.raises(DegenerateInterval, match="eps must be a positive finite number"):
            load_episode_document(doc, eps=eps)

    def test_unknown_participant(self, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"][0]["participants"] = ["ghost"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationFailed):
            load_episode(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _set(node, key, value):
    node[key] = value


# A design record and an affordance record as libraries of earlier versions
# wrote them.
DESIGN_RECORD = {
    "concept": "ContainerDesign",
    "aspect": "functional",
    "restriction": {"op": "has_disposition", "disposition": "Containment"},
}
AFFORDANCE_RECORD = {
    "concept": "ContainmentAffordance",
    "bearer": "Container",
    "trigger": "Patient",
}


# A configuration description and a conditional succedence as libraries of
# earlier versions wrote them.
CONFIGURATION_DESCRIPTION = {
    "id": "ContactConfiguration",
    "type": "configuration",
    "defines": {"id": "Contact_0", "concept": "Contact", "roles": [], "parameters": []},
    "constraints": [{"relation": "contact", "left": "Patient", "right": "Destination"}],
}
CONDITIONAL_SUCCEDENCE = {
    "id": "s",
    "earlier": "Approaching_0",
    "later": "Tilting_0",
    "condition": {"op": "kind_is", "kind": "object"},
}


def process_flow(**fields):
    """A process flow over the seed library's motions, with `fields` added."""
    return {
        "id": "MotionFlow",
        "type": "process_flow",
        "defines": {"id": "Motion_0", "concept": "Motion"},
        "phases": [
            {"id": "Approaching_0", "concept": "Approaching", "roles": ["Destination"]},
            {"id": "Tilting_0", "concept": "Tilting", "roles": ["Patient"]},
        ],
        "constraints": [
            {"left": "Approaching_0", "relation": "overlapsWith", "right": "Tilting_0"}
        ],
        **fields,
    }


# defect -> (edit of the seed library document, message on stderr)
MALFORMED_RECORDS = {
    "unknown-kind": (
        lambda doc: _set(doc["concepts"][3], "kind", "gadget"),
        "concept 3: unknown kind 'gadget'",
    ),
    "concept-without-id": (
        lambda doc: doc["concepts"][3].pop("id"),
        "concept 3: missing 'id'",
    ),
    "description-without-id": (
        lambda doc: doc["descriptions"][0].pop("id"),
        "description 0: missing 'id'",
    ),
    "concepts-not-a-list": (
        lambda doc: _set(doc, "concepts", "x"),
        "concepts: expected a list, got str",
    ),
    "plan-without-defines": (
        lambda doc: doc["descriptions"][0].pop("defines"),
        "description PouringPlan: missing 'defines'",
    ),
    "phase-without-concept": (
        lambda doc: doc["descriptions"][0]["phases"][0].pop("concept"),
        "description PouringPlan: phase 0: missing 'concept'",
    ),
    "constraint-without-left": (
        lambda doc: doc["descriptions"][0]["constraints"][0].pop("left"),
        "description PouringPlan: constraint 0: missing 'left'",
    ),
    "phase-not-an-object": (
        lambda doc: _set(doc["descriptions"][0], "phases", [1]),
        "description PouringPlan: phase 0: expected an object, got 1",
    ),
    "concept-id-not-a-string": (
        lambda doc: _set(doc["concepts"][0], "id", [1]),
        "concept 0: id: expected a str, got [1]",
    ),
    "affordance-record": (
        lambda doc: _set(doc, "affordances", [AFFORDANCE_RECORD]),
        "affordance 0: affordance records are not supported",
    ),
    "goal-without-desired": (
        lambda doc: _set(doc["descriptions"][0], "goal", {"id": "g"}),
        "description PouringPlan: goal: missing 'desired'",
    ),
    "goal-desired-not-objects": (
        lambda doc: _set(doc["descriptions"][0], "goal", {"id": "g", "desired": [1]}),
        "description PouringPlan: goal: desired 0: expected an object, got 1",
    ),
    "phase-parameters": (
        lambda doc: _set(_phase(doc), "parameters", ["PouringSpeed"]),
        "description PouringPlan: phase 0: parameters are not supported",
    ),
    "defines-parameters": (
        lambda doc: _set(doc["descriptions"][0]["defines"], "parameters", ["PouringSpeed"]),
        "description PouringPlan: defines: parameters are not supported",
    ),
    "design-record": (
        lambda doc: _set(doc, "designs", [DESIGN_RECORD]),
        "design 0: design records are not supported",
    ),
    "kind-is-without-kind": (
        lambda doc: _set(doc["concepts"][6], "restriction", {"op": "kind_is"}),
        "concept 6: restriction: missing 'kind'",
    ),
    "defines-not-an-object": (
        lambda doc: _set(doc["descriptions"][0], "defines", 1),
        "description PouringPlan: defines: expected a dict, got 1",
    ),
    "binding-slots-not-pairs": (
        lambda doc: _set(doc["descriptions"][0]["bindings"][0], "slots", [1, 2]),
        "description PouringPlan: binding 0: slots: expected [slot id, role id] pairs, got 1",
    ),
    "phase-roles-not-a-list": (
        lambda doc: _set(doc["descriptions"][0]["phases"][0], "roles", "Destination"),
        "description PouringPlan: phase 0: roles: expected a list of strings, got 'Destination'",
    ),
    "concept-parents-not-a-list": (
        lambda doc: _set(doc["concepts"][1], "parents", "x"),
        "concept 1: parents: expected a list of strings, got 'x'",
    ),
    "concept-name-not-a-string": (
        lambda doc: _set(doc["concepts"][0], "name", [1]),
        "concept 0: name: expected a str, got [1]",
    ),
    "description-type-not-a-string": (
        lambda doc: _set(doc["descriptions"][0], "type", [1]),
        "description PouringPlan: unknown description type: [1]",
    ),
    "restriction-false": (
        lambda doc: _set(doc["concepts"][7], "restriction", False),
        "concept 7: restriction: expected an object, got False",
    ),
    "restriction-empty-object": (
        lambda doc: _set(doc["concepts"][7], "restriction", {}),
        "concept 7: restriction: unknown restriction op: None",
    ),
    "succedence-condition-zero": (
        lambda doc: _set(
            doc["descriptions"][0],
            "succedences",
            [{"id": "s", "earlier": "Approaching_0", "later": "Tilting_0", "condition": 0}],
        ),
        "description PouringPlan: succedence 0: conditions are not supported",
    ),
    "succedence-condition": (
        lambda doc: _set(doc["descriptions"][0], "succedences", [CONDITIONAL_SUCCEDENCE]),
        "description PouringPlan: succedence 0: conditions are not supported",
    ),
    "configuration-description": (
        lambda doc: doc["descriptions"].append(CONFIGURATION_DESCRIPTION),
        "description ContactConfiguration: unknown description type: 'configuration'",
    ),
    "goal-empty-list": (
        lambda doc: _set(doc["descriptions"][0], "goal", []),
        "description PouringPlan: goal: expected a dict, got []",
    ),
    "process-flow-defines-empty-string": (
        lambda doc: doc["descriptions"].append(
            {"id": "Flow", "type": "process_flow", "defines": "", "phases": [], "constraints": []}
        ),
        "description Flow: defines: expected a dict, got ''",
    ),
    "region-lo-true": (
        lambda doc: _set(doc["concepts"][11]["restriction"], "lo", True),
        "concept 11: restriction: lo: expected a Real, got True",
    ),
    "region-hi-true": (
        lambda doc: _set(doc["concepts"][11]["restriction"], "hi", True),
        "concept 11: restriction: hi: expected a Real, got True",
    ),
    "relation-unknown-name": (
        lambda doc: _set(doc["descriptions"][0]["constraints"][1], "relation", "during-ish"),
        "description PouringPlan: constraint 1: unknown temporal relation: 'during-ish'",
    ),
    "relation-code-not-a-string": (
        lambda doc: _set(doc["descriptions"][0]["constraints"][1], "relation", [1]),
        "description PouringPlan: constraint 1: bad relation code: 1",
    ),
    "relation-a-number": (
        lambda doc: _set(doc["descriptions"][0]["constraints"][1], "relation", 1),
        "description PouringPlan: constraint 1: bad relation value: 1",
    ),
    "kind-is-unknown-kind": (
        lambda doc: _set(doc["concepts"][6], "restriction", {"op": "kind_is", "kind": "gadget"}),
        "concept 6: restriction: unknown entity kind 'gadget'",
    ),
    "and-empty-items": (
        lambda doc: _set(doc["concepts"][7], "restriction", {"op": "and", "items": []}),
        "concept 7: restriction: items: expected at least one restriction",
    ),
    "or-empty-items": (
        lambda doc: _set(doc["concepts"][7], "restriction", {"op": "or", "items": []}),
        "concept 7: restriction: items: expected at least one restriction",
    ),
    "type-tag-in-without-tags": (
        lambda doc: _set(doc["concepts"][7], "restriction", {"op": "type_tag_in"}),
        "concept 7: restriction: missing 'tags'",
    ),
}


def _objects(doc):
    return doc["scene"]["objects"]


# defect -> (edit of the pouring episode document, message on stderr)
MALFORMED_EPISODES = {
    "object-without-id": (
        lambda doc: _objects(doc)[1].pop("id"),
        "scene: object 1: missing 'id'",
    ),
    "quality-without-type": (
        lambda doc: _set(_objects(doc)[0], "qualities", [{"value": 1.0}]),
        "scene: object 0: quality 0: missing 'type'",
    ),
    "disposition-without-type": (
        lambda doc: _objects(doc)[2]["dispositions"][0].pop("type"),
        "scene: object 2: disposition 0: missing 'type'",
    ),
    "scene-not-an-object": (
        lambda doc: _set(doc, "scene", []),
        "scene: expected an object, got []",
    ),
    "objects-not-a-list": (
        lambda doc: _set(doc["scene"], "objects", "x"),
        "scene: objects: expected a list, got str",
    ),
    "events-not-a-list": (
        lambda doc: _set(doc, "events", "x"),
        "events: expected a list, got str",
    ),
    "event-not-an-object": (
        lambda doc: _set(doc["events"], 1, ["Tilting"]),
        "event 1: expected an object, got ['Tilting']",
    ),
    "participants-not-a-list": (
        lambda doc: _set(doc["events"][0], "participants", 5),
        "event 0: participants: expected a list of strings, got 5",
    ),
    "infinite-time": (
        lambda doc: _set(doc["events"][1], "end", float("inf")),
        "event 1: non-finite timestamps on Tilting",
    ),
    "end-before-start": (
        lambda doc: _set(doc["events"][1], "end", 1.0),
        "event 1: Tilting ends before it starts: [2.0, 1.0]",
    ),
    "no-participants": (
        lambda doc: _set(doc["events"][1], "participants", []),
        "event 1: Tilting has no participants",
    ),
    "object-type-tag-not-a-string": (
        lambda doc: _set(_objects(doc)[1], "type_tag", [1]),
        "scene: object 1: type_tag: expected a str, got [1]",
    ),
    "object-name-not-a-string": (
        lambda doc: _set(_objects(doc), 1, {"id": "bowl", "name": [1]}),
        "scene: object 1: name: expected a str, got [1]",
    ),
    "quality-value-not-a-number": (
        lambda doc: _set(_objects(doc)[1], "qualities", [{"type": "Volume", "value": "x"}]),
        "scene: object 1: quality 0: value: expected a Real, got 'x'",
    ),
    "quality-units-not-a-string": (
        lambda doc: _set(_objects(doc)[1], "qualities", [{"type": "Volume", "units": 5}]),
        "scene: object 1: quality 0: units: expected a str, got 5",
    ),
    "disposition-affordance": (
        lambda doc: _set(_objects(doc)[2]["dispositions"][0], "affordance", "CuttingAffordance"),
        "scene: object 2: disposition 0: affordances are not supported",
    ),
    "start-a-numeric-string": (
        lambda doc: _set(doc["events"][0], "start", "0.0"),
        "event 0: start is not a number: '0.0'",
    ),
    "end-a-boolean": (
        lambda doc: _set(doc["events"][0], "end", True),
        "event 0: end is not a number: True",
    ),
    "quality-value-true": (
        lambda doc: _set(_objects(doc)[1], "qualities", [{"type": "Volume", "value": True}]),
        "scene: object 1: quality 0: value: expected a Real, got True",
    ),
    "point-event-too-far-from-0": (
        lambda doc: _set(
            doc["events"],
            0,
            {"class": "motion", "type": "Approaching", "participants": ["bowl"], "timestamp": 1e17},
        ),
        "event 0: Approaching at 1e+17 is too far from 0",
    ),
    "start-too-large-for-a-float": (
        lambda doc: _set(doc["events"][0], "start", 10**400),
        "event 0: non-finite timestamps on Approaching",
    ),
}


def _phase(doc, i=0):
    return doc["descriptions"][0]["phases"][i]


def _goal(state, *roles):
    return {"id": "g", "desired": [{"state": state, "roles": list(roles)}]}


# defect -> (edit of the seed library document, the one `issue:` line of `validate`)
VALIDATION_ISSUES = {
    "phase-concept-not-an-event-type": (
        lambda doc: _set(_phase(doc), "concept", "Patient"),
        "PouringPlan: kind-mismatch: Approaching_0 must reference a task/process/state concept",
    ),
    "unknown-role": (
        lambda doc: _set(_phase(doc), "roles", ["Ghost"]),
        "PouringPlan: unknown-role: Approaching_0 uses Ghost",
    ),
    "role-not-a-role": (
        lambda doc: _set(_phase(doc), "roles", ["Motion"]),
        "PouringPlan: kind-mismatch: Motion is not a Role",
    ),
    "role-a-parameter": (
        lambda doc: _set(_phase(doc), "roles", ["PouringSpeed"]),
        "PouringPlan: kind-mismatch: PouringSpeed is not a Role",
    ),
    "role-a-task": (
        lambda doc: _set(_phase(doc), "roles", ["Pouring"]),
        "PouringPlan: kind-mismatch: Pouring is not a Role",
    ),
    "role-an-affordance": (
        lambda doc: _set(_phase(doc), "roles", ["ContainmentAffordance"]),
        "PouringPlan: kind-mismatch: ContainmentAffordance is not a Role",
    ),
    "empty-relation": (
        lambda doc: _set(doc["descriptions"][0]["constraints"][1], "relation", []),
        "PouringPlan: empty-relation: Approaching_0/Tilting_0 label is empty",
    ),
    "self-succedence": (
        lambda doc: _set(
            doc["descriptions"][0],
            "succedences",
            [{"id": "s", "earlier": "Tilting_0", "later": "Tilting_0"}],
        ),
        "PouringPlan: self-succedence: s relates a task to itself",
    ),
    "succedence-unknown-phase": (
        lambda doc: _set(
            doc["descriptions"][0],
            "succedences",
            [{"id": "s", "earlier": "Ghost_0", "later": "Tilting_0"}],
        ),
        "PouringPlan: unknown-phase: succedence references Ghost_0",
    ),
    "goal-unknown-concept": (
        lambda doc: _set(doc["descriptions"][0], "goal", _goal("Ghost")),
        "PouringPlan: unknown-concept: goal references Ghost",
    ),
    "goal-kind-mismatch": (
        lambda doc: _set(doc["descriptions"][0], "goal", _goal("Motion")),
        "PouringPlan: kind-mismatch: Motion is not a StateType",
    ),
    "goal-unknown-role": (
        lambda doc: _set(doc["descriptions"][0], "goal", _goal("Contact", "Ghost")),
        "PouringPlan: unknown-role: goal binds unknown role Ghost",
    ),
    "plan-defines-a-process-type": (
        lambda doc: _set(doc["descriptions"][0]["defines"], "concept", "Motion"),
        "PouringPlan: kind-mismatch: plan must define a task concept",
    ),
    "process-flow-defines-a-task": (
        lambda doc: doc["descriptions"].append(
            process_flow(defines={"id": "Pouring_0", "concept": "Pouring"})
        ),
        "MotionFlow: kind-mismatch: process_flow must define a process_type concept",
    ),
    "process-flow-succedence-unknown-phase": (
        lambda doc: doc["descriptions"].append(
            process_flow(succedences=[{"id": "s", "earlier": "Ghost_0", "later": "Tilting_0"}])
        ),
        "MotionFlow: unknown-phase: succedence references Ghost_0",
    ),
    "process-flow-goal-unknown-concept": (
        lambda doc: doc["descriptions"].append(process_flow(goal=_goal("Ghost"))),
        "MotionFlow: unknown-concept: goal references Ghost",
    ),
}

# A binding slot is a role slot: each slot in a binding that names a Parameter
# is one issue, in slot order.
# defect -> (slots of a binding added to PouringPlan, the `issue:` lines of `validate`)
PARAMETER_BINDINGS = {
    "parameter-slot-bound-to-a-role-slot": (
        [["Pouring_0", "PouringSpeed"], ["Tilting_0", "Patient"]],
        ["unknown-binding-slot: binding Binding_2 references ('Pouring_0', 'PouringSpeed')"],
    ),
    "two-parameter-slots-bound": (
        [["Pouring_0", "PouringSpeed"], ["Approaching_0", "PouringSpeed"]],
        [
            "unknown-binding-slot: binding Binding_2 references ('Approaching_0', 'PouringSpeed')",
            "unknown-binding-slot: binding Binding_2 references ('Pouring_0', 'PouringSpeed')",
        ],
    ),
}


def _json_nodes(node, path=()):
    """The path of keys and indexes to every node below `node`."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield path + (key,)
            yield from _json_nodes(child, path + (key,))


SEED_DOCUMENTS = {"library": SEED_LIBRARY, "episode": POURING_EPISODE}
SEED_NODES = [
    (name, path)
    for name, doc_path in SEED_DOCUMENTS.items()
    for path in _json_nodes(json.loads(doc_path.read_text()))
]
# A key deleted, a value replaced by one of each JSON type, or wrapped in a list.
NODE_EDITS = st.sampled_from(
    [("delete", None), ("wrap", None)] + [("set", v) for v in (None, True, 0, 1.5, "x", [], {})]
)


class TestDocumentFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SEED_NODES), NODE_EDITS)
    @example(("library", ("concepts", 0, "name")), ("set", [1]))
    @example(("library", ("descriptions", 0, "type")), ("set", [1]))
    @example(("library", ("affordances",)), ("wrap", None))
    @example(("library", ("affordances",)), ("set", [{}]))
    @example(("library", ("designs",)), ("wrap", None))
    @example(("library", ("descriptions", 0, "succedences")), ("set", [CONDITIONAL_SUCCEDENCE]))
    @example(("episode", ("scene", "objects", 1, "type_tag")), ("set", [1]))
    @example(("episode", ("scene", "objects", 1, "name")), ("wrap", None))
    @example(
        ("episode", ("scene", "objects", 2, "dispositions", 0)),
        ("set", {"type": "Cutting", "affordance": "CuttingAffordance"}),
    )
    def test_one_edited_node_ends_in_an_exit_code(self, tmp_path_factory, node, edit):
        """validate, parse and select on the seed documents with one node
        edited each return 0, 1 or 2, and no exception escapes `main`."""
        name, path = node
        doc = json.loads(SEED_DOCUMENTS[name].read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op, value = edit
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = [parent[path[-1]]] if op == "wrap" else value
        edited = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
        edited.write_text(json.dumps(doc))
        lib = str(edited if name == "library" else SEED_LIBRARY)
        ep = str(edited if name == "episode" else POURING_EPISODE)
        for argv in (("validate", lib), ("parse", lib, ep), ("select", lib, ep, "Pouring")):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                with contextlib.redirect_stderr(out):
                    assert main(list(argv)) in (0, 1, 2)


class TestCli:
    def test_validate_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(SEED_LIBRARY))
        assert code == 0
        assert "ok" in out

    @staticmethod
    def nested_source_library(tmp_path, levels):
        """The seed library with the `Source` role's restriction, one
        `has_disposition` level, wrapped in `and`s to `levels` levels."""
        doc = json.loads(SEED_LIBRARY.read_text())
        (at, record), = [
            (f"concept {i}", c) for i, c in enumerate(doc["concepts"]) if c["id"] == "Source"
        ]
        for _ in range(levels - 1):
            record["restriction"] = {"op": "and", "items": [record["restriction"]]}
        path = tmp_path / f"nested{levels}.json"
        path.write_text(json.dumps(doc))
        return at, path

    COMMANDS = (
        ("validate",),
        ("parse", str(POURING_EPISODE)),
        ("select", str(POURING_EPISODE), "Pouring"),
    )

    # 351 levels still load as JSON, and without the bound they overflow the
    # recursion of `satisfies_restriction` in `parse` and `select`.
    @pytest.mark.parametrize("levels", [MAX_RESTRICTION_DEPTH + 1, 351])
    def test_restriction_nested_past_the_bound_exit_2(self, capsys, tmp_path, levels):
        at, path = self.nested_source_library(tmp_path, levels)
        for cmd, *rest in self.COMMANDS:
            code, out, err = run_cli(capsys, cmd, str(path), *rest)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {at}: restriction: nested deeper than ")
            assert err.count("item 0: ") <= 1
            assert f"nested deeper than {MAX_RESTRICTION_DEPTH} levels" in err

    def test_restriction_nested_to_the_bound_loads(self, capsys, tmp_path):
        _, path = self.nested_source_library(tmp_path, MAX_RESTRICTION_DEPTH)
        for cmd, *rest in self.COMMANDS:
            seed_answer = run_cli(capsys, cmd, str(SEED_LIBRARY), *rest)
            assert seed_answer[0] == 0
            assert run_cli(capsys, cmd, str(path), *rest) == seed_answer
        doc1 = serialize_library(*load_library(path))
        doc2 = serialize_library(*load_library_document(doc1))
        assert dumps_canonical(doc1) == dumps_canonical(doc2)

    def test_process_flow_with_empty_plan_fields_is_valid(self, capsys, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["descriptions"].append(process_flow(bindings=[], succedences=[], goal=None))
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(path)) == (0, "ok: library is valid\n", "")

    @pytest.mark.parametrize("bound", [False, True])
    def test_process_flow_bindings_narrow_parse(self, capsys, tmp_path, bound):
        # The episode's Approaching and Tilting tokens have different
        # participants, so binding the two slots leaves no interpretation.
        slots = [["Approaching_0", "Destination"], ["Tilting_0", "Patient"]]
        doc = json.loads(SEED_LIBRARY.read_text())
        bindings = [{"id": "b", "slots": slots}] if bound else []
        doc["descriptions"].append(process_flow(bindings=bindings))
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(path)) == (0, "ok: library is valid\n", "")
        code, out, _ = run_cli(capsys, "parse", str(path), str(POURING_EPISODE))
        assert code == 0
        assert out.count("plan=MotionFlow") == (0 if bound else 1)

    def test_validate_failure_exit_1(self, capsys, tmp_path):
        doc = {
            "version": FORMAT_VERSION,
            "concepts": [{"id": "A", "name": "A", "kind": "task", "parents": ["Ghost"]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "issue:" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/no/such/file.json")
        assert code == 2
        assert "error:" in err

    def test_version_mismatch_exit_2(self, capsys, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["version"] = "soma-kit/9"
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2

    def test_unknown_relation_code_exit_2(self, capsys, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["descriptions"][0]["constraints"][1]["relation"] = ["o", "zz"]
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "unknown relation code: 'zz'" in err

    def test_non_string_relation_item_exit_2(self, capsys, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["descriptions"][0]["constraints"][1]["relation"] = [1]
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "bad relation code: 1" in err

    def test_event_without_end_exit_2(self, capsys, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        del doc["events"][0]["end"]
        path = tmp_path / "ep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "parse", str(SEED_LIBRARY), str(path))
        assert code == 2
        assert out == ""
        assert "event 0: missing 'end'" in err

    def test_event_without_class_exit_2(self, capsys, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        del doc["events"][0]["class"]
        path = tmp_path / "ep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "parse", str(SEED_LIBRARY), str(path))
        assert code == 2
        assert out == ""
        assert "event 0: missing 'class'" in err

    @pytest.mark.parametrize("command", ["parse", "select"])
    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_non_positive_eps_is_usage_error(self, capsys, command, eps):
        argv = [command, str(SEED_LIBRARY), str(POURING_EPISODE)]
        argv += ["Pouring"] if command == "select" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--eps", eps])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --eps: must be a positive finite number" in captured.err

    def test_non_numeric_eps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse", str(SEED_LIBRARY), str(POURING_EPISODE), "--eps", "abc"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --eps: must be a positive finite number: 'abc'" in captured.err

    @pytest.mark.parametrize("top_level", ["[]", "1", '"library"', "null"])
    def test_top_level_not_an_object_exit_2(self, capsys, tmp_path, top_level):
        path = tmp_path / "lib.json"
        path.write_text(top_level)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: top-level value must be an object\n"

    @pytest.mark.parametrize("defect", ["concept", "description", "phase"])
    def test_duplicate_id_exit_1(self, capsys, tmp_path, defect):
        doc = json.loads(SEED_LIBRARY.read_text())
        if defect == "concept":
            tilting = next(c for c in doc["concepts"] if c["id"] == "Tilting")
            doc["concepts"].append(dict(tilting, name="Shaking"))
            issue = "issue: concept Tilting: duplicate-concept"
        elif defect == "description":
            doc["descriptions"].append(doc["descriptions"][0])
            issue = "issue: description PouringPlan: duplicate-description"
        else:
            phases = doc["descriptions"][0]["phases"]
            phases[1]["id"] = phases[0]["id"]
            issue = "issue: description PouringPlan: duplicate-slot"
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert issue in out
        code, out, err = run_cli(capsys, "parse", str(path), str(POURING_EPISODE))
        assert code == 1
        assert out == ""
        assert issue in err

    @pytest.mark.parametrize("defect", list(MALFORMED_RECORDS))
    def test_malformed_library_record_exit_2(self, capsys, tmp_path, defect):
        doc = json.loads(SEED_LIBRARY.read_text())
        edit, message = MALFORMED_RECORDS[defect]
        edit(doc)
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(  # validate: MALFORMED_RECORDS["design-record"]
        "command",
        [
            ("parse", "{lib}", str(POURING_EPISODE)),
            ("select", "{lib}", str(POURING_EPISODE), "Pouring"),
            ("query", "{lib}", "PouringPlan", "Approaching", "Tilting"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_design_record_exit_2(self, capsys, tmp_path, command):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["designs"] = [DESIGN_RECORD]
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *(arg.format(lib=path) for arg in command))
        assert (code, out, err) == (2, "", "error: design 0: design records are not supported\n")

    @pytest.mark.parametrize("defect", list(MALFORMED_EPISODES))
    def test_malformed_episode_record_exit_2(self, capsys, tmp_path, defect):
        doc = json.loads(POURING_EPISODE.read_text())
        edit, message = MALFORMED_EPISODES[defect]
        edit(doc)
        path = tmp_path / "ep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "parse", str(SEED_LIBRARY), str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("defect", list(VALIDATION_ISSUES))
    def test_validation_issue_exit_1(self, capsys, tmp_path, defect):
        doc = json.loads(SEED_LIBRARY.read_text())
        edit, issue = VALIDATION_ISSUES[defect]
        edit(doc)
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out, err) == (1, f"issue: description {issue}\ninvalid: 1 issue(s)\n", "")

    @pytest.mark.parametrize("defect", list(VALIDATION_ISSUES))
    def test_validation_issue_on_plain_list(self, seed, pouring_episode, defect):
        # Descriptions built without a load meet the rules of `validate` on
        # every door into the search, a CompiledLibrary built by hand too.
        store, library = seed
        (interp,) = parse(pouring_episode, library, store)
        doc = json.loads(SEED_LIBRARY.read_text())
        edit, issue = VALIDATION_ISSUES[defect]
        edit(doc)
        plain = [_description_from_json("", d) for d in doc["descriptions"]]
        for call in (
            lambda: parse(pouring_episode, plain, store),
            lambda: verify_interpretation(interp, pouring_episode, plain, store),
            lambda: parse(pouring_episode, CompiledLibrary(plain, store), store),
        ):
            with pytest.raises(ValidationFailed) as exc:
                call()
            assert exc.value.issues == [f"description {issue}"]

    @pytest.mark.parametrize("defect", list(PARAMETER_BINDINGS))
    def test_parameter_binding_slot_exit_1(self, capsys, tmp_path, defect):
        doc = json.loads(SEED_LIBRARY.read_text())
        slots, issues = PARAMETER_BINDINGS[defect]
        doc["descriptions"][0]["bindings"].append({"id": "Binding_2", "slots": slots})
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        lines = "".join(f"issue: description PouringPlan: {issue}\n" for issue in issues)
        assert (code, out, err) == (1, f"{lines}invalid: {len(issues)} issue(s)\n", "")

    def test_validation_issues_in_order(self, capsys, tmp_path):
        # One constraint naming two non-slots, and one succedence relating a
        # non-slot to itself: each record's issues, in record order.
        doc = json.loads(SEED_LIBRARY.read_text())
        plan = doc["descriptions"][0]
        plan["constraints"][1].update(left="Ghost_0", right="Ghost_1")
        plan["succedences"] = [{"id": "s", "earlier": "Ghost_2", "later": "Ghost_2"}]
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        issues = [
            "unknown-phase: constraint references Ghost_0",
            "unknown-phase: constraint references Ghost_1",
            "self-succedence: s relates a task to itself",
            "unknown-phase: succedence references Ghost_2",
            "unknown-phase: succedence references Ghost_2",
        ]
        out = "".join(f"issue: description PouringPlan: {issue}\n" for issue in issues)
        assert run_cli(capsys, "validate", str(path)) == (1, out + "invalid: 5 issue(s)\n", "")

    def test_self_constraint_exit_1(self, capsys, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        doc["descriptions"][0]["constraints"][0]["left"] = "Approaching_0"
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        lib, ep = str(path), str(POURING_EPISODE)
        issue = (
            "issue: description PouringPlan: self-constraint: "
            "Approaching_0 is constrained against itself\n"
        )
        assert run_cli(capsys, "validate", lib) == (1, issue + "invalid: 1 issue(s)\n", "")
        for argv in (
            ("parse", lib, ep),
            ("select", lib, ep, "Pouring"),
            ("query", lib, "PouringPlan", "Approaching", "Tilting"),
        ):
            assert run_cli(capsys, *argv) == (1, "", issue)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"version": 1' + "0" * 5000 + "}"],
        ids=["too-deep", "too-many-digits"],
    )
    def test_unreadable_json_exit_2(self, capsys, tmp_path, text):
        # Nesting past the recursion limit, and an integer literal past the
        # interpreter's digit limit where it has one.
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ")

    def test_duplicate_scene_object_exit_1(self, capsys, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        _set(_objects(doc)[2], "id", "pot")
        path = tmp_path / "ep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "parse", str(SEED_LIBRARY), str(path))
        assert code == 1
        assert out == ""
        assert err == "issue: scene: object 2: duplicate-object: id pot is used more than once\n"

    def test_unresolved_parents_exit_1(self, capsys, tmp_path):
        doc = {
            "version": FORMAT_VERSION,
            "concepts": [
                {"id": "X3", "name": "X3", "kind": "task", "parents": ["Ghost", "X0"]},
                {"id": "X2", "name": "X2", "kind": "task", "parents": ["X1"]},
                {"id": "X0", "name": "X0", "kind": "task", "parents": []},
                {"id": "X1", "name": "X1", "kind": "task", "parents": ["X0", "X2"]},
            ],
        }
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == (
            "issue: concept X1: unresolved parents ['X2']\n"
            "issue: concept X2: unresolved parents ['X1']\n"
            "issue: concept X3: unresolved parents ['Ghost']\n"
            "invalid: 3 issue(s)\n"
        )

    def test_parse_reports_interpretation(self, capsys):
        code, out, _ = run_cli(
            capsys, "parse", str(SEED_LIBRARY), str(POURING_EPISODE)
        )
        assert code == 0
        assert "interpretations: 1" in out
        assert "coverage" in out

    def test_parse_no_interpretations_exit_0(self, capsys, tmp_path):
        doc = json.loads(POURING_EPISODE.read_text())
        doc["events"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "parse", str(SEED_LIBRARY), str(path))
        assert code == 0
        assert "interpretations: 0" in out

    def test_parse_top_limits_output(self, capsys):
        for top in range(4):
            code, out, _ = run_cli(
                capsys, "parse", str(SEED_LIBRARY), str(AMBIGUOUS_EPISODE), "--top", str(top)
            )
            assert code == 0
            assert out.count("plan=PouringPlan") == min(top, 2)

    @pytest.mark.parametrize("top", ["-1", "1.5", "x"])
    def test_negative_top_is_usage_error(self, capsys, top):
        argv = ["parse", str(SEED_LIBRARY), str(AMBIGUOUS_EPISODE), "--top", top]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --top: must be a non-negative integer" in captured.err

    def test_parse_machine_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "parse", str(SEED_LIBRARY), str(POURING_EPISODE), "--format", "machine",
        )
        assert code == 0
        assert out.startswith("count=1")
        assert "phase=Approaching_0 token=t0" in out

    def test_query_overlaps(self, capsys):
        code, out, _ = run_cli(
            capsys, "query", str(SEED_LIBRARY), "PouringPlan", "Approaching", "Tilting"
        )
        assert code == 0
        assert out.strip() == "o"

    def test_query_unknown_phase_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "query", str(SEED_LIBRARY), "PouringPlan", "Approaching", "Flying"
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown phase 'Flying'\n"

    def test_query_phase_of_another_plan_exit_2(self, capsys):
        """A slot is looked up within the named plan only: Approaching_1 is a
        phase of StirringFlow, not of MixingFlow."""
        code, out, err = run_cli(
            capsys, "query", str(ALL_DESCRIPTIONS_LIBRARY), "MixingFlow", "Rotating_0", "Approaching_1"
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown phase 'Approaching_1'\n"

    @pytest.mark.parametrize("names", [("Tilting", "Tilting"), ("Tilting_0", "Tilting")])
    def test_query_slot_against_itself_is_eq(self, capsys, names):
        code, out, _ = run_cli(capsys, "query", str(SEED_LIBRARY), "PouringPlan", *names)
        assert (code, out) == (0, "eq\n")

    def test_query_ambiguous_phase_exit_2(self, capsys, tmp_path):
        doc = json.loads(SEED_LIBRARY.read_text())
        plan = doc["descriptions"][0]
        second = dict(plan["phases"][0], id="Approaching_1")
        plan["phases"].append(second)
        plan["constraints"].append(
            {"left": "Approaching_0", "relation": "before", "right": "Approaching_1"}
        )
        path = tmp_path / "lib.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "query", str(path), "PouringPlan", "Approaching", "Approaching"
        )
        assert (code, out) == (2, "")
        assert err == "error: ambiguous phase 'Approaching': Approaching_0, Approaching_1\n"
        code, out, _ = run_cli(
            capsys, "query", str(path), "PouringPlan", "Approaching_0", "Approaching_1"
        )
        assert (code, out) == (0, "b\n")

    def test_select(self, capsys):
        code, out, _ = run_cli(
            capsys, "select", str(SEED_LIBRARY), str(POURING_EPISODE), "Pouring"
        )
        assert code == 0
        assert "Source: {bowl pot}" in out
        assert "Patient: {bowl knife pot}" in out

    def test_select_unknown_task_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "select", str(SEED_LIBRARY), str(POURING_EPISODE), "Nope"
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown task 'Nope'\n"

    @pytest.mark.parametrize(
        "task, expected",
        [
            # Rotating_0 of MixingFlow, not Rotating_1 of StirringFlow.
            ("Rotating", "Stirrer: {knife}\n"),
            # Tilting_0 of PouringPlan, not Tilting_1 of MixingFlow, which
            # also takes a Container.
            ("Tilting", "Patient: {bowl knife pot}\n"),
            # Approaching_0 of PouringPlan, not Approaching_1 of
            # StirringFlow, which takes a Container.
            ("Approaching", "Destination: {bowl pot}\n"),
        ],
    )
    def test_select_shared_concept_takes_first_plan_in_file_order(self, capsys, task, expected):
        code, out, _ = run_cli(
            capsys, "select", str(ALL_DESCRIPTIONS_LIBRARY), str(POURING_EPISODE), task
        )
        assert (code, out) == (0, expected)

    def test_force_rows(self, capsys):
        code, out, _ = run_cli(capsys, "force", "--tendency", "rest", "--stronger", "antagonist")
        assert code == 0
        assert out.strip() == "Motion"
        code, out, _ = run_cli(capsys, "force", "--tendency", "motion", "--stronger", "antagonist")
        assert out.strip() == "Rest"

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate",),
            ("parse",),
            ("query",),
            ("select",),
            ("force", "--tendency", "rest", "--stronger", "agonist"),
        ],
        ids=["validate", "parse", "query", "select", "force"],
    )
    def test_byte_identical_stdout(self, capsys, argv):
        full = {
            "validate": ("validate", str(SEED_LIBRARY)),
            "parse": ("parse", str(SEED_LIBRARY), str(AMBIGUOUS_EPISODE)),
            "query": ("query", str(SEED_LIBRARY), "PouringPlan", "Approaching", "Tilting"),
            "select": ("select", str(SEED_LIBRARY), str(POURING_EPISODE), "Pouring"),
            "force": argv,
        }[argv[0]]
        first = run_cli(capsys, *full)
        second = run_cli(capsys, *full)
        assert first == second
