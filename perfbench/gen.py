"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of (seed, stream, index), so the same seed
gives the same documents whatever the timing of a run. Size and kind are
stratified over blocks of consecutive indices, so a run that stops after any
number of whole blocks has seen the same mix as every other run; this keeps
the run-to-run spread of the timings small without narrowing the inputs.
"""

from __future__ import annotations

import random

from soma_kit.activity import RELATION_VOCABULARY, HAS_PHASE
from soma_kit.allen import (
    BaseRelation,
    ConcreteInterval,
    ConstraintNetwork,
    RelationSet,
    relation_from_endpoints,
)

VERSION = "soma-kit/1"
RELATION_NAMES = tuple(RELATION_VOCABULARY)
NAME_BY_MASK = {rs.mask: name for name, rs in RELATION_VOCABULARY.items()}
BASE_RELATIONS = tuple(BaseRelation)


def rng_for(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{stream}/{index}")


def stratum(seed: int, stream: str, index: int, n_strata: int) -> int:
    """Stratum of an index: each block of n_strata consecutive indices
    visits every stratum once, in a seeded order."""
    block, pos = divmod(index, n_strata)
    order = list(range(n_strata))
    rng_for(seed, stream + "/strata", block).shuffle(order)
    return order[pos]


def _concept(cid, kind, parents=(), restriction=None):
    return {
        "id": cid,
        "name": cid,
        "kind": kind,
        "parents": list(parents),
        "restriction": restriction,
    }


def _ref(rid, concept, roles=()):
    return {"id": rid, "concept": concept, "roles": list(roles), "parameters": []}


def _plan(pid, task_ref, phases, constraints, bindings=()):
    return {
        "id": pid,
        "type": "plan",
        "defines": task_ref,
        "phases": phases,
        "constraints": [
            {"left": a, "relation": rel, "right": b} for a, rel, b in constraints
        ],
        "bindings": [
            {"id": f"{pid}_bind{i}", "slots": [list(s) for s in slots]}
            for i, slots in enumerate(bindings)
        ],
        "succedences": [],
        "goal": None,
    }


def _consistent(phase_ids, constraints) -> bool:
    """Path consistency of the phase-within-whole network, as validation
    would compute it, so that generated plans pass validation."""
    net = ConstraintNetwork()
    net.add_variable("whole")
    for p in phase_ids:
        net.constrain(p, "whole", HAS_PHASE)
    for a, rel, b in constraints:
        net.constrain(a, b, RELATION_VOCABULARY[rel])
    return net.propagate().consistent


# --- parse_mixed -----------------------------------------------------------------

FAMILIES = {
    "Transport": ("Reach", "Lift", "Carry"),
    "Manipulate": ("Push", "Pull", "Slide"),
    "Rotate": ("Tilt", "Twist", "Flip"),
}
LEAVES = tuple(leaf for leaves in FAMILIES.values() for leaf in leaves)
NOISE_TAG = "Noise"
ROLES = {
    "FreeRole": None,
    "ContainerRole": {"op": "has_disposition", "disposition": "Containment"},
    "CutterRole": {"op": "has_disposition", "disposition": "Cutting"},
    "SupportRole": {"op": "has_disposition", "disposition": "Support"},
}
DISPOSITIONS = ("Containment", "Cutting", "Support")
SCENE_OBJECTS = ("obj0", "obj1", "obj2", "obj3")
# Concept level of a phase: 6 in 10 a family, 3 a leaf, 1 the root.
PHASE_LEVELS = (tuple(FAMILIES),) * 6 + (LEAVES,) * 3 + (("Motion",),)
# Phase count of plan k; fixed so that every seed's library has the same shape.
PLAN_PHASES = (2, 2, 3, 3, 3, 3, 4, 4)


def parse_library(seed: int, index: int) -> dict:
    """A library of len(PLAN_PHASES) validation-clean plans over a 3-level motion
    taxonomy (Motion -> family -> leaf)."""
    concepts = [_concept("Motion", "process_type"), _concept("GenericTask", "task")]
    for family, leaves in FAMILIES.items():
        concepts.append(_concept(family, "process_type", ["Motion"]))
        concepts += [_concept(leaf, "process_type", [family]) for leaf in leaves]
    concepts += [_concept(r, "role", restriction=res) for r, res in ROLES.items()]
    rng = rng_for(seed, "parse_mixed/library", index)
    # Relation names, phase concept levels and role counts are dealt from
    # shuffled decks, so every library holds the same mix of tight and loose
    # relations, of broad and narrow phase types and of role products.
    deck, levels, role_counts = [], [], []
    descriptions = []
    for k, n_phases in enumerate(PLAN_PHASES):
        pid = f"P{k}"
        while True:
            phases = []
            for i in range(n_phases):
                if not levels:
                    levels = list(PHASE_LEVELS)
                    rng.shuffle(levels)
                concept = rng.choice(levels.pop())
                if not role_counts:
                    role_counts = [0, 1, 1, 2]
                    rng.shuffle(role_counts)
                roles = rng.sample(tuple(ROLES), role_counts.pop())
                phases.append(_ref(f"{pid}_ph{i}", concept, roles))
            ids = [p["id"] for p in phases]
            constraints = []
            for i in range(n_phases):
                for j in range(i + 1, n_phases):
                    # Consecutive phases are always related, so every phase
                    # is anchored in time; other pairs only sometimes.
                    if j == i + 1 or rng.random() < 0.5:
                        if not deck:
                            deck = list(RELATION_NAMES)
                            rng.shuffle(deck)
                        constraints.append((ids[i], deck.pop(), ids[j]))
            bindings = []
            slots = [(p["id"], r) for p in phases for r in p["roles"]]
            if k % 2 == 0 and len(slots) >= 2:
                bindings.append(rng.sample(slots, 2))
            if _consistent(ids, constraints):
                break
        task = _ref(f"{pid}_task", "GenericTask")
        descriptions.append(_plan(pid, task, phases, constraints, bindings))
    return {
        "version": VERSION,
        "concepts": concepts,
        "affordances": [],
        "designs": [],
        "descriptions": descriptions,
    }


def _scene(rng: random.Random, object_ids) -> dict:
    objects = []
    for eid in object_ids:
        held = rng.sample(DISPOSITIONS, rng.randint(0, 2))
        objects.append(
            {
                "id": eid,
                "name": eid,
                "type_tag": f"Thing_{eid}",
                "dispositions": [{"type": d, "affordance": None} for d in held],
                "qualities": [],
            }
        )
    return {"objects": objects}


# Event counts are stratified over [8, 40] in blocks of 4 episodes.
EPISODE_STRATA = ((8, 15), (16, 23), (24, 31), (32, 40))


def parse_episode(seed: int, index: int) -> dict:
    """An episode of 8-40 motion events over a 4-object scene; events carry
    leaf type tags plus a noise tag."""
    lo, hi = EPISODE_STRATA[stratum(seed, "parse_mixed/episode", index, len(EPISODE_STRATA))]
    rng = rng_for(seed, "parse_mixed/episode", index)
    n_events = rng.randint(lo, hi)
    horizon = n_events // 2 + 4
    events = []
    for _ in range(n_events):
        start = rng.randint(0, horizon)
        tag = NOISE_TAG if rng.random() < 0.15 else rng.choice(LEAVES)
        events.append(
            {
                "class": "motion",
                "type": tag,
                "participants": rng.sample(SCENE_OBJECTS, rng.randint(1, 2)),
                "start": float(start),
                "end": float(start + rng.randint(1, 6)),
            }
        )
    return {"version": VERSION, "scene": _scene(rng, SCENE_OBJECTS), "events": events}


# --- ingest ----------------------------------------------------------------------

CONCEPT_KINDS = ("task", "process_type", "state_type", "role")
STATE_TAGS = ("Contact", "Support", "Containment")
INGEST_OBJECTS = ("a", "b", "c", "d")
PARTICIPANT_SETS = (("a", "b"), ("b", "c"), ("c", "d"), ("a",))
# Sizes sit within 5 of 8 geometrically spaced levels from 100 to 800: with
# wider jitter the superlinear load cost makes the median document vary from
# run to run.
INGEST_LEVELS = tuple(round(100 * 8 ** (k / 7)) for k in range(8))
# A block of 20 documents is one edge case (5 %) and one valid document per
# stratum: each type at each level, plus three extra smaller ones. The doubled
# 244-concept library is where the block's median cost falls, so op_ms_p50
# is read inside one stratum rather than across the gap between two.
INGEST_STRATA = tuple((t, k) for k in range(8) for t in ("library", "episode")) + (
    ("library", 0),
    ("episode", 0),
    ("library", 3),
)
INGEST_BLOCK = len(INGEST_STRATA) + 1
EDGE_CASES = (
    "unknown_kind",
    "missing_id",
    "relation_zz",
    "concepts_not_list",
    "event_without_end",
    "point_timestamp",
)


def ingest_document(seed: int, index: int) -> tuple:
    """(kind, doc) for the index-th document of the ingest stream; kind is
    "library", "episode" or "edge:<case>"."""
    s = stratum(seed, "ingest", index, INGEST_BLOCK)
    rng = rng_for(seed, "ingest", index)
    if s == len(INGEST_STRATA):
        case = EDGE_CASES[(index // INGEST_BLOCK + seed) % len(EDGE_CASES)]
        return f"edge:{case}", edge_case(rng, case)
    kind, level = INGEST_STRATA[s]
    size = min(800, max(100, INGEST_LEVELS[level] + rng.randint(-5, 5)))
    if kind == "library":
        return kind, ingest_library(rng, size)
    return kind, ingest_episode(rng, size)


def ingest_library(rng: random.Random, n_concepts: int) -> dict:
    """A random concept DAG listed in shuffled order, so parents are
    sometimes referenced before they are defined, plus a few small plans."""
    concepts = []
    by_kind = {k: [] for k in CONCEPT_KINDS}
    for i in range(n_concepts):
        kind = CONCEPT_KINDS[i % len(CONCEPT_KINDS)]
        pool = by_kind[kind]
        parents = rng.sample(pool, min(len(pool), rng.randint(0, 2)))
        restriction = None
        if kind == "role" and rng.random() < 0.3:
            restriction = {"op": "has_disposition", "disposition": rng.choice(DISPOSITIONS)}
        cid = f"{kind[0]}{i}"
        concepts.append(_concept(cid, kind, sorted(parents), restriction))
        pool.append(cid)
    rng.shuffle(concepts)
    descriptions = []
    for k in range(rng.randint(2, 4)):
        pid = f"Plan{k}"
        n_phases = rng.randint(2, 3)
        while True:
            phases = [
                _ref(
                    f"{pid}_ph{i}",
                    rng.choice(by_kind["process_type"]),
                    rng.sample(by_kind["role"], rng.randint(0, 1)),
                )
                for i in range(n_phases)
            ]
            ids = [p["id"] for p in phases]
            constraints = [
                (ids[i], rng.choice(RELATION_NAMES), ids[i + 1])
                for i in range(n_phases - 1)
            ]
            if _consistent(ids, constraints):
                break
        task = _ref(f"{pid}_task", rng.choice(by_kind["task"]), rng.sample(by_kind["role"], 1))
        descriptions.append(_plan(pid, task, phases, constraints))
    return {
        "version": VERSION,
        "concepts": concepts,
        "affordances": [],
        "designs": [],
        "descriptions": descriptions,
    }


def ingest_episode(rng: random.Random, n_events: int) -> dict:
    """Overlapping state events over a few participant sets and 3 state
    tags, which forces homeomeric splitting."""
    horizon = n_events * 2
    events = []
    for _ in range(n_events):
        start = round(rng.uniform(0, horizon), 3)
        events.append(
            {
                "class": "state",
                "type": rng.choice(STATE_TAGS),
                "participants": list(rng.choice(PARTICIPANT_SETS)),
                "start": start,
                "end": round(start + rng.uniform(0.5, 10.0), 3),
            }
        )
    return {"version": VERSION, "scene": _scene(rng, INGEST_OBJECTS), "events": events}


def edge_case(rng: random.Random, case: str) -> dict:
    """A small document with one defect from the malformed-input list."""
    if case in ("event_without_end", "point_timestamp"):
        doc = ingest_episode(rng, 20)
        event = rng.choice(doc["events"])
        if case == "event_without_end":
            del event["end"]
        else:
            event["timestamp"] = event.pop("start")
            del event["end"]
        return doc
    doc = ingest_library(rng, 40)
    if case == "unknown_kind":
        rng.choice(doc["concepts"])["kind"] = "gadget"
    elif case == "missing_id":
        del rng.choice(doc["concepts"])["id"]
    elif case == "relation_zz":
        rng.choice(doc["descriptions"])["constraints"][0]["relation"] = ["zz"]
    else:
        doc["concepts"] = "x"
    return doc


# --- temporal --------------------------------------------------------------------

NETWORK_SIZES = tuple(range(6, 17))
# Each block holds every size twice realizable by construction and once
# with random labels: two-thirds realizable.
TEMPORAL_BLOCK = 3 * len(NETWORK_SIZES)


def temporal_network(seed: int, index: int) -> dict:
    """Interval variables, labels and, for realizable networks, the true
    relation of every pair:
    {"n", "realizable", "labels": {(i, j): RelationSet}, "truth": {(i, j): BaseRelation}}."""
    s = stratum(seed, "temporal", index, TEMPORAL_BLOCK)
    n = NETWORK_SIZES[s % len(NETWORK_SIZES)]
    realizable = s < 2 * len(NETWORK_SIZES)
    rng = rng_for(seed, "temporal", index)
    labels, truth = {}, {}
    if realizable:
        intervals = []
        for _ in range(n):
            a = rng.randint(0, 3 * n)
            intervals.append(ConcreteInterval(a, a + rng.randint(1, n)))
        for i in range(n):
            for j in range(i + 1, n):
                rel = relation_from_endpoints(intervals[i], intervals[j])
                extra = rng.sample(BASE_RELATIONS, rng.randint(0, 4))
                labels[(i, j)] = RelationSet.of(rel, *extra)
                truth[(i, j)] = rel
    else:
        for i in range(n):
            for j in range(i + 1, n):
                labels[(i, j)] = RelationSet.of(*rng.sample(BASE_RELATIONS, rng.randint(3, 9)))
    return {"n": n, "realizable": realizable, "labels": labels, "truth": truth}


QUERY_PLAN_PHASES = (10, 12, 14, 16)


def query_library(seed: int) -> dict:
    """A library of plans with 10-16 phases whose constraints are the true
    relations of concrete phase intervals inside the whole task, so every
    plan validates."""
    concepts = [_concept("Motion", "process_type"), _concept("GenericTask", "task")]
    concepts += [_concept(f"Step{i}", "process_type", ["Motion"]) for i in range(16)]
    rng = rng_for(seed, "temporal/library", 0)
    descriptions = []
    for k, n_phases in enumerate(QUERY_PLAN_PHASES):
        pid = f"Q{k}"
        ids = [f"{pid}_ph{i}" for i in range(n_phases)]
        spans = []
        for _ in ids:
            a = rng.randint(1, 3 * n_phases)
            spans.append(ConcreteInterval(a, a + rng.randint(1, n_phases)))
        constraints = []
        for i in range(n_phases):
            for j in range(i + 1, n_phases):
                if rng.random() < 0.5:
                    rel = relation_from_endpoints(spans[i], spans[j])
                    constraints.append((ids[i], NAME_BY_MASK[RelationSet.of(rel).mask], ids[j]))
        phases = [_ref(p, f"Step{i}") for i, p in enumerate(ids)]
        descriptions.append(_plan(pid, _ref(f"{pid}_task", "GenericTask"), phases, constraints))
    return {
        "version": VERSION,
        "concepts": concepts,
        "affordances": [],
        "designs": [],
        "descriptions": descriptions,
    }
