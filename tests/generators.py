"""Random-case generator shared by the parser tests and the acceptance run."""

import random

from soma_kit import (
    Binding,
    ConceptKind,
    ConcreteInterval,
    Description,
    EventTypeRef,
    HasDisposition,
    OntologyStore,
    PhaseConstraint,
    RawEvent,
    Scene,
    Token,
    TokenClass,
)
from soma_kit.activity import RELATION_VOCABULARY, validate_description
from soma_kit.ontology import Entity, EntityKind
from soma_kit.parsing import Episode

MOTIONS = ("Reach", "Lift", "Push", "Slide")
DISPOSITIONS = ("Containment", "Cutting")
RELATION_NAMES = tuple(RELATION_VOCABULARY)


def build_generator_store():
    store = OntologyStore()
    store.add_concept("Motion", ConceptKind.PROCESS_TYPE, concept_id="Motion")
    for name in MOTIONS:
        store.add_concept(
            name, ConceptKind.PROCESS_TYPE, parents={"Motion"}, concept_id=name
        )
    store.add_concept("GenericTask", ConceptKind.TASK, concept_id="GenericTask")
    store.add_concept("FreeRole", ConceptKind.ROLE, concept_id="FreeRole")
    store.add_concept(
        "ContainerRole", ConceptKind.ROLE,
        restriction=HasDisposition("Containment"), concept_id="ContainerRole",
    )
    store.add_concept(
        "CutterRole", ConceptKind.ROLE,
        restriction=HasDisposition("Cutting"), concept_id="CutterRole",
    )
    return store.freeze()


ROLES = ("FreeRole", "ContainerRole", "CutterRole")


def random_scene(rng: random.Random) -> Scene:
    objects = {}
    for i in range(rng.randint(2, 4)):
        eid = f"obj{i}"
        dispositions = tuple(rng.sample(DISPOSITIONS, rng.randint(0, 2)))
        objects[eid] = Entity(
            eid, eid, EntityKind.OBJECT, f"Thing{i}", dispositions=dispositions
        )
    return Scene(objects)


def random_plan(rng: random.Random, store, plan_id="GenPlan", max_phases=4) -> Description:
    """A random, validation-clean plan; retries until temporally consistent."""
    while True:
        n_phases = rng.randint(1, max_phases)
        phases = tuple(
            EventTypeRef(
                id=f"ph{i}",
                concept=rng.choice(MOTIONS + ("Motion",)),
                uses_roles=tuple(rng.sample(ROLES, rng.randint(0, 2))),
            )
            for i in range(n_phases)
        )
        constraints = []
        for i in range(n_phases):
            for j in range(i + 1, n_phases):
                if rng.random() < 0.6:
                    constraints.append(
                        PhaseConstraint(
                            f"ph{i}",
                            RELATION_VOCABULARY[rng.choice(RELATION_NAMES)],
                            f"ph{j}",
                        )
                    )
        bindings = []
        slots = [(p.id, r) for p in phases for r in p.uses_roles]
        if len(slots) >= 2 and rng.random() < 0.5:
            pair = rng.sample(slots, 2)
            if pair[0] != pair[1]:
                bindings.append(Binding("bind0", frozenset(pair)))
        plan = Description(
            id=plan_id,
            defines=EventTypeRef("task0", "GenericTask"),
            phases=phases,
            constraints=tuple(constraints),
            bindings=tuple(bindings),
        )
        if not validate_description(plan, store):
            return plan


def random_episode(rng: random.Random, max_tokens=8) -> Episode:
    scene = random_scene(rng)
    object_ids = sorted(scene.objects)
    tokens = []
    for i in range(rng.randint(0, max_tokens)):
        start = rng.randint(0, 12)
        end = start + rng.randint(1, 6)
        participants = tuple(
            rng.sample(object_ids, rng.randint(1, min(2, len(object_ids))))
        )
        tokens.append(
            Token(
                id=f"t{i}",
                token_class=TokenClass.MOTION_EVENT,
                type_tag=rng.choice(MOTIONS + ("Noise",)),
                participants=participants,
                interval=ConcreteInterval(float(start), float(end)),
            )
        )
    tokens.sort(key=lambda t: (t.interval.start, t.interval.end, t.id))
    return Episode(id="gen", tokens=tuple(tokens), scene=scene, eps=0.0)


STATE_TAGS = ("Contact", "Separated", "Supported")
# Both orders of one pair name the same participant set.
STATE_PARTICIPANTS = (("a", "b"), ("b", "a"), ("a", "c"), ("c",))


def random_raw_events(rng: random.Random, n_events: int):
    """Raw events, mostly states over a few participant sets, on a half-unit
    grid so starts and ends tie; one in ten is a point event."""
    events = []
    for _ in range(n_events):
        kind = rng.choice((TokenClass.STATE_CHANGE,) * 6 + tuple(TokenClass))
        start = rng.randrange(2 * n_events) / 2
        end = start if rng.random() < 0.1 else start + rng.randint(1, 16) / 2
        events.append(
            RawEvent(
                kind, rng.choice(STATE_TAGS), rng.choice(STATE_PARTICIPANTS), start, end
            )
        )
    return events


def random_case(rng: random.Random):
    store = build_generator_store()
    library = [random_plan(rng, store)]
    episode = random_episode(rng)
    return store, library, episode
