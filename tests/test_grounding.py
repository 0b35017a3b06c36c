import random

import pytest

from soma_kit import (
    EventTypeRef,
    ForceExpression,
    ForceOutcome,
    Scene,
    StrongerEntity,
    Tendency,
    force_outcome,
    select_objects,
)
from soma_kit.errors import UnknownRole
from soma_kit.ontology import Entity, EntityKind

from generators import build_generator_store, random_scene


def obj(eid, *dispositions):
    return Entity(eid, eid, EntityKind.OBJECT, eid.capitalize(), dispositions=dispositions)


class TestSelectObjects:
    def test_disposition_filter(self):
        store = build_generator_store()
        scene = Scene({"pot": obj("pot", "Containment"), "knife": obj("knife", "Cutting")})
        task = EventTypeRef("task0", "GenericTask", uses_roles=("ContainerRole",))
        assert select_objects(task, scene, store) == {"ContainerRole": frozenset({"pot"})}

    def test_empty_scene(self):
        store = build_generator_store()
        task = EventTypeRef(
            "task0", "GenericTask", uses_roles=("ContainerRole", "FreeRole")
        )
        selection = select_objects(task, Scene({}), store)
        assert selection == {"ContainerRole": frozenset(), "FreeRole": frozenset()}

    def test_unrestricted_role_takes_all(self):
        store = build_generator_store()
        scene = Scene({"pot": obj("pot"), "knife": obj("knife")})
        task = EventTypeRef("task0", "GenericTask", uses_roles=("FreeRole",))
        assert select_objects(task, scene, store)["FreeRole"] == frozenset({"pot", "knife"})

    def test_unknown_role(self):
        store = build_generator_store()
        task = EventTypeRef("task0", "GenericTask", uses_roles=("GhostRole",))
        with pytest.raises(UnknownRole):
            select_objects(task, Scene({}), store)

    def test_non_role_concept(self):
        store = build_generator_store()
        task = EventTypeRef("task0", "GenericTask", uses_roles=("GenericTask",))
        with pytest.raises(UnknownRole, match=r"^GenericTask is not a Role concept$"):
            select_objects(task, Scene({}), store)

    def test_scene_key_must_be_the_entity_id(self):
        with pytest.raises(ValueError, match=r"^scene key pan does not match entity id pot$"):
            Scene({"pan": obj("pot")})

    def test_biconditional_with_classification_scan(self):
        # returned for role r <=> check_classification(r, obj) accepted
        store = build_generator_store()
        rng = random.Random(11)
        roles = ("FreeRole", "ContainerRole", "CutterRole")
        for _ in range(100):
            scene = random_scene(rng)
            task = EventTypeRef(
                "task0", "GenericTask",
                uses_roles=tuple(rng.sample(roles, rng.randint(1, 3))),
            )
            selection = select_objects(task, scene, store)
            for role in task.uses_roles:
                expected = frozenset(
                    eid
                    for eid, entity in scene.objects.items()
                    if store.check_classification(role, entity)
                )
                assert selection[role] == expected


class TestForceDynamics:
    def test_truth_table(self):
        rows = {
            (Tendency.TOWARD_MOTION, StrongerEntity.AGONIST): ForceOutcome.MOTION,
            (Tendency.TOWARD_MOTION, StrongerEntity.ANTAGONIST): ForceOutcome.REST,
            (Tendency.TOWARD_REST, StrongerEntity.AGONIST): ForceOutcome.REST,
            (Tendency.TOWARD_REST, StrongerEntity.ANTAGONIST): ForceOutcome.MOTION,
        }
        for (tendency, stronger), expected in rows.items():
            expr = ForceExpression("obj", "hand", tendency, stronger)
            assert force_outcome(expr) is expected

    def test_pulling_narrative(self):
        # object at rest (inertia), the puller overcomes it: motion results
        expr = ForceExpression(
            "object", "puller", Tendency.TOWARD_REST, StrongerEntity.ANTAGONIST
        )
        assert force_outcome(expr) is ForceOutcome.MOTION

    def test_holding_narrative(self):
        # external force pushes the object, the holding hand neutralizes it
        expr = ForceExpression(
            "object", "hand", Tendency.TOWARD_MOTION, StrongerEntity.ANTAGONIST
        )
        assert force_outcome(expr) is ForceOutcome.REST

    def test_outcome_biconditional(self):
        # tendency is realized exactly when the agonist is stronger
        for tendency in Tendency:
            for stronger in StrongerEntity:
                expr = ForceExpression("a", "b", tendency, stronger)
                realized = force_outcome(expr) is (
                    ForceOutcome.MOTION
                    if tendency is Tendency.TOWARD_MOTION
                    else ForceOutcome.REST
                )
                assert realized == (stronger is StrongerEntity.AGONIST)

    def test_stronger_swap_flips_outcome(self):
        for tendency in Tendency:
            a = force_outcome(ForceExpression("a", "b", tendency, StrongerEntity.AGONIST))
            b = force_outcome(
                ForceExpression("a", "b", tendency, StrongerEntity.ANTAGONIST)
            )
            assert a is not b

    def test_participants_must_differ(self):
        with pytest.raises(ValueError):
            ForceExpression("a", "a", Tendency.TOWARD_REST, StrongerEntity.AGONIST)
