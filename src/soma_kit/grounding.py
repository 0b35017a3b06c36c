"""Grounding queries: which scene objects can play a task's roles, and what
a force-dynamic configuration entails.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet

from .activity import EventTypeRef
from .errors import UnknownRole
from .ontology import ConceptKind, Entity, OntologyStore


@dataclass(frozen=True)
class Scene:
    """The objects observable in one episode, keyed by entity id."""

    objects: Dict[str, Entity]

    def __post_init__(self):
        for eid, e in self.objects.items():
            if eid != e.id:
                raise ValueError(f"scene key {eid} does not match entity id {e.id}")

    def entity(self, eid: str) -> Entity:
        return self.objects[eid]

    def __contains__(self, eid: str) -> bool:
        return eid in self.objects


class Tendency(Enum):
    TOWARD_MOTION = "motion"
    TOWARD_REST = "rest"


class StrongerEntity(Enum):
    AGONIST = "agonist"
    ANTAGONIST = "antagonist"


class ForceOutcome(Enum):
    MOTION = "Motion"
    REST = "Rest"


@dataclass(frozen=True)
class ForceExpression:
    """Talmy-style force-dynamic pattern between two participants.

    By convention the manipulated object is the agonist (the subject of the
    expression); the opposing force is the antagonist.
    """

    agonist: str
    antagonist: str
    agonist_tendency: Tendency
    stronger: StrongerEntity

    def __post_init__(self):
        if self.agonist == self.antagonist:
            raise ValueError("agonist and antagonist must differ")


def force_outcome(expr: ForceExpression) -> ForceOutcome:
    """The tendency is realized exactly when the agonist is stronger."""
    tendency_result = (
        ForceOutcome.MOTION
        if expr.agonist_tendency is Tendency.TOWARD_MOTION
        else ForceOutcome.REST
    )
    if expr.stronger is StrongerEntity.AGONIST:
        return tendency_result
    return (
        ForceOutcome.REST if tendency_result is ForceOutcome.MOTION else ForceOutcome.MOTION
    )


def admits(role_id: str, eid: str, scene: Scene, store: OntologyStore) -> bool:
    """Whether scene entity `eid` may play Role `role_id`: it is in the
    scene and the role classifies it (`check_classification`, a bool)."""
    return eid in scene and store.check_classification(role_id, scene.entity(eid))


def select_objects(
    task: EventTypeRef, scene: Scene, store: OntologyStore
) -> Dict[str, FrozenSet[str]]:
    """For each role of the task, the scene objects it admits: only the
    role's own restriction decides."""
    result: Dict[str, FrozenSet[str]] = {}
    for role_id in task.uses_roles:
        if not store.has_concept(role_id):
            raise UnknownRole(f"unknown role: {role_id}")
        if store.concept(role_id).kind is not ConceptKind.ROLE:
            raise UnknownRole(f"{role_id} is not a Role concept")
        result[role_id] = frozenset(e for e in scene.objects if admits(role_id, e, scene, store))
    return result
