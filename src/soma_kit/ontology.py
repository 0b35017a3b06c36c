"""Two-branch concept model: a descriptive (social) branch of concepts that
classify entities of the ground (physical) branch.

Concepts form per-kind DAG taxonomies. Roles and parameters may carry a
restriction over ground-branch predicates; classification legality is
evaluated by recursive restriction checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .errors import (
    BranchViolation,
    CycleError,
    KindMismatch,
    StoreFrozen,
    UnknownId,
)


class ConceptKind(Enum):
    TASK = "task"
    PROCESS_TYPE = "process_type"
    STATE_TYPE = "state_type"
    ROLE = "role"
    PARAMETER = "parameter"
    AFFORDANCE_DESCR = "affordance"
    DESIGN_DESCR = "design"
    PLAN_DESCR = "plan"
    CONFIGURATION_DESCR = "configuration"
    PROCESS_FLOW_DESCR = "process_flow"


#: Concept kinds that conceptualize event-like entities.
EVENT_CONCEPT_KINDS = frozenset(
    {ConceptKind.TASK, ConceptKind.PROCESS_TYPE, ConceptKind.STATE_TYPE}
)

#: Concept kinds allowed to carry a restriction.
RESTRICTABLE_KINDS = frozenset({ConceptKind.ROLE, ConceptKind.PARAMETER})


class EntityKind(Enum):
    OBJECT = "object"
    ACTION = "action"
    PROCESS = "process"
    STATE = "state"
    QUALITY = "quality"
    REGION = "region"
    SITUATION = "situation"


#: Entity kinds that may carry participants.
EVENT_ENTITY_KINDS = frozenset(
    {EntityKind.ACTION, EntityKind.PROCESS, EntityKind.STATE}
)

#: Which ground entity kinds a concept kind may legally classify.
CLASSIFIABLE_KINDS: Dict[ConceptKind, FrozenSet[EntityKind]] = {
    ConceptKind.TASK: frozenset({EntityKind.ACTION}),
    ConceptKind.PROCESS_TYPE: frozenset({EntityKind.PROCESS}),
    ConceptKind.STATE_TYPE: frozenset({EntityKind.STATE}),
    ConceptKind.ROLE: frozenset({EntityKind.OBJECT}),
    ConceptKind.PARAMETER: frozenset({EntityKind.REGION}),
}


# --- Restriction language ---------------------------------------------------


@dataclass(frozen=True)
class KindIs:
    kind: EntityKind


@dataclass(frozen=True)
class TypeTagIn:
    tags: FrozenSet[str]


@dataclass(frozen=True)
class HasDisposition:
    disposition_type: str


@dataclass(frozen=True)
class RegionWithin:
    lo: float
    hi: float
    units: str


@dataclass(frozen=True)
class And:
    items: Tuple["Restriction", ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("And requires at least one child")


@dataclass(frozen=True)
class Or:
    items: Tuple["Restriction", ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("Or requires at least one child")


Restriction = Union[KindIs, TypeTagIn, HasDisposition, RegionWithin, And, Or]


# --- Ground-branch records --------------------------------------------------


@dataclass(frozen=True)
class Quality:
    type_tag: str
    value: Optional[float] = None
    units: Optional[str] = None


@dataclass(frozen=True)
class Entity:
    """A ground entity; an object's dispositions are their type names."""

    id: str
    name: str
    kind: EntityKind
    type_tag: str
    qualities: Tuple[Quality, ...] = ()
    dispositions: Tuple[str, ...] = ()
    participants: Tuple[str, ...] = ()
    value: Optional[float] = None
    units: Optional[str] = None

    def __post_init__(self):
        if self.kind is not EntityKind.OBJECT:
            for field in ("qualities", "dispositions"):
                if getattr(self, field):
                    raise KindMismatch(f"only Object entities carry {field}: {self.id}")
        if self.participants and self.kind not in EVENT_ENTITY_KINDS:
            raise KindMismatch(f"only event entities carry participants: {self.id}")


@dataclass(frozen=True)
class Concept:
    id: str
    name: str
    kind: ConceptKind
    parents: FrozenSet[str] = frozenset()
    restriction: Optional[Restriction] = None


# --- Store -------------------------------------------------------------------


class OntologyStore:
    """In-memory store of the descriptive branch: its concepts. An
    affordance or a design is a concept of its kind, a taxonomy node with no
    record of its own. Ground entities live in each episode's Scene.

    Mutating operations are only legal before :meth:`freeze`; afterwards the
    store is read-only and safe to share between concurrent readers.
    """

    def __init__(self) -> None:
        self._concepts: Dict[str, Concept] = {}
        self._by_name: Dict[str, List[Concept]] = {}
        self._ancestors: Dict[str, FrozenSet[str]] = {}
        self._ids = itertools.count(1)
        self._frozen = False

    # -- lifecycle

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "OntologyStore":
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise StoreFrozen("store is frozen; no mutation allowed")

    def _fresh_id(self, prefix: str) -> str:
        while True:
            candidate = f"{prefix}{next(self._ids)}"
            if candidate not in self._concepts:
                return candidate

    # -- concepts

    def add_concept(
        self,
        name: str,
        kind: ConceptKind,
        parents: Iterable[str] = (),
        restriction: Optional[Restriction] = None,
        concept_id: Optional[str] = None,
    ) -> str:
        # The taxonomy stays acyclic without a graph check: parents must
        # already exist, ids are fresh and concepts are immutable, so every
        # parent edge points to an older concept.
        self._check_mutable()
        parents = frozenset(parents)
        cid = concept_id if concept_id is not None else self._fresh_id("c")
        if cid in self._concepts:
            raise KindMismatch(f"duplicate concept id: {cid}")
        if cid in parents:
            raise CycleError(f"concept {cid} cannot be its own parent")
        for pid in parents:
            parent = self._concepts.get(pid)
            if parent is None:
                raise UnknownId(f"unknown parent concept: {pid}")
            if parent.kind is not kind:
                raise KindMismatch(
                    f"parent {pid} has kind {parent.kind.value}, expected {kind.value}"
                )
        if restriction is not None and kind not in RESTRICTABLE_KINDS:
            raise KindMismatch(f"{kind.value} concepts cannot carry restrictions")
        concept = Concept(cid, name, kind, parents, restriction)
        self._concepts[cid] = concept
        self._by_name.setdefault(name, []).append(concept)
        return cid

    def concept(self, cid: str) -> Concept:
        try:
            return self._concepts[cid]
        except KeyError:
            raise UnknownId(f"unknown concept: {cid}") from None

    def has_concept(self, cid: str) -> bool:
        return cid in self._concepts

    def concepts(self) -> Tuple[Concept, ...]:
        return tuple(self._concepts.values())

    def concepts_named(self, name: str) -> Tuple[Concept, ...]:
        return tuple(self._by_name.get(name, ()))

    def ancestors(self, cid: str) -> FrozenSet[str]:
        """`cid` and every concept reachable from it via parent edges.

        Computed on first query and memoized. A closure never changes once
        known, frozen store or not: parents are older than their children
        and concepts are immutable. Only queried concepts are memoized (a
        chain of n concepts would otherwise hold O(n²) ids); the walk stops
        at any concept whose closure is already known and needs no
        recursion, however deep the taxonomy.
        """
        closure = self._ancestors.get(cid)
        if closure is not None:
            return closure
        seen = {self.concept(cid).id}
        frontier = [cid]
        while frontier:
            for pid in self._concepts[frontier.pop()].parents:
                if pid in seen:
                    continue
                known = self._ancestors.get(pid)
                if known is not None:
                    seen |= known
                else:
                    seen.add(pid)
                    frontier.append(pid)
        closure = self._ancestors[cid] = frozenset(seen)
        return closure

    def is_subsumed_by(self, a: str, b: str) -> bool:
        """True iff b is reachable from a via parent edges (reflexive)."""
        self.concept(b)
        return b in self.ancestors(a)

    # -- classification

    def satisfies_restriction(self, e: Entity, r: Restriction) -> bool:
        """Recursive restriction evaluation over a ground entity."""
        if isinstance(r, KindIs):
            return e.kind is r.kind
        if isinstance(r, TypeTagIn):
            return e.type_tag in r.tags
        if isinstance(r, HasDisposition):
            return r.disposition_type in e.dispositions
        if isinstance(r, RegionWithin):
            if e.kind is EntityKind.REGION:
                return e.units == r.units and e.value is not None and r.lo <= e.value <= r.hi
            return any(
                q.units == r.units and q.value is not None and r.lo <= q.value <= r.hi
                for q in e.qualities
            )
        if isinstance(r, And):
            return all(self.satisfies_restriction(e, item) for item in r.items)
        if isinstance(r, Or):
            return any(self.satisfies_restriction(e, item) for item in r.items)
        raise TypeError(f"not a restriction: {r!r}")

    def check_classification(self, concept_id: str, e: Entity) -> bool:
        """Whether this social concept classifies this ground entity: its kind
        is one the concept's kind classifies and it meets any restriction."""
        concept = self.concept(concept_id)
        legal = CLASSIFIABLE_KINDS.get(concept.kind)
        if legal is None:
            raise BranchViolation(f"{concept.kind.value} concepts do not classify ground entities")
        r = concept.restriction
        return e.kind in legal and (r is None or self.satisfies_restriction(e, r))
