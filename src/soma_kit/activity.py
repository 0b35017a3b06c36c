"""Descriptions (plans and process flows) and the machinery that checks
them: structural validation against an ontology store, compilation of phase
structure into an interval constraint network, and goal checks against
terminal situations.

Every description is a temporal network over its phases and compiles to
one. It `defines` the event concept it conceptualizes and answers `phases`,
`bindings`, `succedences` and `goal`; its `kind` (a plan or a process flow)
decides only which kind of concept it must define: a task for a plan, a
process type for a process flow, which may also define none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .allen import BaseRelation, ConstraintNetwork, RelationSet
from .errors import KindMismatch, TemporallyInconsistent, ValidationFailed
from .ontology import (
    ConceptKind,
    EVENT_CONCEPT_KINDS,
    EVENT_ENTITY_KINDS,
    Entity,
    OntologyStore,
)

#: Named temporal vocabulary accepted in phase constraints. hasPhase is
#: handled separately: a phase lies within (or coincides with) the whole event.
RELATION_VOCABULARY: Dict[str, RelationSet] = {
    "before": RelationSet.of(BaseRelation.BEFORE),
    "after": RelationSet.of(BaseRelation.AFTER),
    "meets": RelationSet.of(BaseRelation.MEETS),
    "metBy": RelationSet.of(BaseRelation.MET_BY),
    "during": RelationSet.of(BaseRelation.DURING),
    "contains": RelationSet.of(BaseRelation.CONTAINS),
    "equals": RelationSet.of(BaseRelation.EQUALS),
    "overlapsWith": RelationSet.of(BaseRelation.OVERLAPS),
    "overlappedBy": RelationSet.of(BaseRelation.OVERLAPPED_BY),
    "startedBy": RelationSet.of(BaseRelation.STARTED_BY),
    "starts": RelationSet.of(BaseRelation.STARTS),
    "finishes": RelationSet.of(BaseRelation.FINISHES),
    "finishedBy": RelationSet.of(BaseRelation.FINISHED_BY),
}

#: Phase-within-whole label used for hasPhase edges: the phase may share the
#: whole's start or end but never extends beyond it.
HAS_PHASE = RelationSet.of(
    BaseRelation.STARTS, BaseRelation.DURING, BaseRelation.FINISHES, BaseRelation.EQUALS
)

#: Temporal import of conditional succedence: the earlier task fully
#: precedes or abuts the later one.
SUCCEDENCE = RelationSet.of(BaseRelation.BEFORE, BaseRelation.MEETS)


@dataclass(frozen=True)
class EventTypeRef:
    """A typed slot of a description: one task, process type, or state type,
    together with the roles it uses."""

    id: str
    concept: str
    uses_roles: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PhaseConstraint:
    left: str
    relation: RelationSet
    right: str


@dataclass(frozen=True)
class Binding:
    """Identity constraint: all slots ground to the same entity."""

    id: str
    slots: FrozenSet[Tuple[str, str]]  # (phase or task id, role id)


@dataclass(frozen=True)
class ConditionalSuccedence:
    id: str
    earlier: str
    later: str


@dataclass(frozen=True)
class Goal:
    """Desired terminal situation: state types over bound roles."""

    id: str
    desired: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (state type id, role ids)


@dataclass(frozen=True)
class Description:
    """A plan or a process flow, by `kind`: `ConceptKind.PLAN_DESCR` or
    `PROCESS_FLOW_DESCR`, whose values are the JSON `type` tags; any other
    kind is a KindMismatch."""

    id: str
    defines: Optional[EventTypeRef] = None
    phases: Tuple[EventTypeRef, ...] = ()
    constraints: Tuple[PhaseConstraint, ...] = ()
    bindings: Tuple[Binding, ...] = ()
    succedences: Tuple[ConditionalSuccedence, ...] = ()
    goal: Optional[Goal] = None
    kind: ConceptKind = ConceptKind.PLAN_DESCR

    def __post_init__(self):
        if self.kind not in _DEFINES_KIND:
            raise KindMismatch(f"description {self.id}: not a plan or process_flow: {self.kind}")


@dataclass(frozen=True)
class Situation:
    """A setting of ground events, possibly satisfying a description."""

    id: str
    included_events: FrozenSet[str] = frozenset()
    satisfies: Optional[str] = None
    terminal_states: FrozenSet[Tuple[str, Tuple[str, ...]]] = frozenset()
    role_grounding: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class GoalResult:
    achieved: bool
    missing: Tuple[str, ...] = ()


#: The kind of concept a description of each kind must define.
_DEFINES_KIND = {
    ConceptKind.PLAN_DESCR: ConceptKind.TASK,
    ConceptKind.PROCESS_FLOW_DESCR: ConceptKind.PROCESS_TYPE,
}


def _check_event_type_ref(
    ref: EventTypeRef, store: OntologyStore, issues: List[ValidationIssue]
) -> None:
    if not store.has_concept(ref.concept):
        issues.append(
            ValidationIssue("unknown-concept", f"{ref.id} references {ref.concept}")
        )
    elif store.concept(ref.concept).kind not in EVENT_CONCEPT_KINDS:
        issues.append(
            ValidationIssue(
                "kind-mismatch",
                f"{ref.id} must reference a task/process/state concept",
            )
        )
    for rid in ref.uses_roles:
        if not store.has_concept(rid):
            issues.append(ValidationIssue("unknown-role", f"{ref.id} uses {rid}"))
        elif store.concept(rid).kind is not ConceptKind.ROLE:
            issues.append(ValidationIssue("kind-mismatch", f"{rid} is not a Role"))


def _slot_refs(d: Description) -> List[EventTypeRef]:
    """All phase-like slots of a description: the defined event, if any,
    then the phases in order."""
    return ([d.defines] if d.defines is not None else []) + list(d.phases)


def validate_description(d: Description, store: OntologyStore) -> List[ValidationIssue]:
    """Structural and temporal validation; an empty list means valid."""
    return validate_and_compile(d, store)[0]


def validate_and_compile(
    d: Description, store: OntologyStore
) -> Tuple[List[ValidationIssue], Optional[ConstraintNetwork]]:
    """The issues `validate_description` lists and, for a valid description,
    the network its temporal check propagated (else None)."""
    issues: List[ValidationIssue] = []
    refs = _slot_refs(d)
    phase_ids: Set[str] = set()
    for ref in refs:
        issues += _duplicate_slot_issues(ref, phase_ids)
        _check_event_type_ref(ref, store, issues)
    # Phases may be any event concept; only the defined slot must match the kind.
    if d.defines is not None and store.has_concept(d.defines.concept):
        defined = _DEFINES_KIND[d.kind]
        if store.concept(d.defines.concept).kind is not defined:
            issues.append(
                ValidationIssue(
                    "kind-mismatch", f"{d.kind.value} must define a {defined.value} concept"
                )
            )
    for c in d.constraints:
        issues += _endpoint_issues(c, phase_ids)
        if c.relation.is_empty:
            issues.append(ValidationIssue("empty-relation", f"{c.left}/{c.right} label is empty"))
    declared_roles = {(ref.id, rid) for ref in refs for rid in ref.uses_roles}
    for b in d.bindings:
        if len(b.slots) < 2:
            issues.append(
                ValidationIssue("binding-too-small", f"binding {b.id} needs >= 2 slots")
            )
        for slot in sorted(b.slots):
            if slot not in declared_roles:
                issues.append(
                    ValidationIssue("unknown-binding-slot", f"binding {b.id} references {slot}")
                )
    for s in d.succedences:
        issues += _endpoint_issues(s, phase_ids)
    if d.goal is not None:
        used_roles = {rid for _, rid in declared_roles}
        for state_type, roles in d.goal.desired:
            if not store.has_concept(state_type):
                issues.append(
                    ValidationIssue("unknown-concept", f"goal references {state_type}")
                )
            elif store.concept(state_type).kind is not ConceptKind.STATE_TYPE:
                issues.append(
                    ValidationIssue("kind-mismatch", f"{state_type} is not a StateType")
                )
            for rid in roles:
                if rid not in used_roles:
                    issues.append(
                        ValidationIssue("unknown-role", f"goal binds unknown role {rid}")
                    )
    net = None
    if not issues:
        try:
            net = compile_constraints(d)
        except TemporallyInconsistent as exc:
            issues.append(ValidationIssue("temporally-inconsistent", str(exc)))
    return issues, net


def _duplicate_slot_issues(ref: EventTypeRef, seen: Set[str]) -> List[ValidationIssue]:
    """The issue of a slot whose id is in `seen`, the ids of the slots
    before it; adds its id to `seen`."""
    if ref.id not in seen:
        seen.add(ref.id)
        return []
    return [ValidationIssue("duplicate-slot", f"slot id {ref.id} is used more than once")]


def _endpoint_issues(r, slot_ids: Set[str]) -> Iterator[ValidationIssue]:
    """Issues of a phase constraint or succedence `r` that does not relate
    two distinct slots of its description."""
    record = "succedence" if isinstance(r, ConditionalSuccedence) else "constraint"
    ends = (r.earlier, r.later) if record == "succedence" else (r.left, r.right)
    if record == "succedence" and ends[0] == ends[1]:
        yield ValidationIssue("self-succedence", f"{r.id} relates a task to itself")
    for side in ends:
        if side not in slot_ids:
            yield ValidationIssue("unknown-phase", f"{record} references {side}")
    if record == "constraint" and ends[0] == ends[1]:
        yield ValidationIssue("self-constraint", f"{r.left} is constrained against itself")


def compile_constraints(d: Description) -> ConstraintNetwork:
    """Interval network of a description, one variable per slot in `_slot_refs`
    order, propagated to fixpoint; duplicate-slot and endpoint issues raise
    ValidationFailed, so no other variable exists."""
    ids: Set[str] = set()
    issues = [i for ref in _slot_refs(d) for i in _duplicate_slot_issues(ref, ids)]
    issues += [i for r in (*d.constraints, *d.succedences) for i in _endpoint_issues(r, ids)]
    if issues:
        raise ValidationFailed(f"description {d.id}: {issue}" for issue in issues)
    net = ConstraintNetwork()
    whole: Optional[str] = d.defines.id if d.defines is not None else None
    if whole is not None:
        net.add_variable(whole)
    for p in d.phases:
        net.add_variable(p.id)
        if whole is not None:
            net.constrain(p.id, whole, HAS_PHASE)
    for c in d.constraints:
        net.constrain(c.left, c.right, c.relation)
    for s in d.succedences:
        net.constrain(s.earlier, s.later, SUCCEDENCE)
    result = net.propagate()
    if not result.consistent:
        raise TemporallyInconsistent(
            f"{d.id}: empty label between {result.witness[0]} and {result.witness[1]}"
        )
    return net


def binding_classes(d: Description) -> List[FrozenSet[Tuple[str, str]]]:
    """The slots that bindings force onto one entity: the connected
    components of the binding slots, merging bindings that share a slot."""
    classes: List[FrozenSet[Tuple[str, str]]] = []
    for b in d.bindings:
        merged = b.slots.union(*(c for c in classes if c & b.slots))
        classes = [c for c in classes if not c & b.slots] + [merged]
    return classes


def check_goal(g: Goal, situation: Situation, store: OntologyStore) -> GoalResult:
    """Achieved iff each desired state holds among the terminal states,
    matching state types up to subsumption and role groundings exactly."""
    grounding = dict(situation.role_grounding)
    missing: List[str] = []
    for state_type, roles in g.desired:
        wanted = tuple(grounding.get(rid) for rid in roles)
        hit = any(
            store.is_subsumed_by(actual_type, state_type) and actual_parts == wanted
            for actual_type, actual_parts in situation.terminal_states
        )
        if not hit:
            missing.append(state_type)
    if missing:
        return GoalResult(False, tuple(sorted(missing)))
    return GoalResult(True)


def interpretation_square_violations(
    situations: Sequence[Situation],
    descriptions: Dict[str, Description],
    classifications: Sequence[Tuple[str, Entity]],
) -> List[str]:
    """Walk the situation-description-event-type-event square over the
    (concept id, entity) classification edges and report broken edges:
    event types classifying non-events, or events with no setting."""
    violations: List[str] = []
    situation_events = {eid for s in situations for eid in s.included_events}
    for s in situations:
        if s.satisfies is None:
            continue
        d = descriptions.get(s.satisfies)
        if d is None:
            violations.append(f"{s.id} satisfies unknown description {s.satisfies}")
            continue
        defined_concepts = {ref.concept for ref in _slot_refs(d)}
        for concept, entity in classifications:
            if concept not in defined_concepts:
                continue
            if entity.kind not in EVENT_ENTITY_KINDS:
                violations.append(f"{concept} classifies non-event entity {entity.id}")
            elif entity.id not in situation_events:
                violations.append(f"event {entity.id} has no setting situation")
    return violations
