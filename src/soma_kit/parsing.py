"""Activity parsing: turn raw episode logs into tokens, then match plan
libraries against the token stream, emitting every constraint-consistent
interpretation.

The parser is a phase-ordered backtracking search pruned by concept
subsumption and temporal label membership; its contract is defined by
exhaustive enumeration of injective phase-to-token assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .activity import Description, EventTypeRef, bind_roles, compile_constraints
from .allen import ConcreteInterval, ConstraintNetwork, relation_from_endpoints
from .errors import DanglingReference, DegenerateInterval, NegativeDuration
from .grounding import Scene
from .ontology import (
    ConceptKind,
    EVENT_CONCEPT_KINDS,
    OntologyStore,
)


class TokenClass(Enum):
    CONTACT_EVENT = "contact"
    MOTION_EVENT = "motion"
    STATE_CHANGE = "state"


@dataclass(frozen=True)
class RawEvent:
    """One observed occurrence before tokenization."""

    kind: TokenClass
    type_tag: str
    participants: Tuple[str, ...]
    start: float
    end: float


@dataclass(frozen=True)
class Token:
    id: str
    token_class: TokenClass
    type_tag: str
    participants: Tuple[str, ...]
    interval: ConcreteInterval


@dataclass(frozen=True)
class Episode:
    id: str
    tokens: Tuple[Token, ...]
    scene: Scene
    eps: float = 0.01


@dataclass(frozen=True)
class Interpretation:
    """One grounding of a plan onto an episode, fully constraint-checked."""

    plan: str
    phase_grounding: Tuple[Tuple[str, str], ...]  # (phase id, token id), sorted
    role_grounding: Tuple[Tuple[Tuple[str, str], str], ...]  # ((slot, role), entity)
    coverage: float
    earliest_start: float

    @property
    def sort_key(self):
        return (
            -self.coverage,
            self.earliest_start,
            self.plan,
            self.phase_grounding,
            self.role_grounding,
        )


def tokenize(raw_events: Sequence[RawEvent], eps: float = 0.01) -> List[Token]:
    """Widen point events, split states at interruptions, and sort.

    A state event is split by any other state event over the same
    participants that carries a different type tag, so every state token is
    homeomeric: no sub-interval spans a state transition. A point event is
    widened to [t, t + eps], so eps must be positive and finite; any other
    eps raises DegenerateInterval.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DegenerateInterval(f"eps must be a positive finite number, got {eps!r}")
    widened: List[RawEvent] = []
    for ev in raw_events:
        if not (math.isfinite(ev.start) and math.isfinite(ev.end)):
            raise NegativeDuration(f"non-finite timestamps on {ev.type_tag}")
        if ev.end < ev.start:
            raise NegativeDuration(
                f"{ev.type_tag} ends before it starts: [{ev.start}, {ev.end}]"
            )
        if not ev.participants:
            raise NegativeDuration(f"{ev.type_tag} has no participants")
        end = ev.end if ev.end > ev.start else ev.start + eps
        widened.append(RawEvent(ev.kind, ev.type_tag, ev.participants, ev.start, end))

    cuts = _state_cuts(widened)
    tokens: List[Token] = []
    for idx, ev in enumerate(widened):
        if ev.kind is TokenClass.STATE_CHANGE:
            segments = _state_segments(ev, cuts.get(idx, ()))
        else:
            segments = [(ev.start, ev.end)]
        for seg_idx, (s, e) in enumerate(segments):
            suffix = f".{seg_idx}" if len(segments) > 1 else ""
            tokens.append(
                Token(
                    id=f"t{idx}{suffix}",
                    token_class=ev.kind,
                    type_tag=ev.type_tag,
                    participants=ev.participants,
                    interval=ConcreteInterval(s, e),
                )
            )
    tokens.sort(key=lambda t: (t.interval.start, t.interval.end, t.id))
    return tokens


_Cut = Tuple[float, float, int]  # (lo, hi, index of the conflicting event)


def _state_cuts(events: Sequence[RawEvent]) -> Dict[int, List[_Cut]]:
    """For each state event, by index, the spans where a state with another
    type tag over the same participant set overlaps it.

    States are grouped by participant set and each group is swept in start
    order: an event meets only the later starts before its own end, so the
    cost is O(n log n + k) for k overlapping same-set pairs. Equal cuts are
    ordered by the conflicting event's index, as a scan of all events in
    input order would meet them: the first one sets the representation
    (`3` or `3.0`) of the boundary it leaves.
    """
    groups: Dict[FrozenSet[str], List[int]] = {}
    for idx, ev in enumerate(events):
        if ev.kind is TokenClass.STATE_CHANGE:
            groups.setdefault(frozenset(ev.participants), []).append(idx)
    cuts: Dict[int, List[_Cut]] = {}
    for group in groups.values():
        group.sort(key=lambda idx: events[idx].start)
        for pos, i in enumerate(group):
            a = events[i]
            for q in range(pos + 1, len(group)):
                j = group[q]
                b = events[j]
                if b.start >= a.end:
                    break
                if b.end > a.start and b.type_tag != a.type_tag:
                    lo, hi = b.start, min(a.end, b.end)
                    cuts.setdefault(i, []).append((lo, hi, j))
                    cuts.setdefault(j, []).append((lo, hi, i))
    return cuts


def _state_segments(ev: RawEvent, cuts: Sequence[_Cut]) -> List[Tuple[float, float]]:
    """Sub-intervals of a state event that survive its cuts."""
    segments: List[Tuple[float, float]] = []
    cursor = ev.start
    for lo, hi, _ in sorted(cuts):
        if lo > cursor:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < ev.end:
        segments.append((cursor, ev.end))
    return segments


def _type_matches(token: Token, phase_concept: str, store: OntologyStore) -> bool:
    """Subsumption-aware match of a token's ground type tag against the
    phase's event-type concept."""
    for c in store.concepts_named(token.type_tag):
        if c.kind in EVENT_CONCEPT_KINDS and store.is_subsumed_by(c.id, phase_concept):
            return True
    return False


def _role_assignments(
    d: Description,
    phase_grounding: Dict[str, Token],
    scene: Scene,
    store: OntologyStore,
) -> List[Dict[Tuple[str, str], str]]:
    """All role groundings compatible with the token participants, the plan's
    bindings, and the roles' selectional restrictions."""
    slots: List[Tuple[str, str]] = []
    options: List[Tuple[str, ...]] = []
    for phase in d.phases:
        token = phase_grounding[phase.id]
        for rid in phase.uses_roles:
            slots.append((phase.id, rid))
            options.append(token.participants)
    results: List[Dict[Tuple[str, str], str]] = []
    for combo in product(*options):
        closed = bind_roles(d, dict(zip(slots, combo)))
        if closed is not None and _roles_admissible(closed, scene, store):
            results.append(closed)
    return results


def _roles_admissible(
    grounding: Dict[Tuple[str, str], str], scene: Scene, store: OntologyStore
) -> bool:
    for (_, concept_id), entity_id in grounding.items():
        if store.concept(concept_id).kind is not ConceptKind.ROLE:
            continue
        if entity_id not in scene:
            return False
        if not store.check_classification(concept_id, scene.entity(entity_id)):
            return False
    return True


def parse(
    episode: Episode, library: Sequence[Description], store: OntologyStore
) -> List[Interpretation]:
    """Every interpretation of the episode under the plan library, ranked."""
    found: List[Interpretation] = []
    for d in library:
        if not d.phases:
            continue
        net = compile_constraints(d)
        candidates = [
            [t for t in episode.tokens if _type_matches(t, p.concept, store)]
            for p in d.phases
        ]
        _search(d, list(d.phases), candidates, {}, episode, net, store, found)
    return rank(found)


def _search(
    d: Description,
    phases: List[EventTypeRef],
    candidates: List[List[Token]],
    assigned: Dict[str, Token],
    episode: Episode,
    net: ConstraintNetwork,
    store: OntologyStore,
    out: List[Interpretation],
) -> None:
    """Extend `assigned` phase by phase; `candidates[i]` holds the tokens,
    in episode order, whose type matches phase i."""
    if len(assigned) == len(phases):
        for roles in _role_assignments(d, assigned, episode.scene, store):
            out.append(_make_interpretation(d, assigned, roles, episode))
        return
    phase = phases[len(assigned)]
    used = {t.id for t in assigned.values()}
    for token in candidates[len(assigned)]:
        if token.id in used:
            continue
        if not _temporally_admissible(phase.id, token, assigned, net, episode.eps):
            continue
        assigned[phase.id] = token
        _search(d, phases, candidates, assigned, episode, net, store, out)
        del assigned[phase.id]


def _temporally_admissible(
    phase_id: str,
    token: Token,
    assigned: Dict[str, Token],
    net: ConstraintNetwork,
    eps: float,
) -> bool:
    for other_id, other_token in assigned.items():
        try:
            rel = relation_from_endpoints(other_token.interval, token.interval, eps)
        except DegenerateInterval:
            return False  # widened point tokens cannot anchor temporal labels
        if rel not in net.query_relation(other_id, phase_id):
            return False
    return True


def _make_interpretation(
    d: Description,
    assigned: Dict[str, Token],
    roles: Dict[Tuple[str, str], str],
    episode: Episode,
) -> Interpretation:
    token_ids = {t.id for t in assigned.values()}
    coverage = len(token_ids) / len(episode.tokens) if episode.tokens else 0.0
    return Interpretation(
        plan=d.id,
        phase_grounding=tuple(sorted((pid, t.id) for pid, t in assigned.items())),
        role_grounding=tuple(sorted(roles.items())),
        coverage=coverage,
        earliest_start=min(t.interval.start for t in assigned.values()),
    )


def rank(interps: Sequence[Interpretation]) -> List[Interpretation]:
    """Deterministic order: coverage desc, earliest grounded start asc, plan
    id, then groundings as the final tie-break."""
    return sorted(interps, key=lambda i: i.sort_key)


def verify_interpretation(
    interp: Interpretation,
    episode: Episode,
    library: Sequence[Description],
    store: OntologyStore,
) -> bool:
    """Straight-line re-check through the parser's own predicates: phases in
    sorted order pass the type and temporal checks, and the role grounding
    is one `_role_assignments` derives for that phase assignment."""
    by_id = {d.id: d for d in library}
    if interp.plan not in by_id:
        raise DanglingReference(f"unknown plan: {interp.plan}")
    d = by_id[interp.plan]
    if not d.phases:
        raise DanglingReference(f"description {d.id} has no parseable phases")
    tokens = {t.id: t for t in episode.tokens}
    phases_by_id = {p.id: p for p in d.phases}
    grounding: Dict[str, Token] = {}
    for pid, tid in interp.phase_grounding:
        if pid not in phases_by_id:
            raise DanglingReference(f"unknown phase: {pid}")
        if tid not in tokens:
            raise DanglingReference(f"unknown token: {tid}")
        grounding[pid] = tokens[tid]
    if set(grounding) != set(phases_by_id):
        return False
    if len({t.id for t in grounding.values()}) != len(grounding):
        return False  # not injective
    net = compile_constraints(d)
    assigned: Dict[str, Token] = {}
    for pid in sorted(grounding):
        token = grounding[pid]
        if not _type_matches(token, phases_by_id[pid].concept, store):
            return False
        if not _temporally_admissible(pid, token, assigned, net, episode.eps):
            return False
        assigned[pid] = token
    return dict(interp.role_grounding) in _role_assignments(d, assigned, episode.scene, store)
