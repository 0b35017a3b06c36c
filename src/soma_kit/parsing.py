"""Activity parsing: turn raw episode logs into tokens, then match plan
libraries against the token stream, emitting every constraint-consistent
interpretation.

The parser is a phase-ordered backtracking search pruned by concept
subsumption and temporal label membership; its contract is defined by
exhaustive enumeration of injective phase-to-token assignments.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple

from .activity import Description, bind_roles, compile_constraints
from .allen import ConcreteInterval, relation_from_endpoints
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


def _type_matches(type_tag: str, phase_concept: str, store: OntologyStore) -> bool:
    """Subsumption-aware match of a token's ground type tag against the
    phase's event-type concept."""
    for c in store.concepts_named(type_tag):
        if c.kind in EVENT_CONCEPT_KINDS and store.is_subsumed_by(c.id, phase_concept):
            return True
    return False


_Masks = Tuple[Tuple[int, ...], ...]

#: Phase label tables by description value, dropped with the description.
_MASKS: "weakref.WeakKeyDictionary[Description, _Masks]" = weakref.WeakKeyDictionary()


def _phase_masks(d: Description) -> _Masks:
    """`masks[j][k]`: the propagated label from phase j to phase k, as a
    13-bit mask, in phase order. Path consistency depends on the plan alone,
    so it runs once per distinct description value; an inconsistent one is
    never stored and raises TemporallyInconsistent on every call."""
    masks = _MASKS.get(d)
    if masks is None:
        net = compile_constraints(d)
        ids = [p.id for p in d.phases]
        masks = tuple(tuple(net.query_relation(a, b).mask for b in ids) for a in ids)
        _MASKS[d] = masks
    return masks


def _relation_bits(tokens: Sequence[Token], eps: float) -> Callable[[int, int], int]:
    """Bit of the observed relation between two tokens, by episode position,
    memoized for one call; 0 when either collapses under eps, since widened
    point tokens cannot anchor temporal labels."""
    memo: Dict[Tuple[int, int], int] = {}

    def bit(a: int, b: int) -> int:
        hit = memo.get((a, b))
        if hit is None:
            try:
                hit = relation_from_endpoints(tokens[a].interval, tokens[b].interval, eps).bit
            except DegenerateInterval:
                hit = 0
            memo[a, b] = hit
        return hit

    return bit


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
    tokens = episode.tokens
    bit = _relation_bits(tokens, episode.eps)
    by_tag: Dict[str, List[int]] = {}
    for pos, t in enumerate(tokens):
        by_tag.setdefault(t.type_tag, []).append(pos)
    # Each (type tag, phase concept) pair is matched once per call, never
    # across calls: the store may be unfrozen and change between them.
    candidates: Dict[str, List[int]] = {}
    for d in library:
        if not d.phases:
            continue
        masks = _phase_masks(d)
        for p in d.phases:
            if p.concept not in candidates:
                candidates[p.concept] = sorted(
                    pos
                    for tag, group in by_tag.items()
                    if _type_matches(tag, p.concept, store)
                    for pos in group
                )
        phase_candidates = [candidates[p.concept] for p in d.phases]
        _search(d, masks, phase_candidates, [], set(), episode, bit, store, found)
    return rank(found)


def _search(
    d: Description,
    masks: _Masks,
    candidates: List[List[int]],
    assigned: List[Tuple[int, int]],
    used: Set[int],
    episode: Episode,
    bit: Callable[[int, int], int],
    store: OntologyStore,
    out: List[Interpretation],
) -> None:
    """Extend `assigned`, (phase index, token position) pairs, phase by
    phase; `candidates[k]` holds the positions, in episode order, of the
    tokens whose type matches phase k."""
    k = len(assigned)
    if k == len(d.phases):
        grounding = {d.phases[j].id: episode.tokens[pos] for j, pos in assigned}
        for roles in _role_assignments(d, grounding, episode.scene, store):
            out.append(_make_interpretation(d, grounding, roles, episode))
        return
    for pos in candidates[k]:
        if pos in used or not _temporally_admissible(masks, k, pos, assigned, bit):
            continue
        assigned.append((k, pos))
        used.add(pos)
        _search(d, masks, candidates, assigned, used, episode, bit, store, out)
        used.discard(pos)
        assigned.pop()


def _temporally_admissible(
    masks: _Masks,
    k: int,
    pos: int,
    assigned: Sequence[Tuple[int, int]],
    bit: Callable[[int, int], int],
) -> bool:
    """Token `pos` may fill phase k iff, for every assigned (phase j, token),
    the observed relation's bit lies in the propagated label from j to k."""
    for j, other in assigned:
        if not masks[j][k] & bit(other, pos):
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
    index = {p.id: k for k, p in enumerate(d.phases)}
    positions = {t.id: pos for pos, t in enumerate(episode.tokens)}
    grounding: Dict[str, int] = {}  # phase id -> token position
    for pid, tid in interp.phase_grounding:
        if pid not in index:
            raise DanglingReference(f"unknown phase: {pid}")
        if tid not in positions:
            raise DanglingReference(f"unknown token: {tid}")
        grounding[pid] = positions[tid]
    if set(grounding) != set(index):
        return False
    if len(set(grounding.values())) != len(grounding):
        return False  # not injective
    masks = _phase_masks(d)
    bit = _relation_bits(episode.tokens, episode.eps)
    assigned: List[Tuple[int, int]] = []
    for pid in sorted(grounding):
        k, pos = index[pid], grounding[pid]
        if not _type_matches(episode.tokens[pos].type_tag, d.phases[k].concept, store):
            return False
        if not _temporally_admissible(masks, k, pos, assigned, bit):
            return False
        assigned.append((k, pos))
    tokens = {pid: episode.tokens[pos] for pid, pos in grounding.items()}
    return dict(interp.role_grounding) in _role_assignments(d, tokens, episode.scene, store)
