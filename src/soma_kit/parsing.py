"""Activity parsing: turn raw episode logs into tokens, then match plan
libraries against the token stream, emitting every constraint-consistent
interpretation.

The parser is a phase-ordered backtracking search over int bitsets of
token positions. Concept subsumption gives each phase its candidates; each
time a phase takes a token, forward checking on the propagated temporal
labels narrows every later phase's candidates to the tokens whose observed
relation to it the label allows, read from whole relation rows
(`allen.relation_rows`). Its contract is defined by exhaustive enumeration
of injective phase-to-token assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial, reduce
from itertools import product
from operator import or_
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .activity import Description, EventTypeRef, _slot_refs, binding_classes, validate_and_compile
from .allen import ConcreteInterval, relation_rows
from .errors import DanglingReference, DegenerateInterval, NegativeDuration, ValidationFailed
from .grounding import Scene, admits
from .ontology import EVENT_CONCEPT_KINDS, OntologyStore

DEFAULT_EPS = 0.01  # width of a widened point event; tolerance of endpoint comparisons


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
    eps: float = DEFAULT_EPS


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


def tokenize(raw_events: Sequence[RawEvent], eps: float = DEFAULT_EPS) -> List[Token]:
    """Widen point events, split states at interruptions, and sort.

    A state event is split by any other state event over the same
    participants that carries a different type tag, so every state token is
    homeomeric: no sub-interval spans a state transition. A point event is
    widened to [t, t + eps]: an eps that is not positive and finite, or a t
    too far from 0 to widen, raises DegenerateInterval. An event with a
    non-finite time, an end before its start or no participants raises
    NegativeDuration naming its index (`event 3: Tilting has no participants`).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DegenerateInterval(f"eps must be a positive finite number, got {eps!r}")
    widened: List[RawEvent] = []
    for idx, ev in enumerate(raw_events):
        if not (math.isfinite(ev.start) and math.isfinite(ev.end)):
            raise NegativeDuration(f"event {idx}: non-finite timestamps on {ev.type_tag}")
        if ev.end < ev.start:
            raise NegativeDuration(
                f"event {idx}: {ev.type_tag} ends before it starts: [{ev.start}, {ev.end}]"
            )
        if not ev.participants:
            raise NegativeDuration(f"event {idx}: {ev.type_tag} has no participants")
        end = ev.end if ev.end > ev.start else ev.start + eps
        if not end > ev.start:
            raise DegenerateInterval(f"event {idx}: {ev.type_tag} at {ev.start} is too far from 0")
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


def _event_types(tag: str, store: OntologyStore) -> FrozenSet[str]:
    """Every concept that subsumes an event concept named `tag`: a phase
    fits a token iff its concept is in the set of the token's type tag."""
    named = (c.id for c in store.concepts_named(tag) if c.kind in EVENT_CONCEPT_KINDS)
    return frozenset().union(*map(store.ancestors, named))


_Masks = Tuple[Tuple[int, ...], ...]
_RoleClass = Tuple[Tuple[str, ...], FrozenSet[Tuple[str, str]]]  # (phase ids, slots)


@dataclass(frozen=True)
class CompiledPlan:
    """A plan or process flow as every question about an episode reads it:
    `masks[i][j]` the propagated label from slot i to slot j as a 13-bit
    mask, the slots in `_slot_refs` order (the defined event, if any, then
    the phases), and its role classes."""

    description: Description
    masks: _Masks
    classes: Tuple[_RoleClass, ...]


class CompiledLibrary(tuple):
    """The descriptions of a library, in order, validated against a store and
    compiled once: `compiled[i]` is `self[i]` compiled from the network its
    validation propagated, which is then dropped. Building one is the only
    way to compile, so any issue raises one ValidationFailed listing
    `issues`, then each duplicate id and validation issue of a description,
    prefixed `description <id>:`."""

    compiled: Tuple[CompiledPlan, ...]

    def __new__(
        cls,
        descriptions: Iterable[Description],
        store: OntologyStore,
        issues: Iterable[str] = (),
    ):
        self = super().__new__(cls, descriptions)
        issues = list(issues)
        plans: Dict[str, Optional[CompiledPlan]] = {}
        for d in self:
            if d.id in plans:
                issues.append(f"description {d.id}: duplicate-description: id is used more than once")
            d_issues, net = validate_and_compile(d, store)
            issues += (f"description {d.id}: {issue}" for issue in d_issues)
            plans[d.id] = None if net is None else CompiledPlan(d, net.masks(), _role_classes(d))
        if issues:
            raise ValidationFailed(issues)
        self._plans = plans
        self._store = store
        self.compiled = tuple(plans.values())
        return self

    def plan(self, id: str) -> Optional[CompiledPlan]:
        """The compiled description `id`, or None when the library has none."""
        return self._plans.get(id)

    def slots(self, name: str) -> Iterator[Tuple[CompiledPlan, int, EventTypeRef]]:
        """Every slot whose id or concept name is `name`, in library order and
        then `_slot_refs` order, as (plan, its row in `plan.masks`, slot)."""
        for plan in self.compiled:
            for i, ref in enumerate(_slot_refs(plan.description)):
                if ref.id == name or self._store.concept(ref.concept).name == name:
                    yield plan, i, ref


def _compile(library: Sequence[Description], store: OntologyStore) -> CompiledLibrary:
    return library if isinstance(library, CompiledLibrary) else CompiledLibrary(library, store)


def _role_classes(d: Description) -> Tuple[_RoleClass, ...]:
    """The slot sets that ground to one entity taken from the tokens: each
    binding class that holds a phase role slot, and each unbound phase role
    slot alone, with the phases whose tokens must all hold that entity."""
    phase_slots = [(p.id, rid) for p in d.phases for rid in p.uses_roles]
    classes = binding_classes(d)
    classes += [
        frozenset({s}) for s in dict.fromkeys(phase_slots) if not any(s in c for c in classes)
    ]
    return tuple(
        (tuple(dict.fromkeys(pid for pid, rid in phase_slots if (pid, rid) in c)), c)
        for c in classes
        if not c.isdisjoint(phase_slots)
    )


def _role_assignments(
    classes: Sequence[_RoleClass],
    phase_grounding: Dict[str, Token],
    admitted: Callable[[str, str], bool],
) -> List[Dict[Tuple[str, str], str]]:
    """All role groundings compatible with the token participants, the plan's
    bindings, and the roles' selectional restrictions: one entity per class,
    a participant of each of its phases' tokens that each of its slots'
    concepts admits, given to every slot of the class."""
    choices: List[List[str]] = []
    for phases, slots in classes:
        first, *rest = (phase_grounding[pid].participants for pid in phases)
        choices.append([
            e for e in dict.fromkeys(first)
            if all(e in r for r in rest) and all(admitted(rid, e) for _, rid in slots)
        ])
    return [
        {s: e for (_, slots), e in zip(classes, combo) for s in slots}
        for combo in product(*choices)
    ]


def parse(
    episode: Episode, library: Sequence[Description], store: OntologyStore
) -> List[Interpretation]:
    """Every interpretation of the episode under the plan library, ranked."""
    tokens = episode.tokens
    # Each question below is answered once per call, never across calls: the
    # store may be unfrozen and change between them, and episodes differ.
    event_types = cache(partial(_event_types, store=store))
    admitted = cache(partial(admits, scene=episode.scene, store=store))

    @cache
    def fitting(concept: str) -> int:
        """Bitset of the positions of the tokens a phase of `concept` fits."""
        cid = store.concept(concept).id  # raises UnknownId for a concept not in the store
        return sum(1 << pos for pos, t in enumerate(tokens) if cid in event_types(t.type_tag))

    searches: List[Tuple[CompiledPlan, List[int]]] = []
    for plan in _compile(library, store).compiled:
        domains = [fitting(p.concept) for p in plan.description.phases]
        if domains and all(domains):  # a phase no token fits matches nothing
            searches.append((plan, domains))
    later = reduce(or_, (dom for _, domains in searches for dom in domains[1:]), 0)
    allowed = _relation_filter(tokens, episode.eps, later)
    found: List[Interpretation] = []
    for plan, domains in searches:
        found += _interpretations(plan, domains, episode, allowed, admitted, [])
    return rank(found)


def _relation_filter(tokens: Sequence[Token], eps: float, fit: int) -> Callable[[int, int], int]:
    """`allowed(a, mask)`: the bitset of the positions b in `fit` such that
    token a stands to token b in a relation of the 13-bit `mask`. Only a
    phase after a plan's first has its domain narrowed, so `fit` need only
    hold the positions that fit such a phase. Token a's relation rows are
    read once, when first asked for, and kept as (relation bit, positions)
    for the nonempty ones. A token that collapses under eps, a widened
    point, anchors no temporal label: it is in no row, and its own rows are
    empty."""
    spans = [
        (pos, t.interval.start, t.interval.end) for pos, t in enumerate(tokens) if fit >> pos & 1
    ]
    rows: Dict[int, List[Tuple[int, int]]] = {}

    def allowed(a: int, mask: int) -> int:
        if a not in rows:
            row = relation_rows(tokens[a].interval, spans, eps)
            rows[a] = [(1 << p, positions) for p, positions in enumerate(row) if positions]
        found = 0
        for rel, positions in rows[a]:
            if mask & rel:
                found |= positions
        return found

    return allowed


def _interpretations(
    plan: CompiledPlan,
    domains: Sequence[int],
    episode: Episode,
    allowed: Callable[[int, int], int],
    admitted: Callable[[str, str], bool],
    assigned: List[int],
) -> Iterable[Interpretation]:
    """Every interpretation that extends `assigned`, the token positions of
    the first k phases, injectively. `domains` holds a bitset of positions
    for each phase from k on: those whose type fits the phase and that no
    assignment so far excludes. Assigning a token to phase k forward checks
    every later phase m: it keeps only the positions other than the token's
    that the token's row of the label from phase k to phase m allows, and
    an emptied domain prunes the branch. Tokens are tried in episode order.
    The phases' rows and columns of `plan.masks` follow the defined slot's,
    if any."""
    d = plan.description
    k = len(assigned)
    if not domains:
        grounding = {d.phases[j].id: episode.tokens[pos] for j, pos in enumerate(assigned)}
        for roles in _role_assignments(plan.classes, grounding, admitted):
            yield _make_interpretation(d, grounding, roles, episode)
        return
    at = len(plan.masks) - len(d.phases) + k  # the row of phase k
    labels = plan.masks[at]
    domain, *later = domains
    while domain:
        bit = domain & -domain
        domain ^= bit
        pos = bit.bit_length() - 1
        narrowed: List[int] = []
        for m, dom in enumerate(later, at + 1):
            dom &= ~bit & allowed(pos, labels[m])
            if not dom:
                break
            narrowed.append(dom)
        else:
            assigned.append(pos)
            yield from _interpretations(plan, narrowed, episode, allowed, admitted, assigned)
            assigned.pop()


def _make_interpretation(
    d: Description,
    assigned: Dict[str, Token],
    roles: Dict[Tuple[str, str], str],
    episode: Episode,
) -> Interpretation:
    return Interpretation(
        plan=d.id,
        phase_grounding=tuple(sorted((pid, t.id) for pid, t in assigned.items())),
        role_grounding=tuple(sorted(roles.items())),
        coverage=len(assigned) / len(episode.tokens),
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
    """Re-derivation through the parser's own search: with each phase's
    domain the one token it grounds (empty when the types do not match), the
    search, forward checking as `parse` does, yields the interpretation's
    phase and role groundings, order aside and each entry once; coverage and
    earliest start are not checked."""
    plan = _compile(library, store).plan(interp.plan)
    if plan is None:
        raise DanglingReference(f"unknown plan: {interp.plan}")
    if not plan.description.phases:
        raise DanglingReference(f"description {interp.plan} has no parseable phases")
    d = plan.description
    phase_ids = {p.id for p in d.phases}
    positions = {t.id: pos for pos, t in enumerate(episode.tokens)}
    grounding: Dict[str, int] = {}  # phase id -> token position
    for pid, tid in interp.phase_grounding:
        if pid not in phase_ids:
            raise DanglingReference(f"unknown phase: {pid}")
        if tid not in positions:
            raise DanglingReference(f"unknown token: {tid}")
        grounding[pid] = positions[tid]
    domains = [
        1 << pos
        if (pos := grounding.get(p.id)) is not None
        and store.concept(p.concept).id in _event_types(episode.tokens[pos].type_tag, store)
        else 0
        for p in d.phases
    ]
    allowed = _relation_filter(episode.tokens, episode.eps, reduce(or_, domains[1:], 0))
    admitted = partial(admits, scene=episode.scene, store=store)
    groundings = (tuple(sorted(interp.phase_grounding)), tuple(sorted(interp.role_grounding)))
    return any(
        (i.phase_grounding, i.role_grounding) == groundings
        for i in _interpretations(plan, domains, episode, allowed, admitted, [])
    )
