"""Activity parsing: turn raw episode logs into tokens, then match plan
libraries against the token stream, emitting every constraint-consistent
interpretation.

The parser is one phase-ordered backtracking search, `_search`, over int
bitsets: of token positions for each phase, of scene objects for each role
class. Each time a phase takes a token, forward checking narrows each class
of that phase to the token's participants, and every later phase's
candidates to the tokens whose observed relation to it the propagated
temporal label allows, read from whole relation rows
(`allen.relation_rows`). `parse` ranks what it yields;
`verify_interpretation` runs it over the tokens an interpretation grounds.
Its contract is defined by exhaustive enumeration of injective
phase-to-token assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import product
from operator import and_, or_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

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
_RoleClass = Tuple[int, FrozenSet[Tuple[str, str]]]  # (bit k per phase k, slots)


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
    """The slot sets that ground to one entity taken from the tokens, in
    order of their first phase role slot: each binding class that holds a
    phase role slot, and each unbound one alone, with the bitset of the
    indices of the phases whose tokens must all hold that entity."""
    bound = {s: c for c in binding_classes(d) for s in c}
    classes: Dict[FrozenSet[Tuple[str, str]], int] = {}
    for k, p in enumerate(d.phases):
        for slot in ((p.id, rid) for rid in p.uses_roles):
            c = bound.get(slot, frozenset({slot}))
            classes[c] = classes.get(c, 0) | 1 << k
    return tuple((phases, slots) for slots, phases in classes.items())


def parse(
    episode: Episode, library: Sequence[Description], store: OntologyStore
) -> List[Interpretation]:
    """Every interpretation of the episode under the plan library, ranked."""
    return rank(list(_search(episode, _compile(library, store).compiled, store)))


def _search(
    episode: Episode, plans: Iterable[CompiledPlan], store: OntologyStore
) -> Iterator[Interpretation]:
    """Every interpretation of the episode under `plans`, in plan order and
    then search order: the one search behind `parse` and
    `verify_interpretation`. `allowed(a, mask)` is the bitset of positions b
    such that token a stands to token b in a relation of the 13-bit `mask`.
    Only a phase after a plan's first has its domain narrowed, so the rows
    span only the positions that fit such a phase; token a's rows are read
    once, when first asked for, and kept as (relation bit, positions) for
    the nonempty ones. A token that collapses under eps, a widened point,
    anchors no temporal label: it is in no row, and its own rows are empty.
    Scene objects are bits in scene order, `holds[a]` token a's
    participants; a role class starts with the objects all its roles admit.
    """
    tokens = episode.tokens
    # Each question below is answered once per call, never across calls: the
    # store may be unfrozen and change between them, and episodes differ.
    event_types = {tag: _event_types(tag, store) for tag in {t.type_tag for t in tokens}}
    bits = {e: 1 << n for n, e in enumerate(episode.scene.objects)}
    holds = [reduce(or_, (bits.get(e, 0) for e in t.participants), 0) for t in tokens]

    @cache
    def fitting(concept: str) -> int:
        """Bitset of the positions of the tokens a phase of `concept` fits."""
        cid = store.concept(concept).id  # raises UnknownId for a concept not in the store
        return sum(1 << pos for pos, t in enumerate(tokens) if cid in event_types[t.type_tag])

    @cache
    def admitting(role: str) -> int:
        """Bitset of the scene objects Role `role` admits."""
        return sum(b for e, b in bits.items() if admits(role, e, episode.scene, store))

    searches: List[Tuple[CompiledPlan, List[int], List[int]]] = []
    for plan in plans:
        domains = [fitting(p.concept) for p in plan.description.phases]
        if not (domains and all(domains)):  # a phase no token fits matches nothing
            continue
        roles = [reduce(and_, (admitting(rid) for _, rid in slots)) for _, slots in plan.classes]
        if all(roles):  # nor does a class no object can play
            searches.append((plan, domains, roles))
    later = reduce(or_, (dom for _, domains, _ in searches for dom in domains[1:]), 0)
    spans = [
        (pos, t.interval.start, t.interval.end) for pos, t in enumerate(tokens) if later >> pos & 1
    ]
    rows: Dict[int, List[Tuple[int, int]]] = {}

    def allowed(a: int, mask: int) -> int:
        if a not in rows:
            row = relation_rows(tokens[a].interval, spans, episode.eps)
            rows[a] = [(1 << p, positions) for p, positions in enumerate(row) if positions]
        found = 0
        for rel, positions in rows[a]:
            if mask & rel:
                found |= positions
        return found

    def extend(plan: CompiledPlan, domains: Sequence[int], roles: List[int], assigned: List[int]):
        """Every interpretation that extends `assigned`, the token positions
        of the first k phases, injectively. `domains` holds the positions
        still open to each phase from k on, `roles` the objects still open
        to each of `plan.classes`. Assigning a token to phase k keeps in
        each class of phase k only the token's participants, and in each
        later phase m's domain only the other positions that the token's
        row of the label from k to m allows; an emptied domain prunes the
        branch. Tokens are tried in episode order, and the phases' rows of
        `plan.masks` follow the defined slot's, if any. At a leaf, each
        choice of one object per class is one role grounding."""
        d = plan.description
        k = len(assigned)
        if not domains:
            phase_grounding = tuple(
                sorted((d.phases[j].id, tokens[pos].id) for j, pos in enumerate(assigned))
            )
            start = min(tokens[pos].interval.start for pos in assigned)
            for combo in product(*([e for e, b in bits.items() if r & b] for r in roles)):
                grounded = sorted((s, e) for (_, ss), e in zip(plan.classes, combo) for s in ss)
                yield Interpretation(d.id, phase_grounding, tuple(grounded), k / len(tokens), start)
            return
        at = len(plan.masks) - len(d.phases) + k  # the row of phase k
        labels = plan.masks[at]
        domain, *rest = domains
        while domain:
            bit = domain & -domain
            domain ^= bit
            pos = bit.bit_length() - 1
            held = [r & holds[pos] if ph >> k & 1 else r for (ph, _), r in zip(plan.classes, roles)]
            if not all(held):
                continue
            narrowed: List[int] = []
            for m, dom in enumerate(rest, at + 1):
                dom &= ~bit & allowed(pos, labels[m])
                if not dom:
                    break
                narrowed.append(dom)
            else:
                assigned.append(pos)
                yield from extend(plan, narrowed, held, assigned)
                assigned.pop()

    for plan, domains, roles in searches:
        yield from extend(plan, domains, roles, [])


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
    """Whether `_search` over the tokens the interpretation grounds, in
    episode order, yields its phase and role groundings, order aside and
    each entry once; coverage and earliest start are not checked. Two
    tokens' relation depends only on their intervals and eps, so this holds
    iff the search over the whole episode yields them."""
    plan = _compile(library, store).plan(interp.plan)
    if plan is None:
        raise DanglingReference(f"unknown plan: {interp.plan}")
    if not plan.description.phases:
        raise DanglingReference(f"description {interp.plan} has no parseable phases")
    phase_ids = {p.id for p in plan.description.phases}
    grounded = {tid for _, tid in interp.phase_grounding}
    tokens = tuple(t for t in episode.tokens if t.id in grounded)
    found = {t.id for t in tokens}
    for pid, tid in interp.phase_grounding:
        if pid not in phase_ids:
            raise DanglingReference(f"unknown phase: {pid}")
        if tid not in found:
            raise DanglingReference(f"unknown token: {tid}")
    groundings = (tuple(sorted(interp.phase_grounding)), tuple(sorted(interp.role_grounding)))
    return any(
        (i.phase_grounding, i.role_grounding) == groundings
        for i in _search(Episode(episode.id, tokens, episode.scene, episode.eps), (plan,), store)
    )
