"""Independent oracles used to cross-check the library.

Everything here is deliberately coded from first principles, without reusing
the library's composition table, propagation, or parser search:

- interval relations are decomposed into order constraints over endpoint
  symbols, and conjunctions of '<'/'=' constraints are decided by union-find
  plus cycle detection;
- composition entries and network realizability are decided by enumerating
  atomic scenarios and checking endpoint-order satisfiability;
- propagation is re-coded with the network's pair queue but composes base
  pair by base pair through `compose_base`, the 13x13 table that is itself
  checked against the scenario oracle, and takes converses per relation;
- restriction evaluation is re-coded as a flat scan;
- parsing is re-coded as exhaustive enumeration over injective assignments,
  with its own type match: a scan of every concept by name and a DFS over
  parent edges, never the store's name index or ancestor closure; bindings
  close by copying entities slot to slot until nothing changes;
- tokenization is the per-event definition: every state event is checked
  against every other event for a conflicting state;
- concept loading is a fixpoint: pass over the pending concept records in
  file order, adding each whose parents are all in, until a pass adds none.
"""

import math
from collections import deque
from functools import reduce
from itertools import permutations, product
from operator import or_

from soma_kit import (
    BaseRelation,
    ConcreteInterval,
    RawEvent,
    RelationSet,
    Token,
    TokenClass,
    compose_base,
    converse,
    relation_from_endpoints,
)
from soma_kit.errors import DegenerateInterval, NegativeDuration
from soma_kit.ontology import (
    EVENT_CONCEPT_KINDS,
    And,
    EntityKind,
    HasDisposition,
    KindIs,
    Or,
    RegionWithin,
    TypeTagIn,
)

# Endpoint constraints for "A r B" as (op, left, right) over symbols
# 'a-', 'a+', 'b-', 'b+'. op is '<' or '='. Implicit: x- < x+ per interval.
RELATION_CONSTRAINTS = {
    "b": [("<", "a+", "b-")],
    "bi": [("<", "b+", "a-")],
    "m": [("=", "a+", "b-")],
    "mi": [("=", "b+", "a-")],
    "o": [("<", "a-", "b-"), ("<", "b-", "a+"), ("<", "a+", "b+")],
    "oi": [("<", "b-", "a-"), ("<", "a-", "b+"), ("<", "b+", "a+")],
    "s": [("=", "a-", "b-"), ("<", "a+", "b+")],
    "si": [("=", "a-", "b-"), ("<", "b+", "a+")],
    "d": [("<", "b-", "a-"), ("<", "a+", "b+")],
    "di": [("<", "a-", "b-"), ("<", "b+", "a+")],
    "f": [("=", "a+", "b+"), ("<", "b-", "a-")],
    "fi": [("=", "a+", "b+"), ("<", "a-", "b-")],
    "eq": [("=", "a-", "b-"), ("=", "a+", "b+")],
}


def order_constraints_satisfiable(points, constraints):
    """Decide a conjunction of '<' and '=' constraints over named points."""
    parent = {p: p for p in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    strict = []
    for op, x, y in constraints:
        if op == "=":
            union(x, y)
        else:
            strict.append((x, y))
    edges = {}
    for x, y in strict:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False  # x < y but x = y
        edges.setdefault(rx, set()).add(ry)
    # cycle detection over strict edges
    WHITE, GREY, BLACK = 0, 1, 2
    color = {find(p): WHITE for p in points}

    def dfs(node):
        color[node] = GREY
        for nxt in edges.get(node, ()):
            if color[nxt] == GREY:
                return False
            if color[nxt] == WHITE and not dfs(nxt):
                return False
        color[node] = BLACK
        return True

    return all(color[n] != WHITE or dfs(n) for n in list(color))


def atomic_constraints(var_a, var_b, code):
    """Endpoint constraints for 'var_a <code> var_b' with renamed symbols."""
    rename = {"a-": f"{var_a}-", "a+": f"{var_a}+", "b-": f"{var_b}-", "b+": f"{var_b}+"}
    return [(op, rename[x], rename[y]) for op, x, y in RELATION_CONSTRAINTS[code]]


def scenario_satisfiable(variables, scenario):
    """scenario: dict (i, j) -> base relation code, partial over pairs."""
    points = [f"{v}{sign}" for v in variables for sign in ("-", "+")]
    constraints = [("<", f"{v}-", f"{v}+") for v in variables]
    for (i, j), code in scenario.items():
        constraints += atomic_constraints(i, j, code)
    return order_constraints_satisfiable(points, constraints)


def compose_oracle(r1: BaseRelation, r2: BaseRelation) -> RelationSet:
    """All relations r3 with a satisfiable {A r1 B, B r2 C, A r3 C}."""
    members = []
    for r3 in BaseRelation:
        scenario = {("A", "B"): r1.code, ("B", "C"): r2.code, ("A", "C"): r3.code}
        if scenario_satisfiable(["A", "B", "C"], scenario):
            members.append(r3)
    return RelationSet.of(*members)


def network_realizable(variables, labels):
    """labels: dict (i, j) -> RelationSet for constrained pairs only.

    True iff some atomic scenario over the constrained pairs is satisfiable.
    Unconstrained pairs impose nothing.
    """
    pairs = sorted(labels)
    choices = [sorted(r.code for r in labels[p]) for p in pairs]
    for combo in product(*choices):
        scenario = dict(zip(pairs, combo))
        if scenario_satisfiable(variables, scenario):
            return True
    return False


def propagate_oracle(n, constraints):
    """Path consistency over variables 0..n-1 after intersecting each
    `(i, j, RelationSet)` of `constraints` into the label of (i, j).

    Pairs i < j are queued in order; a pair whose label is already empty
    is the witness before any pass runs, the first such pair in queue order.
    Otherwise, for each queued pair, every third variable k in order
    tightens (i, k) and then (k, j), both from the labels as they were
    before either update at this k. Returns `(consistent, witness, labels)`:
    the witness is the (x, y) whose label is empty, and `labels[x][y]` holds
    every label as the pass left it.
    """

    table = {(r1, r2): compose_base(r1, r2).mask for r1 in BaseRelation for r2 in BaseRelation}

    def compose_per_bit(left, right):
        return RelationSet(reduce(or_, (table[r1, r2] for r1 in left for r2 in right), 0))

    def converse_per_bit(label):
        return RelationSet.of(*(converse(r) for r in label))

    labels = [[RelationSet.full()] * n for _ in range(n)]
    for k in range(n):
        labels[k][k] = RelationSet.of(BaseRelation.EQUALS)
    for i, j, relations in constraints:
        labels[i][j] = labels[i][j] & relations
        labels[j][i] = converse_per_bit(labels[i][j])
    queue = deque((i, j) for i in range(n) for j in range(i + 1, n))
    for i, j in queue:
        if labels[i][j].is_empty:
            return False, (i, j), labels
    while queue:
        i, j = queue.popleft()
        for k in range(n):
            if k in (i, j):
                continue
            updates = [
                (i, k, compose_per_bit(labels[i][j], labels[j][k])),
                (k, j, compose_per_bit(labels[k][i], labels[i][j])),
            ]
            for x, y, composed in updates:
                new = labels[x][y] & composed
                if new == labels[x][y]:
                    continue
                if new.is_empty:
                    return False, (x, y), labels
                labels[x][y], labels[y][x] = new, converse_per_bit(new)
                if (min(x, y), max(x, y)) not in queue:
                    queue.append((min(x, y), max(x, y)))
    return True, None, labels


def relation_case_analysis(a, b, eps=0):
    """Direct case analysis of two concrete intervals; endpoints within eps
    of each other coincide. Exact for eps > 0 only where the endpoint
    differences are exact, such as on a grid of quarters."""

    def eq(x, y):
        return abs(x - y) <= eps

    def lt(x, y):
        return x < y and not eq(x, y)

    if lt(a.end, b.start):
        return BaseRelation.BEFORE
    if eq(a.end, b.start):
        return BaseRelation.MEETS
    if lt(b.end, a.start):
        return BaseRelation.AFTER
    if eq(b.end, a.start):
        return BaseRelation.MET_BY
    if eq(a.start, b.start) and eq(a.end, b.end):
        return BaseRelation.EQUALS
    if eq(a.start, b.start):
        return BaseRelation.STARTS if lt(a.end, b.end) else BaseRelation.STARTED_BY
    if eq(a.end, b.end):
        return BaseRelation.FINISHED_BY if lt(a.start, b.start) else BaseRelation.FINISHES
    if lt(a.start, b.start) and lt(b.end, a.end):
        return BaseRelation.CONTAINS
    if lt(b.start, a.start) and lt(a.end, b.end):
        return BaseRelation.DURING
    if lt(a.start, b.start):
        return BaseRelation.OVERLAPS
    return BaseRelation.OVERLAPPED_BY


def restriction_brute_force(entity, r):
    """Flat re-implementation of restriction evaluation."""
    if isinstance(r, KindIs):
        return entity.kind == r.kind
    if isinstance(r, TypeTagIn):
        return any(entity.type_tag == tag for tag in r.tags)
    if isinstance(r, HasDisposition):
        found = False
        for d in entity.dispositions:
            if d == r.disposition_type:
                found = True
        return found
    if isinstance(r, RegionWithin):
        if entity.kind == EntityKind.REGION:
            return (
                entity.value is not None
                and entity.units == r.units
                and not (entity.value < r.lo or entity.value > r.hi)
            )
        for q in entity.qualities:
            if q.units == r.units and q.value is not None:
                if not (q.value < r.lo or q.value > r.hi):
                    return True
        return False
    if isinstance(r, And):
        for item in r.items:
            if not restriction_brute_force(entity, item):
                return False
        return True
    if isinstance(r, Or):
        for item in r.items:
            if restriction_brute_force(entity, item):
                return True
        return False
    raise TypeError(r)


def subsumed_oracle(store, a, b):
    """True iff b is reachable from a via parent edges (reflexive): a DFS
    over `Concept.parents`, no memo."""
    store.concept(b)
    frontier = [store.concept(a).id]
    visited = set()
    while frontier:
        node = frontier.pop()
        if node == b:
            return True
        if node in visited:
            continue
        visited.add(node)
        frontier.extend(store.concept(node).parents)
    return False


def type_matches_oracle(token, phase_concept, store):
    """Some event concept named like the token's type tag is subsumed by
    the phase's concept; concepts are found by scanning them all."""
    for c in store.concepts():
        if (
            c.name == token.type_tag
            and c.kind in EVENT_CONCEPT_KINDS
            and subsumed_oracle(store, c.id, phase_concept)
        ):
            return True
    return False


def parse_oracle(episode, library, store):
    """Exhaustive enumeration of interpretations: all injective phase-token
    maps crossed with all role assignments, filtered by the four parser
    conditions."""
    from soma_kit.activity import compile_constraints

    results = set()
    for d in library:
        if not d.phases:
            continue
        net = compile_constraints(d)
        phases = list(d.phases)
        tokens = list(episode.tokens)
        if len(tokens) < len(phases):
            continue
        for assignment in permutations(tokens, len(phases)):
            mapping = dict(zip((p.id for p in phases), assignment))
            if not _assignment_ok(d, phases, mapping, net, episode, store):
                continue
            for roles in _all_role_groundings(d, phases, mapping, episode, store):
                token_ids = {t.id for t in mapping.values()}
                results.add(
                    (
                        d.id,
                        tuple(sorted((pid, t.id) for pid, t in mapping.items())),
                        tuple(sorted(roles.items())),
                    )
                )
    return results


def _assignment_ok(d, phases, mapping, net, episode, store):
    for p in phases:
        if not type_matches_oracle(mapping[p.id], p.concept, store):
            return False
    ids = [p.id for p in phases]
    for i, pid in enumerate(ids):
        for qid in ids[i + 1:]:
            try:
                rel = relation_from_endpoints(
                    mapping[pid].interval, mapping[qid].interval, episode.eps
                )
            except DegenerateInterval:
                return False
            if rel not in net.query_relation(pid, qid):
                return False
    return True


def _all_role_groundings(d, phases, mapping, episode, store):
    from soma_kit.ontology import ConceptKind

    slots, options = [], []
    for p in phases:
        for rid in p.uses_roles:
            slots.append((p.id, rid))
            options.append(mapping[p.id].participants)
    for combo in product(*options) if slots else [()]:
        grounding = dict(zip(slots, combo))
        # Identity is transitive: copy entities between the slots of each
        # binding, pair by pair, until a sweep changes nothing.
        ok, changed = True, True
        while ok and changed:
            changed = False
            for b in d.bindings:
                for s, t in permutations(b.slots, 2):
                    if s not in grounding:
                        continue
                    if t not in grounding:
                        grounding[t] = grounding[s]
                        changed = True
                    elif grounding[t] != grounding[s]:
                        ok = False
        if not ok:
            continue
        admissible = True
        for (_, rid), eid in grounding.items():
            if store.concept(rid).kind is not ConceptKind.ROLE:
                continue
            if eid not in episode.scene or not store.check_classification(
                rid, episode.scene.entity(eid)
            ):
                admissible = False
                break
        if admissible:
            yield grounding


def tokenize_oracle(raw_events, eps=0.01):
    """Widen point events, split states at interruptions, and sort.

    A state event is split by any other state event over the same
    participants that carries a different type tag, so every state token is
    homeomeric: no sub-interval spans a state transition.
    """
    widened = []
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
        widened.append(RawEvent(ev.kind, ev.type_tag, ev.participants, ev.start, end))

    tokens = []
    for idx, ev in enumerate(widened):
        if ev.kind is TokenClass.STATE_CHANGE:
            segments = _state_segments(ev, widened)
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


def _state_segments(ev, all_events):
    """Sub-intervals of a state event that survive conflicting states."""
    cuts = sorted(
        (max(other.start, ev.start), min(other.end, ev.end))
        for other in all_events
        if other is not ev
        and other.kind is TokenClass.STATE_CHANGE
        and frozenset(other.participants) == frozenset(ev.participants)
        and other.type_tag != ev.type_tag
        and other.start < ev.end
        and other.end > ev.start
    )
    segments = []
    cursor = ev.start
    for lo, hi in cuts:
        if lo > cursor:
            segments.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < ev.end:
        segments.append((cursor, ev.end))
    return segments


def add_concepts_fixpoint(doc, store, issues):
    """Add the concept records of a library document to `store` by repeated
    passes in file order, appending the issues `formats` reports: repeated
    ids, rejected concepts in add order, then, sorted by id, the concepts
    whose parents never all arrive."""
    from soma_kit.errors import KindMismatch, ParseError, UnknownId
    from soma_kit.formats import _records, _required, _strings, restriction_from_json
    from soma_kit.ontology import ConceptKind

    pending = {}
    for at, record in _records(doc, "concepts"):
        cid = _required(record, "id", at)
        try:
            kind = ConceptKind(record.get("kind"))
        except ValueError:
            raise ParseError(f"{at}: unknown kind {record.get('kind')!r}") from None
        if cid in pending:
            issues.append(f"concept {cid}: duplicate-concept: id is used more than once")
        else:
            pending[cid] = at, record, kind, _strings(record, "parents", at)
    while pending:
        progressed = False
        for cid in list(pending):
            at, record, kind, parents = pending[cid]
            if all(store.has_concept(p) for p in parents):
                restriction = record.get("restriction")
                try:
                    store.add_concept(
                        name=record.get("name", cid),
                        kind=kind,
                        parents=parents,
                        restriction=restriction_from_json(restriction, f"{at}: restriction")
                        if restriction
                        else None,
                        concept_id=cid,
                    )
                except (KindMismatch, UnknownId) as exc:
                    issues.append(f"concept {cid}: {exc}")
                del pending[cid]
                progressed = True
        if not progressed:
            for cid, (_, _, _, parents) in sorted(pending.items()):
                missing = [p for p in parents if not store.has_concept(p)]
                issues.append(f"concept {cid}: unresolved parents {missing}")
            break
