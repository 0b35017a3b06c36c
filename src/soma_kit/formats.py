"""On-disk document formats: plan libraries and episodes as canonical JSON
trees (one object per file, version-tagged), plus loaders and a normalizing
serializer used for round-trip checks.

A library holds `concepts` and `descriptions`; each description record has
the same fields, and its `type`, `plan` or `process_flow`, is the `kind` of
the `Description` it loads as. An `affordances` or `designs` list and a
slot's `parameters` are accepted only when empty, and a succedence
`condition` only when null, as libraries written by earlier versions carry
them; an affordance, a design and a configuration are concepts of their
kind, never records. Likewise an episode's disposition may carry an
`affordance` only when it is null.
"""

from __future__ import annotations

import heapq
import json
import math
from json.encoder import encode_basestring
from numbers import Real
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .activity import (
    Binding,
    ConditionalSuccedence,
    Description,
    EventTypeRef,
    Goal,
    PhaseConstraint,
    RELATION_VOCABULARY,
)
from .allen import RelationSet
from .errors import (
    KindMismatch,
    ParseError,
    UnknownId,
    ValidationFailed,
    VersionMismatch,
)
from .grounding import Scene
from .ontology import (
    And,
    ConceptKind,
    Entity,
    EntityKind,
    HasDisposition,
    KindIs,
    OntologyStore,
    Or,
    Quality,
    RegionWithin,
    Restriction,
    TypeTagIn,
)
from .parsing import (
    DEFAULT_EPS,
    CompiledLibrary,
    Episode,
    RawEvent,
    TokenClass,
    tokenize,
)

FORMAT_VERSION = "soma-kit/1"

#: Reverse lookup: relation-set mask -> vocabulary name.
_VOCAB_BY_MASK = {rs.mask: name for name, rs in RELATION_VOCABULARY.items()}


# --- low-level helpers --------------------------------------------------------


def _read_json(path: Union[str, Path]) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or too deep
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return doc


def _check_version(doc: dict, path) -> None:
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: expected {FORMAT_VERSION!r}, got {version!r}")


def _records(
    node: dict, key: str, where: str = "", required: bool = False
) -> List[Tuple[str, dict]]:
    """The objects under `key` (none when absent, unless `required`), each
    after its name for messages (`concept 3`, `description P: phase 0`);
    anything but a list of objects is a ParseError naming the key or the
    record."""
    if required:
        _require_key(node, key, where)
    records = node.get(key, [])
    prefix = f"{where}: " if where else ""
    if not isinstance(records, list):
        raise ParseError(f"{prefix}{key}: expected a list, got {type(records).__name__}")
    noun = key[:-3] + "y" if key.endswith("ies") else key.removesuffix("s")
    named = [(f"{prefix}{noun} {idx}", record) for idx, record in enumerate(records)]
    for at, record in named:
        if not isinstance(record, dict):
            raise ParseError(f"{at}: expected an object, got {record!r}")
    return named


def _require_key(node: dict, key: str, where: str) -> None:
    if key not in node:
        raise ParseError(f"{where}: missing {key!r}")


def _number(value) -> Optional[float]:
    """`value` as a float if it is a JSON number, else None. `json` reads
    numbers as ints and floats; a bool is no number, though Python counts it
    as an int, and an int too large for a float reads as ±inf, as `json`
    reads a literal such as 1e400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _required(node: dict, key: str, where: str, kind: type = str):
    """`node[key]`; a missing key or a value that is not a `kind` (for
    `Real`, a JSON number) is a ParseError naming `where`."""
    _require_key(node, key, where)
    value = node[key]
    if not (_number(value) is not None if kind is Real else isinstance(value, kind)):
        raise ParseError(f"{where}: {key}: expected a {kind.__name__}, got {value!r}")
    return value


def _optional(node: dict, key: str, where: str, kind: type = str, default=None):
    """`node[key]`, or `default` when it is absent or null; a value that is
    not a `kind` is a ParseError naming `where`."""
    return default if node.get(key) is None else _required(node, key, where, kind)


def _unsupported(node: dict, key: str, at: str, loads: tuple = (None,)) -> None:
    """A ParseError naming `at` when `node[key]`, a field that earlier
    versions wrote and no answer reads, is present and none of `loads`."""
    if node.get(key) not in loads:
        raise ParseError(f"{at}: {key.removesuffix('s')}s are not supported")


def _optional_restriction(node: dict, key: str, where: str) -> Optional[Restriction]:
    """The restriction under `key`, or None when it is absent or null."""
    value = _optional(node, key, where, object)
    return None if value is None else restriction_from_json(value, f"{where}: {key}")


def _strings(node: dict, key: str, where: str, required: bool = False) -> Tuple[str, ...]:
    """`node[key]` as a tuple, empty when absent (unless `required`); a value
    that is not a list of strings is a ParseError naming `where`."""
    if required:
        _require_key(node, key, where)
    value = node.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{where}: {key}: expected a list of strings, got {value!r}")
    return tuple(value)


# --- restrictions --------------------------------------------------------------


#: The most levels a restriction may nest: a leaf op is one level, and each
#: `and` or `or` around it adds one. Restrictions are read, evaluated and
#: written by recursion, so a bound far below the interpreter's recursion
#: limit keeps every loaded library answerable. No shipped document nests
#: more than 2.
MAX_RESTRICTION_DEPTH = 64


def restriction_from_json(node: dict, at: str = "restriction", depth: int = 1) -> Restriction:
    """Restriction of a JSON object at nesting level `depth`; an unknown op,
    a field it needs that is missing or mistyped, or an `and` or `or` at
    level MAX_RESTRICTION_DEPTH (named by its outermost restriction) is a
    ParseError naming `at`."""
    if not isinstance(node, dict):
        raise ParseError(f"{at}: expected an object, got {node!r}")
    op = node.get("op")
    if op == "kind_is":
        kind = _required(node, "kind", at)
        try:
            return KindIs(EntityKind(kind))
        except ValueError:
            raise ParseError(f"{at}: unknown entity kind {kind!r}") from None
    if op == "type_tag_in":
        return TypeTagIn(frozenset(_strings(node, "tags", at, required=True)))
    if op == "has_disposition":
        return HasDisposition(_required(node, "disposition", at))
    if op == "region_within":
        return RegionWithin(
            _number(_required(node, "lo", at, Real)),
            _number(_required(node, "hi", at, Real)),
            _required(node, "units", at),
        )
    if op in ("and", "or"):
        if depth == MAX_RESTRICTION_DEPTH:  # named without the `item k` steps down to it
            root = at.rsplit(": item ", depth - 1)[0]
            raise ParseError(f"{root}: nested deeper than {depth} levels")
        items = _records(node, "items", at, required=True)
        if not items:
            raise ParseError(f"{at}: items: expected at least one restriction")
        items = tuple(restriction_from_json(i, i_at, depth + 1) for i_at, i in items)
        return And(items) if op == "and" else Or(items)
    raise ParseError(f"{at}: unknown restriction op: {op!r}")


def restriction_to_json(r: Restriction) -> dict:
    if isinstance(r, KindIs):
        return {"op": "kind_is", "kind": r.kind.value}
    if isinstance(r, TypeTagIn):
        return {"op": "type_tag_in", "tags": sorted(r.tags)}
    if isinstance(r, HasDisposition):
        return {"op": "has_disposition", "disposition": r.disposition_type}
    if isinstance(r, RegionWithin):
        return {"op": "region_within", "lo": r.lo, "hi": r.hi, "units": r.units}
    if isinstance(r, And):
        return {"op": "and", "items": [restriction_to_json(i) for i in r.items]}
    if isinstance(r, Or):
        return {"op": "or", "items": [restriction_to_json(i) for i in r.items]}
    raise TypeError(f"not a restriction: {r!r}")


# --- descriptions ---------------------------------------------------------------


def _relation_from_json(node, at: str) -> RelationSet:
    if isinstance(node, str):
        if node not in RELATION_VOCABULARY:
            raise ParseError(f"{at}: unknown temporal relation: {node!r}")
        return RELATION_VOCABULARY[node]
    if isinstance(node, list):
        for item in node:
            if not isinstance(item, str):
                raise ParseError(f"{at}: bad relation code: {item!r}")
        try:
            return RelationSet.from_codes(" ".join(node))
        except ValueError as exc:
            raise ParseError(f"{at}: bad relation value: {exc}") from exc
    raise ParseError(f"{at}: bad relation value: {node!r}")


def _relation_to_json(rs: RelationSet):
    name = _VOCAB_BY_MASK.get(rs.mask)
    return name if name is not None else rs.codes().split()


def _ref_from_json(at: str, node: dict) -> EventTypeRef:
    _unsupported(node, "parameters", at, loads=(None, []))
    return EventTypeRef(
        _required(node, "id", at), _required(node, "concept", at), _strings(node, "roles", at)
    )


def _ref_to_json(ref: EventTypeRef) -> dict:
    return {"id": ref.id, "concept": ref.concept, "roles": list(ref.uses_roles)}


#: Description kinds by their JSON "type" tag.
_DESCRIPTION_KINDS = {k.value: k for k in (ConceptKind.PLAN_DESCR, ConceptKind.PROCESS_FLOW_DESCR)}


def _description_from_json(at: str, node: dict) -> Description:
    """Description of record `at`; a record without `id`, a plan without
    `defines`, an unknown `type`, a phase, constraint, binding or succedence
    without a field it needs, or a succedence with a `condition` is a
    ParseError naming the record."""
    did = _required(node, "id", at)
    at = f"description {did}"
    tag = node.get("type")
    kind = _DESCRIPTION_KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise ParseError(f"{at}: unknown description type: {tag!r}")
    defines = _optional(node, "defines", at, dict)
    if kind is ConceptKind.PLAN_DESCR and defines is None:
        raise ParseError(f"{at}: missing 'defines'")
    if defines is not None:
        defines = _ref_from_json(f"{at}: defines", defines)
    goal = _optional(node, "goal", at, dict)
    return Description(
        id=did,
        defines=defines,
        phases=tuple(_ref_from_json(p_at, p) for p_at, p in _records(node, "phases", at)),
        constraints=tuple(
            PhaseConstraint(
                _required(c, "left", c_at),
                _relation_from_json(_required(c, "relation", c_at, object), c_at),
                _required(c, "right", c_at),
            )
            for c_at, c in _records(node, "constraints", at)
        ),
        bindings=tuple(
            Binding(_required(b, "id", b_at), _binding_slots(b, b_at))
            for b_at, b in _records(node, "bindings", at)
        ),
        succedences=tuple(
            _succedence_from_json(s_at, s) for s_at, s in _records(node, "succedences", at)
        ),
        goal=None if goal is None else _goal_from_json(goal, f"{at}: goal"),
        kind=kind,
    )


def _succedence_from_json(at: str, node: dict) -> ConditionalSuccedence:
    _unsupported(node, "condition", at)
    return ConditionalSuccedence(*(_required(node, key, at) for key in ("id", "earlier", "later")))


def _binding_slots(node: dict, at: str) -> FrozenSet[Tuple[str, str]]:
    slots = _required(node, "slots", at, list)
    for slot in slots:
        pair = isinstance(slot, list) and len(slot) == 2
        if not (pair and all(isinstance(x, str) for x in slot)):
            raise ParseError(f"{at}: slots: expected [slot id, role id] pairs, got {slot!r}")
    return frozenset(map(tuple, slots))


def _goal_from_json(goal: dict, at: str) -> Goal:
    return Goal(
        _required(goal, "id", at),
        tuple(
            (_required(g, "state", g_at), _strings(g, "roles", g_at))
            for g_at, g in _records(goal, "desired", at, required=True)
        ),
    )


def _description_to_json(d: Description) -> dict:
    return {
        "id": d.id,
        "type": d.kind.value,
        "defines": _ref_to_json(d.defines) if d.defines else None,
        "phases": [_ref_to_json(p) for p in d.phases],
        "constraints": [
            {"left": c.left, "relation": _relation_to_json(c.relation), "right": c.right}
            for c in d.constraints
        ],
        "bindings": [
            {"id": b.id, "slots": sorted(list(s) for s in b.slots)} for b in d.bindings
        ],
        "succedences": [
            {"id": s.id, "earlier": s.earlier, "later": s.later} for s in d.succedences
        ],
        "goal": (
            {
                "id": d.goal.id,
                "desired": [
                    {"state": state, "roles": list(roles)} for state, roles in d.goal.desired
                ],
            }
            if d.goal
            else None
        ),
    }


# --- library --------------------------------------------------------------------


def load_library(path: Union[str, Path]) -> Tuple[OntologyStore, CompiledLibrary]:
    """Load, validate, and freeze a plan-library document.

    Fails with ValidationFailed listing every issue found; a store is only
    returned when the whole document is clean.
    """
    doc = _read_json(path)
    _check_version(doc, path)
    return load_library_document(doc)


def load_library_document(doc: dict) -> Tuple[OntologyStore, CompiledLibrary]:
    """Store and compiled descriptions of a parsed library document. A
    malformed record (a concept without `id` or with an unknown `kind`, a
    description without `id` or with a `type` other than `plan` or
    `process_flow`, a plan without `defines`, a top-level list that is not a
    list of objects) is a ParseError naming it, and so is any record under
    `affordances` or `designs`, any slot `parameters` but null or `[]` and
    any non-null succedence `condition`, which no answer reads (an empty
    list and a null condition load); concept issues and, through
    `CompiledLibrary`, description issues, duplicate ids among them, are
    collected into one ValidationFailed. Each description keeps the network
    validation propagated."""
    store = OntologyStore()
    issues: List[str] = []
    _add_concepts(doc, store, issues)

    for key in ("affordances", "designs"):
        unread = _records(doc, key)
        if unread:
            at = unread[0][0]  # e.g. "design 0"
            raise ParseError(f"{at}: {at.rsplit(' ', 1)[0]} records are not supported")

    descriptions = [_description_from_json(at, node) for at, node in _records(doc, "descriptions")]
    return store.freeze(), CompiledLibrary(descriptions, store, issues)


def _add_concepts(doc: dict, store: OntologyStore, issues: List[str]) -> None:
    """Add the concept records of `doc` to `store` in the order passes over
    them in file order would: a concept is ready in the pass that adds its
    last parent, or in the next pass when that parent comes later in the
    file. A heap keyed by (pass, file position) gives that order in
    O(n log n). Issues: a repeated id, a rejected concept, and, by id, each
    concept whose parents never all arrive."""
    records: Dict[str, Tuple[str, dict, ConceptKind, Tuple[str, ...]]] = {}
    for at, record in _records(doc, "concepts"):
        cid = _required(record, "id", at)
        try:
            kind = ConceptKind(record.get("kind"))
        except ValueError:
            raise ParseError(f"{at}: unknown kind {record.get('kind')!r}") from None
        if cid in records:
            issues.append(f"concept {cid}: duplicate-concept: id is used more than once")
        else:
            records[cid] = at, record, kind, _strings(record, "parents", at)
    ids = list(records)
    waiting = [len(set(records[cid][3])) for cid in ids]  # parents not yet added
    children: Dict[str, List[int]] = {}
    for pos, cid in enumerate(ids):
        for pid in set(records[cid][3]):
            children.setdefault(pid, []).append(pos)
    ready = [(1, pos) for pos, n in enumerate(waiting) if not n]
    while ready:
        npass, pos = heapq.heappop(ready)
        cid = ids[pos]
        at, record, kind, parents = records[cid]
        restriction = _optional_restriction(record, "restriction", at)
        try:
            store.add_concept(
                _optional(record, "name", at, default=cid), kind, parents, restriction, cid
            )
        except (KindMismatch, UnknownId) as exc:
            issues.append(f"concept {cid}: {exc}")
            continue
        for child in children.get(cid, ()):
            waiting[child] -= 1
            if not waiting[child]:
                heapq.heappush(ready, (npass + (child < pos), child))
    for cid in sorted(ids[pos] for pos, n in enumerate(waiting) if n):
        missing = [p for p in records[cid][3] if not store.has_concept(p)]
        issues.append(f"concept {cid}: unresolved parents {missing}")


def serialize_library(store: OntologyStore, descriptions: Sequence[Description]) -> dict:
    """Canonical document form: lists sorted by id, normalized field order."""
    return {
        "version": FORMAT_VERSION,
        "concepts": [
            {
                "id": c.id,
                "name": c.name,
                "kind": c.kind.value,
                "parents": sorted(c.parents),
                "restriction": restriction_to_json(c.restriction)
                if c.restriction
                else None,
            }
            for c in sorted(store.concepts(), key=lambda c: c.id)
        ],
        "descriptions": [
            _description_to_json(d) for d in sorted(descriptions, key=lambda d: d.id)
        ],
    }


# --- episodes ---------------------------------------------------------------------


def load_episode(path: Union[str, Path], eps: float = DEFAULT_EPS) -> Episode:
    """Load an episode document, tokenizing its raw events."""
    doc = _read_json(path)
    _check_version(doc, path)
    return load_episode_document(doc, eps=eps, episode_id=Path(path).stem)


def load_episode_document(
    doc: dict, eps: float = DEFAULT_EPS, episode_id: str = "episode"
) -> Episode:
    """Episode of a parsed document. A scene, object, quality, disposition
    or event record of the wrong type or without a key it needs (`id`,
    `type`, `class`), or an event whose `type` is not a string or whose
    `participants` are not a list of strings, is a ParseError naming the
    record, and so is a disposition's non-null `affordance`, which no answer
    reads; an object id used twice, an unknown participant or event class
    is a validation issue; a non-positive or non-finite eps is a
    DegenerateInterval (from `tokenize`). An object's dispositions are read
    as their type names and its qualities as (type, value, units), no ids."""
    issues: List[str] = []
    scene = _scene_from_json(doc.get("scene", {}), issues)
    raw_events: List[RawEvent] = []
    for at, node in _records(doc, "events"):
        participants = _strings(node, "participants", at)
        for p in participants:
            if p not in scene:
                issues.append(f"{at}: participant {p} not in scene")
        for key in ("class", "type"):
            _require_key(node, key, at)
        if not isinstance(node["type"], str):
            raise ParseError(f"{at}: type is not a string: {node['type']!r}")
        try:
            kind = TokenClass(node["class"])
        except ValueError:
            issues.append(f"{at}: unknown class {node.get('class')!r}")
            continue
        start, end = _event_times(at, node)
        raw_events.append(
            RawEvent(
                kind=kind,
                type_tag=node["type"],
                participants=participants,
                start=start,
                end=end,
            )
        )
    if issues:
        raise ValidationFailed(issues)
    tokens = tokenize(raw_events, eps=eps)
    return Episode(id=episode_id, tokens=tuple(tokens), scene=scene, eps=eps)


def _event_times(at: str, node: dict) -> Tuple[float, float]:
    """(start, end) of event record `at`; a point record `{"timestamp": t}`
    is `(t, t)`, which `tokenize` widens by `eps`."""
    if "timestamp" not in node:
        return _event_time(at, node, "start"), _event_time(at, node, "end")
    if "start" in node or "end" in node:
        raise ParseError(f"{at}: give start/end or a timestamp, not both")
    t = _event_time(at, node, "timestamp")
    return t, t


def _event_time(at: str, node: dict, key: str) -> float:
    if key not in node:
        raise ParseError(f"{at}: missing {key!r} (give start/end or a timestamp)")
    t = _number(node[key])
    if t is None:
        raise ParseError(f"{at}: {key} is not a number: {node[key]!r}")
    return t


def _scene_from_json(node, issues: List[str]) -> Scene:
    """Scene of a scene record; an object id used twice is an issue, and
    the first object with that id is kept."""
    if not isinstance(node, dict):
        raise ParseError(f"scene: expected an object, got {node!r}")
    objects: Dict[str, Entity] = {}
    for at, record in _records(node, "objects", "scene"):
        eid = _required(record, "id", at)
        qualities = tuple(
            Quality(
                _required(q, "type", q_at),
                _optional(q, "value", q_at, Real),
                _optional(q, "units", q_at),
            )
            for q_at, q in _records(record, "qualities", at)
        )
        dispositions = []
        for d_at, d in _records(record, "dispositions", at):
            _unsupported(d, "affordance", d_at)
            dispositions.append(_required(d, "type", d_at))
        name = _optional(record, "name", at, default=eid)
        type_tag = _optional(record, "type_tag", at, default=name)
        if eid in objects:
            issues.append(f"{at}: duplicate-object: id {eid} is used more than once")
            continue
        objects[eid] = Entity(
            id=eid,
            name=name,
            kind=EntityKind.OBJECT,
            type_tag=type_tag,
            qualities=qualities,
            dispositions=tuple(dispositions),
        )
    return Scene(objects)


def serialize_episode(episode: Episode, raw_events: Sequence[RawEvent]) -> dict:
    """Canonical episode document from a scene and its raw event records."""
    return {
        "version": FORMAT_VERSION,
        "scene": {
            "objects": [
                {
                    "id": e.id,
                    "name": e.name,
                    "type_tag": e.type_tag,
                    "dispositions": [{"type": t} for t in e.dispositions],
                    "qualities": [
                        {"type": q.type_tag, "value": q.value, "units": q.units}
                        for q in e.qualities
                    ],
                }
                for e in sorted(episode.scene.objects.values(), key=lambda e: e.id)
            ]
        },
        "events": [
            {
                "class": ev.kind.value,
                "type": ev.type_tag,
                "participants": list(ev.participants),
                "start": ev.start,
                "end": ev.end,
            }
            for ev in raw_events
        ],
    }


def dumps_canonical(doc: dict) -> str:
    """Byte-stable JSON text for a document: byte for byte what `json.dumps`
    writes with a two-space indent, sorted keys and `ensure_ascii=False`,
    plus a final newline. It is written in one direct pass, as `json` would
    write an indented document only through its pure-Python encoder. A
    document is built of dicts with string keys, lists, tuples, strings,
    ints, floats (NaN and the infinities as `NaN`, `Infinity` and
    `-Infinity`), booleans and None; any other value is a TypeError, as in
    `json`."""
    out: List[str] = []
    _emit(doc, out.append, "")
    out.append("\n")
    return "".join(out)


_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _emit(v, append: Callable[[str], None], indent: str) -> None:
    """Append the canonical text of `v`, nested at `indent`, in pieces; a
    string member is written with its key or separator, without a call of
    its own."""
    t = type(v)
    if t is str:
        append(encode_basestring(v))
    elif t is dict:
        if not v:
            append("{}")
            return
        inner = indent + "  "
        sep, next_sep = "{\n" + inner, ",\n" + inner
        for k in sorted(v):
            x = v[k]
            if type(x) is str:
                append(f"{sep}{encode_basestring(k)}: {encode_basestring(x)}")
            else:
                append(f"{sep}{encode_basestring(k)}: ")
                _emit(x, append, inner)
            sep = next_sep
        append("\n" + indent + "}")
    elif t is list or t is tuple:
        if not v:
            append("[]")
            return
        inner = indent + "  "
        sep, next_sep = "[\n" + inner, ",\n" + inner
        for x in v:
            if type(x) is str:
                append(sep + encode_basestring(x))
            else:
                append(sep)
                _emit(x, append, inner)
            sep = next_sep
        append("\n" + indent + "]")
    elif v is None:
        append("null")
    elif v is True:
        append("true")
    elif v is False:
        append("false")
    elif isinstance(v, int):
        append(int.__repr__(v))
    elif isinstance(v, float):
        append("NaN" if v != v else _NON_FINITE.get(v) or float.__repr__(v))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
