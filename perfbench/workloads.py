"""The three benchmark workloads, each a closed loop with one client: the
next operation starts when the previous one returns, with no think time and
no threads. Inputs for an operation are generated before its clock starts.

Every workload checks its outputs (a failed check raises GateFailure and
aborts the run), records result counts, and in a traced run also calls the
public functions of each layer on the same inputs so their spans can be
timed one by one.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import gen
from soma_kit import cli
from soma_kit.activity import compile_constraints, validate_description
from soma_kit.allen import ConstraintNetwork
from soma_kit.errors import SomaKitError
from soma_kit.formats import (
    dumps_canonical,
    load_episode_document,
    load_library_document,
    serialize_episode,
    serialize_library,
)
from soma_kit.grounding import select_objects
from soma_kit.ontology import OntologyStore
from soma_kit.parsing import (
    RawEvent,
    TokenClass,
    parse,
    rank,
    tokenize,
    verify_interpretation,
)
from tracing import NullTracer

WARMUP_OPS = 4
NULL = NullTracer()


class GateFailure(Exception):
    """An output of the program was wrong; the run is aborted."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


class Loop:
    """Timing, outcome and count records of one run."""

    def __init__(self, seconds: float, tracer) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.spent = 0.0
        self.op_s = []
        self.cli_s = []
        self.attempted = 0
        self.failed = 0
        self.outcomes = Counter()
        self.counts = Counter()
        self.indices = []

    def done(self) -> bool:
        return self.spent >= self.seconds

    def attempt(self, kind, fn, expect_ok=True):
        """Time fn as one operation of the given kind ("op" or a CLI
        command) and classify its outcome: "ok", "documented" (a
        SomaKitError, or a CLI exit code 1 or 2) or "undocumented"."""
        self.attempted += 1
        start = perf_counter()
        try:
            value = self.tracer.call(kind, fn)
            status = "ok"
            if kind != "op" and value[0] != 0:
                status = "documented" if value[0] in (1, 2) else "undocumented"
        except SomaKitError as exc:
            value, status = exc, "documented"
        except Exception as exc:  # classified and counted, never fatal
            value, status = exc, "undocumented"
        elapsed = perf_counter() - start
        self.spent += elapsed
        if kind == "op":
            self.op_s.append(elapsed)
        else:
            self.cli_s.append(elapsed)
        self.outcomes[status] += 1
        if expect_ok and status != "ok":
            self.failed += 1
            if self.failed <= 3:
                print(f"failed {kind}: {value!r}", file=sys.stderr)
        return status, value


def run_cli(argv):
    """soma_kit.cli.main in-process with its output captured: (rc, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def raw_events(doc):
    return [
        RawEvent(
            TokenClass(e["class"]),
            e["type"],
            tuple(e["participants"]),
            float(e["start"]),
            float(e["end"]),
        )
        for e in doc["events"]
    ]


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Workload:
    """make(i) builds input i untimed; op(inp, tracer) is the timed API
    operation; after(loop, i, inp, status, result) checks it, runs the CLI
    share and, when tracing, the per-layer calls. after() sees every
    operation expected to succeed that did, and every edge case.

    Subclasses set `block`, the size of the blocks their inputs are
    stratified in (see gen.stratum): a run ends on a block boundary so every
    run sees the same mix. `base_library` is the library file that setup_s
    loads."""

    def drive(self, loop: Loop) -> None:
        for k in range(WARMUP_OPS):
            i = 10**6 + k
            inp = self.make(i)
            warm = Loop(0.0, NULL)
            expect_ok = self.expect_ok(inp)
            status, result = warm.attempt("op", lambda: self.op(inp, NULL), expect_ok)
            if status == "ok" or not expect_ok:
                self.after(warm, i, inp, status, result)
        i = 0
        while not (loop.done() and i % self.block == 0):
            inp = self.make(i)
            loop.tracer.request = i
            expect_ok = self.expect_ok(inp)
            status, result = loop.attempt(
                "op", lambda: self.op(inp, loop.tracer), expect_ok=expect_ok
            )
            if status == "ok" or not expect_ok:
                self.after(loop, i, inp, status, result)
            loop.indices.append(i)
            i += 1

    def replay_seconds(self, indices) -> float:
        """Untraced time of the same API operations, for tracing overhead."""
        total = 0.0
        for i in indices:
            inp = self.make(i)
            start = perf_counter()
            try:
                self.op(inp, NULL)
            except Exception:  # outcomes were classified in the traced pass
                pass
            total += perf_counter() - start
        return total

    def expect_ok(self, inp) -> bool:
        return True


# --- parse_mixed ---------------------------------------------------------------

# Episodes rotate through this many libraries, so that a run's cost does not
# hinge on the plans of one library.
N_LIBRARIES = 32
# `parse --top 1` follows every 5th episode and `select` every 10th: with
# equal shares the median CLI time would fall in the gap between the two
# commands' times and jump from run to run.
PARSE_CLI_EVERY = 5
SELECT_CLI_EVERY = 10


class ParseMixed(Workload):
    """Episodes parsed against plan libraries; some also go through
    `parse --top 1 --format machine` and `select` on files."""

    block = len(gen.EPISODE_STRATA)

    def __init__(self, seed, work, tracer):
        self.seed = seed
        self.libraries = []
        for k in range(N_LIBRARIES):
            doc = gen.parse_library(seed, k)
            store, library = tracer.call(
                "formats.load_library", load_library_document, doc, tag=len(doc["concepts"])
            )
            path = write_json(work / f"library{k}.json", doc)
            self.libraries.append((store, library, path))
        self.base_library = self.libraries[0][2]
        self.episode_path = work / "episode.json"

    def make(self, i):
        return i % N_LIBRARIES, gen.parse_episode(self.seed, i)

    def op(self, inp, t):
        store, library, _ = self.libraries[inp[0]]
        episode = t.call("formats.load_episode", load_episode_document, inp[1])
        interps = t.call("parsing.parse", parse, episode, library, store, tag=len(episode.tokens))
        return episode, interps

    def after(self, loop, i, inp, status, result):
        t = loop.tracer
        store, library, lib_path = self.libraries[inp[0]]
        episode, interps = result
        gate(all(a.sort_key <= b.sort_key for a, b in zip(interps, interps[1:])),
             f"episode {i}: interpretations are not in rank order")
        for interp in interps:
            ok = t.call("parsing.verify", verify_interpretation, interp, episode, library, store)
            gate(ok, f"episode {i}: interpretation fails verification: {interp}")
        loop.counts["episodes"] += 1
        loop.counts["tokens"] += len(episode.tokens)
        loop.counts["interpretations"] += len(interps)
        loop.counts["matched"] += bool(interps)
        if t.enabled:
            self.trace_layers(t, inp[1], episode, interps, store, library)
        if i % PARSE_CLI_EVERY:
            return
        ep_path = write_json(self.episode_path, inp[1])
        status, value = loop.attempt(
            "cli.parse_top1",
            lambda: run_cli(["parse", lib_path, ep_path, "--top", "1", "--format", "machine"]),
        )
        gate(status == "ok" and value[1] == machine_top1(interps),
             f"episode {i}: CLI top-1 differs from the API's first interpretation")
        if i % SELECT_CLI_EVERY:
            return
        rng = gen.rng_for(self.seed, "parse_mixed/select", i)
        phase = rng.choice(rng.choice(library).phases)
        expected = t.call("grounding.select", select_objects, phase, episode.scene, store)
        status, value = loop.attempt(
            "cli.select",
            lambda: run_cli(["select", lib_path, ep_path, phase.id, "--format", "machine"]),
        )
        want = "".join(
            f"role={r} candidates={' '.join(sorted(expected[r]))}\n" for r in sorted(expected)
        )
        gate(status == "ok" and value[1] == want, f"episode {i}: CLI select differs from the API")

    @staticmethod
    def trace_layers(t, doc, episode, interps, store, library):
        raws = raw_events(doc)
        t.call("parsing.tokenize", tokenize, raws, episode.eps, tag=len(raws))
        t.call("parsing.rank", rank, interps)
        phase_concepts = sorted({p.concept for d in library for p in d.phases})
        for tag in sorted({tok.type_tag for tok in episode.tokens}):
            if store.has_concept(tag):
                for concept in phase_concepts:
                    t.call("ontology.subsumes", store.is_subsumed_by, tag, concept)
        roles = sorted({r for d in library for p in d.phases for r in p.uses_roles})
        for role in roles:
            for entity in episode.scene.objects.values():
                t.call("ontology.classify", store.check_classification, role, entity)
        for d in library:
            t.call("activity.compile", compile_constraints, d)


def machine_top1(interps) -> str:
    """The `parse --top 1 --format machine` report of a ranked list."""
    lines = [f"count={min(1, len(interps))}"]
    for i in interps[:1]:
        lines.append(f"interpretation=0 plan={i.plan} coverage={i.coverage:.4f}")
        lines += [f"phase={p} token={tok}" for p, tok in i.phase_grounding]
        lines += [f"slot={s} role={r} entity={e}" for (s, r), e in i.role_grounding]
    return "\n".join(lines) + "\n"


# --- ingest ------------------------------------------------------------------------

BASE_LIBRARY_CONCEPTS = 450


def serialize_library_text(store, descriptions) -> str:
    return dumps_canonical(serialize_library(store, descriptions))


def serialize_episode_text(episode, raws) -> str:
    return dumps_canonical(serialize_episode(episode, raws))


class Ingest(Workload):
    """Libraries and episodes loaded, validated, serialized, reloaded and
    re-serialized; every library file also goes through CLI `validate`. One
    document in 20 is a malformed edge case whose outcome is classified."""

    block = gen.INGEST_BLOCK

    def __init__(self, seed, work, tracer):
        self.seed = seed
        rng = gen.rng_for(seed, "ingest/base", 0)
        self.base_library = write_json(
            work / "base_library.json", gen.ingest_library(rng, BASE_LIBRARY_CONCEPTS)
        )
        self.library_path = work / "library.json"
        self.edge = Counter()

    def make(self, i):
        return gen.ingest_document(self.seed, i)

    def expect_ok(self, inp) -> bool:
        return not inp[0].startswith("edge:")

    def op(self, inp, t):
        doc = inp[1]
        if "events" in doc:
            episode = t.call("formats.load_episode", load_episode_document, doc)
            raws = raw_events(doc)
            text = t.call("formats.serialize", serialize_episode_text, episode, raws)
            doc2 = json.loads(text)
            episode2 = t.call("formats.load_episode", load_episode_document, doc2)
            text2 = t.call("formats.serialize", serialize_episode_text, episode2, raw_events(doc2))
            return episode, episode2, text, text2
        n = len(doc["concepts"])
        loaded = t.call("formats.load_library", load_library_document, doc, tag=n)
        text = t.call("formats.serialize", serialize_library_text, *loaded)
        loaded2 = t.call("formats.load_library", load_library_document, json.loads(text), tag=n)
        text2 = t.call("formats.serialize", serialize_library_text, *loaded2)
        return loaded, loaded2, text, text2

    def after(self, loop, i, inp, status, result):
        kind, doc = inp
        t = loop.tracer
        if kind.startswith("edge:"):
            self.edge["attempted"] += 1
            self.edge[status] += 1
            loop.counts[kind] += 1
            if "concepts" in doc:
                path = write_json(self.library_path, doc)
                loop.attempt("cli.validate", lambda: run_cli(["validate", path]), expect_ok=False)
            return
        first, second, text, text2 = result
        gate(text == text2, f"document {i} ({kind}): round trip is not a byte-level fixpoint")
        loop.counts[kind + "_docs"] += 1
        if kind == "episode":
            gate(first.tokens == second.tokens, f"document {i}: reloaded tokens differ")
            loop.counts["tokens"] += len(first.tokens)
            if t.enabled:
                raws = raw_events(doc)
                t.call("parsing.tokenize", tokenize, raws, first.eps, tag=len(raws))
            return
        store, descriptions = first
        loop.counts["concepts"] += len(store.concepts())
        if t.enabled:
            rebuilt = OntologyStore()
            for c in store.concepts():
                t.call("ontology.add_concept", rebuilt.add_concept,
                       c.name, c.kind, c.parents, c.restriction, c.id)
            t.call("ontology.freeze", rebuilt.freeze)
            for d in descriptions:
                issues = t.call("activity.validate", validate_description, d, store)
                gate(not issues, f"document {i}: {d.id} fails validation after load")
        path = write_json(self.library_path, doc)
        status, value = loop.attempt("cli.validate", lambda: run_cli(["validate", path]))
        gate(status == "ok" and value[1] == "ok: library is valid\n",
             f"document {i}: CLI validate rejects a valid library")


# --- temporal ----------------------------------------------------------------------

QUERY_CLI_EVERY = 11


class Temporal(Workload):
    """Standalone interval networks built through ConstraintNetwork,
    propagated and queried on every ordered pair; every QUERY_CLI_EVERY-th
    network is followed by a CLI `query` on a library of 10-16-phase plans."""

    block = gen.TEMPORAL_BLOCK

    def __init__(self, seed, work, tracer):
        self.seed = seed
        doc = gen.query_library(seed)
        _, library = tracer.call(
            "formats.load_library", load_library_document, doc, tag=len(doc["concepts"])
        )
        self.base_library = write_json(work / "query_library.json", doc)
        self.plans = {d.id: (d, compile_constraints(d)) for d in library}

    def make(self, i):
        return gen.temporal_network(self.seed, i)

    def op(self, spec, t):
        n = spec["n"]
        names = [f"v{k}" for k in range(n)]
        net = ConstraintNetwork()
        for name in names:
            net.add_variable(name)
        for (a, b), label in spec["labels"].items():
            net.constrain(names[a], names[b], label)
        result = t.call("allen.propagate", net.propagate, tag=n)
        labels = {
            (a, b): t.call("allen.query", net.query_relation, names[a], names[b])
            for a in range(n)
            for b in range(n)
            if a != b
        }
        return result, labels

    def after(self, loop, i, spec, status, result):
        outcome, labels = result
        n = spec["n"]
        for a in range(n):
            for b in range(a + 1, n):
                gate(labels[(b, a)] == labels[(a, b)].converse(),
                     f"network {i}: query({b}, {a}) is not the converse of query({a}, {b})")
        if spec["realizable"]:
            gate(outcome.consistent, f"network {i}: realizable network propagated to inconsistent")
            for pair, rel in spec["truth"].items():
                gate(rel in labels[pair], f"network {i}: label {pair} lost its true relation")
        else:
            gate(outcome.consistent or outcome.witness is not None,
                 f"network {i}: inconsistency reported without a witness")
        loop.counts["networks"] += 1
        loop.counts["consistent"] += outcome.consistent
        loop.counts["realizable"] += spec["realizable"]
        if i % QUERY_CLI_EVERY:
            return
        rng = gen.rng_for(self.seed, "temporal/cli", i)
        plan_id = rng.choice(sorted(self.plans))
        plan, net = self.plans[plan_id]
        a, b = rng.sample([p.id for p in plan.phases], 2)
        if loop.tracer.enabled:
            loop.tracer.call("activity.compile", compile_constraints, plan)
        status, value = loop.attempt(
            "cli.query", lambda: run_cli(["query", self.base_library, plan_id, a, b])
        )
        gate(status == "ok" and value[1] == net.query_relation(a, b).codes() + "\n",
             f"network {i}: CLI query {plan_id} {a} {b} differs from the API")


WORKLOADS = {"parse_mixed": ParseMixed, "ingest": Ingest, "temporal": Temporal}
