"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured evidence. Run with `pytest tests/test_acceptance.py -s`.
"""

import json
import random
import time

import pytest

from soma_kit import (
    BaseRelation,
    ConcreteInterval,
    ConstraintNetwork,
    EventTypeRef,
    ForceExpression,
    RelationSet,
    Scene,
    StrongerEntity,
    Tendency,
    compose,
    compose_base,
    converse,
    force_outcome,
    parse,
    relation_from_endpoints,
    select_objects,
    serialize_library,
    verify_interpretation,
)
from soma_kit.cli import main as cli_main
from soma_kit.formats import FORMAT_VERSION, dumps_canonical, load_library_document
from soma_kit.grounding import ForceOutcome

from conftest import AMBIGUOUS_EPISODE, POURING_EPISODE, SEED_LIBRARY
from generators import build_generator_store, random_case, random_scene
from oracles import compose_oracle, network_realizable, relation_case_analysis
from test_parsing import interp_key
from oracles import parse_oracle

ALL = list(BaseRelation)


def report(n, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {name}: PASS{suffix}")


def test_criterion_1_composition_table_equivalence():
    t0 = time.perf_counter()
    mismatches = [
        (r1, r2)
        for r1 in ALL
        for r2 in ALL
        if compose_base(r1, r2) != compose_oracle(r1, r2)
    ]
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert elapsed < 5.0
    report(1, "composition-table-equivalence", f"169 entries, {elapsed:.2f}s")


def test_criterion_2_algebra_laws():
    for r in ALL:
        assert converse(converse(r)) is r
    rng = random.Random(2024)
    eq = RelationSet.of(BaseRelation.EQUALS)
    for _ in range(1000):
        r = RelationSet(rng.randrange(0, 1 << 13))
        s = RelationSet(rng.randrange(0, 1 << 13))
        if not s.is_empty:
            assert compose(eq, s) == s and compose(s, eq) == s
        assert compose(r, s).converse() == compose(s.converse(), r.converse())
    report(2, "allen-algebra-laws", "13 involutions + 1000 random pairs")


def test_criterion_3_jepd():
    rng = random.Random(3)
    for _ in range(10_000):
        a = _random_interval(rng)
        b = _random_interval(rng)
        rel = relation_from_endpoints(a, b, eps=0)
        assert rel is relation_case_analysis(a, b)
        holding = [r for r in ALL if r is rel]
        assert len(holding) == 1
    report(3, "jepd-property", "10000 random interval pairs, eps=0")


def _random_interval(rng):
    start = rng.randint(-30, 30)
    return ConcreteInterval(float(start), float(start + rng.randint(1, 20)))


# singleton and convex (ORD-Horn) label pool; path consistency decides
# consistency exactly for networks labelled from this pool
_CONVEX_POOL = [RelationSet.of(r) for r in ALL] + [
    RelationSet.from_codes("b m"),
    RelationSet.from_codes("bi mi"),
    RelationSet.from_codes("b m o"),
    RelationSet.from_codes("bi mi oi"),
    RelationSet.from_codes("s eq si"),
    RelationSet.from_codes("f eq fi"),
]


def test_criterion_4_propagation_vs_realizability():
    rng = random.Random(44)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(3, 5)
        variables = [f"V{i}" for i in range(n)]
        labels = {}
        net = ConstraintNetwork()
        for v in variables:
            net.add_variable(v)
        pairs = [(variables[i], variables[j]) for i in range(n) for j in range(i + 1, n)]
        constrained = rng.sample(pairs, min(len(pairs), rng.randint(2, 6)))
        for pair in constrained:
            label = rng.choice(_CONVEX_POOL)
            labels[pair] = label
            net.constrain(pair[0], pair[1], label)
        propagated = net.propagate().consistent
        realizable = network_realizable(variables, labels)
        if propagated != realizable:
            disagreements += 1
    assert disagreements == 0
    report(4, "propagation-vs-realizability", "500 random networks, 0 disagreements")


def test_criterion_5_parser_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(55)
    for _ in range(200):
        store, library, episode = random_case(rng)
        got = parse(episode, library, store)
        assert {interp_key(i) for i in got} == parse_oracle(episode, library, store)
        for i in got:
            assert verify_interpretation(i, episode, library, store)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, "parser-oracle-equivalence", f"200 cases, {elapsed:.1f}s")


def test_criterion_6_pouring_reproduction(seed, pouring_episode, ambiguous_episode):
    store, library = seed  # seed loading already enforces zero issues
    interps = parse(pouring_episode, library, store)
    assert len(interps) == 1
    grounding = dict(interps[0].phase_grounding)
    tokens = {t.id: t for t in pouring_episode.tokens}
    rel = relation_from_endpoints(
        tokens[grounding["Approaching_0"]].interval,
        tokens[grounding["Tilting_0"]].interval,
        pouring_episode.eps,
    )
    assert rel is BaseRelation.OVERLAPS
    ambiguous = parse(ambiguous_episode, library, store)
    assert len(ambiguous) == 2
    report(6, "pouring-plan-reproduction", "1 + 2 interpretations, relation o")


def test_criterion_7_dispositional_selection_biconditional():
    store = build_generator_store()
    rng = random.Random(77)
    roles = ("FreeRole", "ContainerRole", "CutterRole")
    for _ in range(100):
        scene = random_scene(rng)
        task = EventTypeRef(
            "task0", "GenericTask", uses_roles=tuple(rng.sample(roles, rng.randint(1, 3)))
        )
        selection = select_objects(task, scene, store)
        for role in task.uses_roles:
            scan = frozenset(
                eid
                for eid, e in scene.objects.items()
                if store.check_classification(role, e)
            )
            assert selection[role] == scan
    report(7, "dispositional-selection-biconditional", "100 random scenes")


def test_criterion_8_force_dynamics_table():
    table = {
        (Tendency.TOWARD_MOTION, StrongerEntity.AGONIST): ForceOutcome.MOTION,
        (Tendency.TOWARD_MOTION, StrongerEntity.ANTAGONIST): ForceOutcome.REST,
        (Tendency.TOWARD_REST, StrongerEntity.AGONIST): ForceOutcome.REST,
        (Tendency.TOWARD_REST, StrongerEntity.ANTAGONIST): ForceOutcome.MOTION,
    }
    for (tendency, stronger), expected in table.items():
        assert force_outcome(ForceExpression("a", "b", tendency, stronger)) is expected
    pulling = ForceExpression(
        "object", "puller", Tendency.TOWARD_REST, StrongerEntity.ANTAGONIST
    )
    holding = ForceExpression(
        "object", "hand", Tendency.TOWARD_MOTION, StrongerEntity.ANTAGONIST
    )
    assert force_outcome(pulling) is ForceOutcome.MOTION
    assert force_outcome(holding) is ForceOutcome.REST
    report(8, "force-dynamics-table", "4 rows + pulling/holding narratives")


def test_criterion_9_roundtrip_and_cli_determinism(seed, capsys, tmp_path):
    # round-trip identity
    store, descriptions = seed
    doc1 = serialize_library(store, descriptions)
    store2, descriptions2 = load_library_document(doc1)
    assert serialize_library(store2, descriptions2) == doc1
    assert dumps_canonical(doc1) == dumps_canonical(serialize_library(store2, descriptions2))

    # byte-identical stdout on repeated runs
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    for argv in (
        ("validate", str(SEED_LIBRARY)),
        ("parse", str(SEED_LIBRARY), str(POURING_EPISODE)),
        ("parse", str(SEED_LIBRARY), str(AMBIGUOUS_EPISODE), "--format", "machine"),
        ("query", str(SEED_LIBRARY), "PouringPlan", "Approaching", "Tilting"),
        ("select", str(SEED_LIBRARY), str(POURING_EPISODE), "Pouring"),
        ("force", "--tendency", "rest", "--stronger", "antagonist"),
    ):
        assert run(*argv) == run(*argv)

    # exit-code contract
    assert run("validate", str(SEED_LIBRARY))[0] == 0
    bad_lib = tmp_path / "bad.json"
    bad_lib.write_text(
        json.dumps(
            {
                "version": FORMAT_VERSION,
                "concepts": [
                    {"id": "A", "name": "A", "kind": "task", "parents": ["Ghost"]}
                ],
            }
        )
    )
    assert run("validate", str(bad_lib))[0] == 1
    assert run("validate", "/no/such/path.json")[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("validate", str(broken))[0] == 2
    capsys.readouterr()
    report(9, "roundtrip-and-cli-determinism", "fixpoint + byte-identical stdout + exit codes")
