"""CLI stdout on the seed data, pinned byte for byte against golden files.

Each golden file holds the exact stdout of one command; a changed report
format, ranking or propagation order shows up here as a diff. To regenerate
after an intended output change, write `run_cli(...)[1]` of each case to
`tests/golden/<name>.out`; the four `force_*` files pin the outcome of each
tendency/stronger pair. `tokens_state_episode.out` pins state splitting
the same way: one `id start end type_tag` line per token of a seeded episode,
and `parse_state_split.out` pins a `parse` that grounds a phase on the
second segment of a state split by another state over the same objects.
`propagation_library.json` holds one 16-phase plan whose constraints are
the true relations of concrete phase spans, as the benchmark's query
library makes them, so `validate_propagation.out` and
`query_propagation.out` pin path consistency over 17 variables.
`all_descriptions_library.json` holds one description of each type (a plan
with a goal, a binding and a succedence, and process flows with and without
a defined event); its canonical serialization is pinned in
`all_descriptions_canonical.json`. `scene_episode.json` gives its objects
qualities with and without a value or units and repeated dispositions; its
canonical serialization is pinned in `scene_episode_canonical.json`, and
`select_scene.out` selects its objects for roles of `scene_library.json`
restricted by a disposition, by a quality region and by both.
`demo_parse_pouring.out` pins the stdout of `scripts/parse_pouring.py`.
"""

import json
import pathlib
import random
import runpy

import pytest

from soma_kit import (
    RawEvent,
    TokenClass,
    dumps_canonical,
    load_episode,
    load_library,
    serialize_episode,
    serialize_library,
    tokenize,
)
from soma_kit.cli import main

from conftest import AMBIGUOUS_EPISODE, POURING_EPISODE, SEED_LIBRARY
from generators import random_raw_events

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DEMO_SCRIPT = GOLDEN.parent.parent / "scripts" / "parse_pouring.py"
INCONSISTENT_LIBRARY = GOLDEN / "inconsistent_library.json"
ALL_DESCRIPTIONS_LIBRARY = GOLDEN / "all_descriptions_library.json"

LIB, POUR, AMB = str(SEED_LIBRARY), str(POURING_EPISODE), str(AMBIGUOUS_EPISODE)
ALL, MIX = str(ALL_DESCRIPTIONS_LIBRARY), str(GOLDEN / "mixing_episode.json")
SPLIT_LIB = str(GOLDEN / "state_split_library.json")
SPLIT_EP = str(GOLDEN / "state_split_episode.json")
PROP_LIB = str(GOLDEN / "propagation_library.json")
SCENE_LIB = str(GOLDEN / "scene_library.json")
SCENE_EPISODE = GOLDEN / "scene_episode.json"

# name -> (argv, exit code)
CASES = {
    "validate_seed": (("validate", LIB), 0),
    "validate_inconsistent": (("validate", str(INCONSISTENT_LIBRARY)), 1),
    "parse_pouring": (("parse", LIB, POUR), 0),
    "parse_pouring_machine": (("parse", LIB, POUR, "--format", "machine"), 0),
    "parse_ambiguous": (("parse", LIB, AMB), 0),
    "parse_ambiguous_machine": (("parse", LIB, AMB, "--format", "machine"), 0),
    "parse_pouring_top0": (("parse", LIB, POUR, "--top", "0"), 0),
    "parse_ambiguous_top1": (("parse", LIB, AMB, "--top", "1"), 0),
    "parse_pouring_eps": (("parse", LIB, POUR, "--eps", "0.5"), 0),
    # Starts 2 apart compare equal: Approaching no longer overlaps Tilting.
    "parse_pouring_eps_wide": (("parse", LIB, POUR, "--eps", "2"), 0),
    "query_approaching_tilting": (("query", LIB, "PouringPlan", "Approaching", "Tilting"), 0),
    "query_tilting_pouring": (("query", LIB, "PouringPlan", "Tilting", "Pouring_0"), 0),
    "select_pouring": (("select", LIB, POUR, "Pouring"), 0),
    "select_pouring_machine": (("select", LIB, POUR, "Pouring", "--format", "machine"), 0),
    "select_tilting": (("select", LIB, AMB, "Tilting_0"), 0),
    "validate_all_descriptions": (("validate", ALL), 0),
    "parse_mixing": (("parse", ALL, MIX), 0),
    "parse_state_split": (("parse", SPLIT_LIB, SPLIT_EP), 0),
    "validate_propagation": (("validate", PROP_LIB), 0),
    "query_propagation": (("query", PROP_LIB, "AssemblyPlan", "Step_0", "Step_14"), 0),
    "query_mixing_phases": (("query", ALL, "MixingFlow", "Rotating_0", "Tilting"), 0),
    "query_mixing_defined": (("query", ALL, "MixingFlow", "Mixing", "Rotating_0"), 0),
    "query_stirring_phases": (("query", ALL, "StirringFlow", "Rotating", "Approaching_1"), 0),
    "query_unknown_plan": (("query", ALL, "NoSuchPlan", "Mixing", "Rotating_0"), 2),
    "select_mixing_phase": (("select", ALL, POUR, "Tilting_1"), 0),
    "select_scene": (("select", SCENE_LIB, str(SCENE_EPISODE), "Serving"), 0),
    "force_motion_agonist": (("force", "--tendency", "motion", "--stronger", "agonist"), 0),
    "force_motion_antagonist": (("force", "--tendency", "motion", "--stronger", "antagonist"), 0),
    "force_rest_agonist": (("force", "--tendency", "rest", "--stronger", "agonist"), 0),
    "force_rest_antagonist": (("force", "--tendency", "rest", "--stronger", "antagonist"), 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(capsys, name):
    argv, expected_code = CASES[name]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_golden_demo_script(capsys):
    runpy.run_path(str(DEMO_SCRIPT), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "demo_parse_pouring.out").read_text()


def test_golden_state_episode_tokens():
    tokens = tokenize(random_raw_events(random.Random(2020), 300))
    dump = "".join(f"{t.id} {t.interval.start} {t.interval.end} {t.type_tag}\n" for t in tokens)
    assert dump == (GOLDEN / "tokens_state_episode.out").read_text()


def test_golden_all_descriptions_canonical():
    store, library = load_library(ALL_DESCRIPTIONS_LIBRARY)
    dump = dumps_canonical(serialize_library(store, library))
    assert dump == (GOLDEN / "all_descriptions_canonical.json").read_text()


def test_golden_scene_episode_canonical():
    events = json.loads(SCENE_EPISODE.read_text())["events"]
    raws = [
        RawEvent(TokenClass(e["class"]), e["type"], tuple(e["participants"]), e["start"], e["end"])
        for e in events
    ]
    dump = dumps_canonical(serialize_episode(load_episode(SCENE_EPISODE), raws))
    assert dump == (GOLDEN / "scene_episode_canonical.json").read_text()
