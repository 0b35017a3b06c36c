#!/usr/bin/env python3
"""End-to-end demo: load the shipped library and episodes, query the plan's
temporal structure, select candidate objects, and parse both episodes."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from soma_kit import (  # noqa: E402
    load_episode,
    load_library,
    parse,
    select_objects,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def main():
    store, library = load_library(DATA / "seed_library.json")
    plan = library[0]
    net = library.compiled[0].network  # propagated once, when the library was validated
    print(f"loaded {len(library)} description(s); plan: {plan.id}")
    print(
        "Approaching vs Tilting:",
        net.query_relation("Approaching_0", "Tilting_0").codes(),
    )
    for name in ("pouring_episode.json", "pouring_ambiguous_episode.json"):
        episode = load_episode(DATA / name)
        print(f"\n{name}: {len(episode.tokens)} tokens")
        selection = select_objects(plan.defines, episode.scene, store)
        for role in sorted(selection):
            print(f"  {role} candidates: {sorted(selection[role])}")
        for interp in parse(episode, library, store):
            phases = ", ".join(f"{p}->{t}" for p, t in interp.phase_grounding)
            print(f"  interpretation (coverage {interp.coverage:.2f}): {phases}")


if __name__ == "__main__":
    main()
