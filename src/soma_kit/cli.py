"""Batch command-line interface.

Subcommands: validate, parse, query, select, force. All reports are
deterministic byte-for-byte for fixed inputs. Exit codes: 0 success
(including "no interpretations"), 1 validation failure, 2 I/O or parse
errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .allen import RelationSet
from .errors import SomaKitError, ValidationFailed
from .formats import load_episode, load_library
from .grounding import (
    ForceExpression,
    StrongerEntity,
    Tendency,
    force_outcome,
    select_objects,
)
from .parsing import DEFAULT_EPS, parse as parse_episode


def _eps(text: str) -> float:
    """argparse type of --eps: a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _top(text: str) -> int:
    """argparse type of --top: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soma-kit",
        description="Knowledge-based activity interpretation toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a plan-library document")
    p.add_argument("library")

    p = sub.add_parser("parse", help="parse an episode against a plan library")
    p.add_argument("library")
    p.add_argument("episode")
    p.add_argument("--eps", type=_eps, default=DEFAULT_EPS)
    p.add_argument("--top", type=_top, default=None)
    p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("query", help="propagated relation between two plan phases")
    p.add_argument("library")
    p.add_argument("plan")
    p.add_argument("phase_a")
    p.add_argument("phase_b")

    p = sub.add_parser("select", help="scene objects admissible for a task's roles")
    p.add_argument("library")
    p.add_argument("episode")
    p.add_argument("task")
    p.add_argument("--eps", type=_eps, default=DEFAULT_EPS)
    p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("force", help="force-dynamics outcome classification")
    p.add_argument("--tendency", choices=("motion", "rest"), required=True)
    p.add_argument("--stronger", choices=("agonist", "antagonist"), required=True)
    return ap


def _cmd_validate(args) -> int:
    try:
        load_library(args.library)
    except ValidationFailed as exc:
        for issue in exc.issues:
            print(f"issue: {issue}")
        print(f"invalid: {len(exc.issues)} issue(s)")
        return 1
    print("ok: library is valid")
    return 0


def _cmd_parse(args) -> int:
    store, library = load_library(args.library)
    episode = load_episode(args.episode, eps=args.eps)
    interps = parse_episode(episode, library, store)
    if args.top is not None:
        interps = interps[: args.top]
    machine = args.format == "machine"
    if not machine:
        print(f"interpretations: {len(interps)}")
    else:
        print(f"count={len(interps)}")
    for idx, i in enumerate(interps):
        phases = " ".join(f"{p}->{t}" for p, t in i.phase_grounding)
        roles = " ".join(f"{slot}.{role}->{e}" for (slot, role), e in i.role_grounding)
        if machine:
            print(f"interpretation={idx} plan={i.plan} coverage={i.coverage:.4f}")
            for p, t in i.phase_grounding:
                print(f"phase={p} token={t}")
            for (slot, role), e in i.role_grounding:
                print(f"slot={slot} role={role} entity={e}")
        else:
            print(f"[{idx}] plan={i.plan} coverage={i.coverage:.4f}")
            print(f"    phases: {phases}")
            if roles:
                print(f"    roles: {roles}")
    return 0


def _cmd_query(args) -> int:
    _, library = load_library(args.library)
    plan = library.plan(args.plan)
    if plan is None:
        print(f"error: no plan or process flow named {args.plan!r}", file=sys.stderr)
        return 2
    rows = []
    for name in (args.phase_a, args.phase_b):
        found = [(i, ref) for p, i, ref in library.slots(name) if p is plan]
        if not found:
            print(f"error: unknown phase {name!r}", file=sys.stderr)
            return 2
        if len(found) > 1:
            ids = ", ".join(ref.id for _, ref in found)
            print(f"error: ambiguous phase {name!r}: {ids}", file=sys.stderr)
            return 2
        rows.append(found[0][0])
    a, b = rows
    print(RelationSet(plan.masks[a][b]).codes())
    return 0


def _cmd_select(args) -> int:
    store, library = load_library(args.library)
    episode = load_episode(args.episode, eps=args.eps)
    task = next(library.slots(args.task), None)
    if task is None:
        print(f"error: unknown task {args.task!r}", file=sys.stderr)
        return 2
    selection = select_objects(task[2], episode.scene, store)
    for role in sorted(selection):
        members = " ".join(sorted(selection[role]))
        if args.format == "machine":
            print(f"role={role} candidates={members}")
        else:
            print(f"{role}: {{{members}}}")
    return 0


def _cmd_force(args) -> int:
    expr = ForceExpression(
        agonist="agonist",
        antagonist="antagonist",
        agonist_tendency=Tendency(args.tendency),
        stronger=StrongerEntity(args.stronger),
    )
    print(force_outcome(expr).value)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "parse": _cmd_parse,
    "query": _cmd_query,
    "select": _cmd_select,
    "force": _cmd_force,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValidationFailed as exc:
        for issue in exc.issues:
            print(f"issue: {issue}", file=sys.stderr)
        return 1
    except (OSError, SomaKitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
