#!/usr/bin/env python3
"""Record one benchmark run set as BENCH_<pr>.json at the repo root.

Usage, from anywhere in a checkout:

    python3 scripts/bench_record.py --pr 8 --seconds 25

Runs perfbench/run.py on every workload (parse_mixed, ingest, temporal) with
one fixed seed, once with --trace 0 (end-to-end metrics) and once with
--trace 1 (per-layer metrics), and writes one JSON file holding the Python
version, each run's final JSON line, and the code measured: `base_commit` is
HEAD, `worktree_clean` says whether the tracked files matched it, and
`code_trees` holds the git tree ids of `src` and `perfbench` as they were on
disk, so a record made on uncommitted work still names its code (check it
with `git rev-parse <commit>:src`). `peak_rss_mb` grows with the number
of operations a run completes, so each run also lists `attempted` next to it:
compare memory only between runs of equal op counts.

Exits 1 if any run fails or reports `correct: false`; the file is written
either way.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("parse_mixed", "ingest", "temporal")
SEED = 1
#: Directories whose contents decide a run's results.
CODE_DIRS = ("src", "perfbench")


def git(*args: str):
    """Output of a git command in the checkout, or None outside a git tree."""
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def code_trees(clean: bool) -> dict:
    """Git tree id of each code directory as it is on disk: HEAD's when the
    tracked files are clean, else that of a stash commit of the work tree
    (made without touching refs or files)."""
    treeish = "HEAD" if clean else git("stash", "create")
    return {d: treeish and git("rev-parse", f"{treeish}:{d}") for d in CODE_DIRS}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    record = {"workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode}
    if result is not None:
        record["attempted"] = result.get("attempted")
        rss = result.get("metrics", {}).get("peak_rss_mb")
        if rss is not None:
            record["peak_rss_mb"] = rss["value"]
    record["result"] = result
    if proc.returncode != 0:
        record["stderr"] = proc.stderr[-2000:]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--seconds", type=float, default=25.0, help="measured seconds per run")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run(workload, SEED, args.seconds, trace)
            runs.append(record)
            status = "ok" if record["returncode"] == 0 else f"rc={record['returncode']}"
            print(f"{workload} trace={trace}: {status}", file=sys.stderr)
    status = git("status", "--porcelain", "--untracked-files=no")
    clean = None if status is None else status == ""
    doc = {
        "pr": args.pr,
        "base_commit": git("rev-parse", "HEAD"),
        "worktree_clean": clean,
        "code_trees": code_trees(bool(clean)),
        "python": platform.python_version(),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace T",
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    ok = all(r["returncode"] == 0 and (r["result"] or {}).get("correct") for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
