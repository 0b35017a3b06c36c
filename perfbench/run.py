"""soma-kit benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload parse_mixed --seed 1 --seconds 25 --trace 0

Runs one workload (parse_mixed, ingest or temporal) as a closed loop for
--seconds of measured time, checks every output, and prints a report whose
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
records spans around each call into soma_kit, writes them to
.perfbench/spans/, and the metrics are the per-layer ones.

The program is imported from src/ of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7

# (metric, unit, span, tag bucket, summed per request)
LAYER_SPANS = (
    ("allen.propagate_ms", "ms", "allen.propagate", None, False),
    ("allen.propagate_ms.v6-9", "ms", "allen.propagate", (6, 9), False),
    ("allen.propagate_ms.v10-12", "ms", "allen.propagate", (10, 12), False),
    ("allen.propagate_ms.v13-16", "ms", "allen.propagate", (13, 16), False),
    ("allen.query_us", "us", "allen.query", None, False),
    ("ontology.add_concept_ms", "ms", "ontology.add_concept", None, True),
    ("ontology.subsumes_us", "us", "ontology.subsumes", None, False),
    ("ontology.classify_us", "us", "ontology.classify", None, False),
    ("activity.compile_ms", "ms", "activity.compile", None, False),
    ("activity.validate_ms", "ms", "activity.validate", None, False),
    ("parsing.tokenize_ms", "ms", "parsing.tokenize", None, False),
    ("parsing.tokenize_ms.n1-99", "ms", "parsing.tokenize", (1, 99), False),
    ("parsing.tokenize_ms.n100-399", "ms", "parsing.tokenize", (100, 399), False),
    ("parsing.tokenize_ms.n400-800", "ms", "parsing.tokenize", (400, 800), False),
    ("parsing.parse_ms", "ms", "parsing.parse", None, False),
    ("parsing.parse_ms.t1-19", "ms", "parsing.parse", (1, 19), False),
    ("parsing.parse_ms.t20-29", "ms", "parsing.parse", (20, 29), False),
    ("parsing.parse_ms.t30-40", "ms", "parsing.parse", (30, 40), False),
    ("parsing.rank_ms", "ms", "parsing.rank", None, False),
    ("parsing.verify_us", "us", "parsing.verify", None, False),
    ("grounding.select_ms", "ms", "grounding.select", None, False),
    ("formats.load_library_ms", "ms", "formats.load_library", None, False),
    ("formats.load_library_ms.c100-399", "ms", "formats.load_library", (100, 399), False),
    ("formats.load_library_ms.c400-800", "ms", "formats.load_library", (400, 800), False),
    ("formats.load_episode_ms", "ms", "formats.load_episode", None, False),
    ("formats.serialize_ms", "ms", "formats.serialize", None, False),
    ("cli.parse_top1_ms", "ms", "cli.parse_top1", None, False),
    ("cli.select_ms", "ms", "cli.select", None, False),
    ("cli.query_ms", "ms", "cli.query", None, False),
    ("cli.validate_ms", "ms", "cli.validate", None, False),
)

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from soma_kit.formats import load_library; load_library({library!r})"
)


def measure_setup(library: str, importtime: bool):
    """Wall times (s) of fresh interpreters that import soma_kit and load the
    library, and the self time (ms) of importing soma_kit.allen."""
    walls, allen_ms = [], []
    code = SETUP_CODE.format(src=str(SRC), library=library)
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "soma_kit.allen":
                allen_ms.append(int(fields[0].split(":")[1]) / 1e3)
    return walls, allen_ms


def ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(loop, setup_walls, peak_rss_mb):
    op_ms = [t * 1e3 for t in loop.op_s]
    deciles = statistics.quantiles(op_ms, n=10)
    return {
        "ops_per_s": (len(loop.op_s) / sum(loop.op_s), "1/s", len(op_ms)),
        "op_ms_p50": (statistics.median(op_ms), "ms", len(op_ms)),
        "op_ms_p90": (deciles[8], "ms", len(op_ms)),
        "cli_ms_p50": (statistics.median(loop.cli_s) * 1e3, "ms", len(loop.cli_s)),
        "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def per_layer(loop, workload, tracer, allen_ms, replay_s):
    metrics = layer_metrics(tracer, LAYER_SPANS)
    c = loop.counts
    edge = getattr(workload, "edge", {})
    traced_s = sum(loop.op_s)
    metrics.update({
        "allen.import_ms": (statistics.median(allen_ms), "ms", len(allen_ms)),
        "allen.consistent_ratio": (ratio(c["consistent"], c["networks"]), "ratio", c["networks"]),
        "parsing.interpretations": (ratio(c["interpretations"], c["episodes"]), "count", c["episodes"]),
        "parsing.matched_ratio": (ratio(c["matched"], c["episodes"]), "ratio", c["episodes"]),
        "parsing.tokens": (
            ratio(c["tokens"], c["episodes"] + c["episode_docs"]), "count",
            c["episodes"] + c["episode_docs"],
        ),
        "formats.documented_reject_ratio": (
            ratio(edge.get("documented", 0), edge.get("attempted", 0)), "ratio",
            edge.get("attempted", 0),
        ),
        "failed_ratio": (ratio(loop.outcomes["undocumented"], loop.attempted), "ratio", loop.attempted),
        "trace.overhead_pct": (100 * ratio(traced_s - replay_s, replay_s), "%", len(loop.op_s)),
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("parse_mixed", "ingest", "temporal"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "soma_kit" / "__init__.py").is_file():
        print(f"error: no soma_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, GateFailure, Loop

    tracer = Tracer() if args.trace else NullTracer()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    loop = Loop(args.seconds, tracer)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, tracer)
        workload.drive(loop)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            replay_s = workload.replay_seconds(loop.indices)
        setup_walls, allen_ms = measure_setup(workload.base_library, bool(args.trace))
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(loop.attempted, 1),
                          "failed": loop.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(loop, workload, tracer, allen_ms, replay_s)
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(loop, setup_walls, peak_rss_mb)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"measured_s={loop.spent:.3f} ops={len(loop.op_s)} cli_ops={len(loop.cli_s)}")
    print("outcomes: " + " ".join(f"{k}={v}" for k, v in sorted(loop.outcomes.items()))
          + f" failed_ratio={ratio(loop.outcomes['undocumented'], loop.attempted):.4f}"
          f" of attempted={loop.attempted}")
    print("counts: " + " ".join(f"{k}={v}" for k, v in sorted(loop.counts.items())))
    for name, (value, unit, n) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}  (n={n})")
    print(json.dumps({
        "correct": True,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
