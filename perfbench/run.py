"""negoteam's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload voting-teams --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and builds nothing: it imports negoteam
from the checkout's ``src/``. With ``--trace 0`` it repeats batches of the
workload (see ``workloads.py``) for about ``--seconds`` seconds and reports
the end-to-end metrics; with ``--trace 1`` it runs the first batch once
untraced and once traced and reports the per-layer metrics. Either way the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("voting-teams", "fum-re-teams", "cli-run-replay")
DEFAULT_SEED = 1
SETUP_PROBES = 5


def _import_program():
    """negoteam from this checkout's src/, or an error when it is not there."""
    if not (SRC / "negoteam" / "__init__.py").is_file():
        raise SystemExit(f"error: no negoteam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import negoteam

    if not Path(negoteam.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: negoteam imported from {negoteam.__file__}, not from {SRC}")


def _setup_seconds(workload: str, run_dir: Path) -> float:
    """Median set-up time of fresh interpreters: import, config, warm-up."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = run_dir / f"setup{i}"
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _batch_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(batches, setup_s: float) -> dict:
    run_s = sum(b.run_s for b in batches)
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(b.wall_s for b in batches), "s"),
        "sessions_per_s": _metric(sum(b.sessions for b in batches) / run_s, "1/s"),
        "rounds_per_s": _metric(sum(b.rounds for b in batches) / run_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_mb": _metric(sum(b.output_bytes for b in batches) / len(batches) / 1e6, "MB"),
        "replay_s": _metric(statistics.median(b.replay_s for b in batches), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to repeat batches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            batches, metrics, problems = _traced(workload, args, run_dir)
        else:
            setup_s = _setup_seconds(args.workload, run_dir)
            state = workload.setup(run_dir)
            batches = []
            start = time.perf_counter()
            while True:
                index = len(batches)
                batch = workload.play(state, _batch_seed(args.seed, index), run_dir / f"batch{index}")
                workload.check(batch)
                print(batch.summary(), flush=True)
                batches.append(batch)
                # only whole batches, and none expected to end past the time
                if time.perf_counter() - start + batch.wall_s > args.seconds:
                    break
            metrics = _end_to_end(batches, setup_s)
            problems = [p for b in batches for p in b.problems]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _traced(workload, args, run_dir: Path):
    """The first batch untraced, then again traced; per-layer metrics of the second."""
    import tracing

    state = workload.setup(run_dir)
    seed = _batch_seed(args.seed, 0)
    untraced = workload.play(state, seed, run_dir / "untraced")
    workload.check(untraced)
    print(untraced.summary(), flush=True)
    tracer = tracing.install()
    try:
        traced = workload.play(state, seed, run_dir / "traced")
    finally:
        tracer.uninstall()
    workload.check(traced)
    print(traced.summary(), flush=True)
    problems = untraced.problems + traced.problems
    if traced.digest != untraced.digest:
        problems.append("tracing changed sessions.csv")
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
    tracer.write(str(trace_path))
    print(f"spans written to {trace_path.relative_to(ROOT)}", flush=True)
    metrics = tracing.per_layer_metrics(tracer, traced.endings, traced.wall_s, untraced.wall_s)
    return [untraced, traced], metrics, problems


if __name__ == "__main__":
    sys.exit(main())
