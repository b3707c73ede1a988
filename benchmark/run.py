"""The flagcodes benchmark: one workload, one seed, one report.

Run from the root of a checkout:

    python3 benchmark/run.py --workload verify-gf2-n9 --seed 0 --seconds 20 --trace 0

Every pass of the workload runs in a fresh single-threaded Python process
(benchmark/worker.py), one process at a time, with PYTHONPATH set to the
checkout's src/.  The workload input is ``poly_choice``, the index of the
primitive polynomial used at every degree.  Only 0 and 1 are valid for every
workload and their costs differ, so each pass runs the workload at both; a
seed n >= 0 makes poly_choice n mod 2 go first, and a negative seed is
refused before anything runs.

--trace 0 measures the end-to-end metrics with tracing off: the median pass
time and the median set-up time over fresh interpreters started between the
passes, both at nominal machine speed (benchmark/speedprobe.py measures the
speed each process got), and the median peak resident memory of the pass
processes.  --trace 1 alternates untraced and traced passes (at least two
traced, each in its own process), reports the per-layer metrics of the
outside-in tracer (benchmark/tracer.py) as medians, fails if any exact count
differs between traced passes, and reports the tracing overhead and the raw
wall time of the untraced passes.  A run starts no pass that it expects to
end after --seconds, once it has its minimum number of passes.

Every pass is checked against benchmark/references.json.  The human-readable
lines come first, with the run's context; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
means every output was correct; 1 means a check failed; 2 means bad arguments
or a checkout without the flagcodes sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import METRICS as PER_LAYER_UNITS
from worker import POLY_CHOICES, WORKLOADS

HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA_UNITS = {"trace.overhead_s": "s", "pass.raw_wall_s": "s"}
EXACT_UNITS = ("count", "byte")
SETUP_SAMPLES_PER_PASS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A benchmark process failed; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _run_child(root: Path, mode: str, workload: str, choice: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(choice)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():  # an exported checkout; src_sha256 identifies it
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _context(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def first_choice_for(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return POLY_CHOICES[seed % len(POLY_CHOICES)]


def _more(start: float, seconds: float, step_s: float, done: int, minimum: int) -> bool:
    """Whether to start another step that takes about ``step_s``."""
    return done < minimum or perf_counter() - start + step_s <= seconds


def _end_to_end(root: Path, workload: str, choice: int, seconds: float) -> tuple[dict, list]:
    # Machine speed drifts over seconds, so set-up samples are spread over the
    # run, a few before each pass, rather than taken back to back.
    setups, passes = [], []
    start, step_s = perf_counter(), 0.0
    while _more(start, seconds, step_s, len(passes), MIN_PASSES):
        step_start = perf_counter()
        setups += [_run_child(root, "setup", workload, choice)
                   for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(_run_child(root, "pass", workload, choice))
        step_s = perf_counter() - step_start
    walls = [p["wall_s"] for p in passes]
    raw_setups = [s["setup_s"] for s in setups]
    norms = [p["norm_wall_s"] for p in passes]
    values = {
        "norm_wall_s": statistics.median(norms),
        "setup_s": statistics.median(s["norm_setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"samples: {len(walls)} passes (raw wall median {statistics.median(walls):.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s; normalized min {min(norms):.4f} s, "
          f"max {max(norms):.4f} s; median speed "
          f"{statistics.median(p['speed'] for p in passes):.3f}), "
          f"{len(setups)} set-ups (raw median {statistics.median(raw_setups):.4f} s, "
          f"min {min(raw_setups):.4f} s, max {max(raw_setups):.4f} s)")
    return values, passes


def _per_layer(root: Path, workload: str, choice: int, seconds: float) -> tuple[dict, list, list]:
    untraced, traced = [], []
    start, step_s = perf_counter(), 0.0
    while _more(start, seconds, step_s, len(traced), MIN_TRACED_PASSES):
        step_start = perf_counter()
        untraced.append(_run_child(root, "pass", workload, choice))
        traced.append(_run_child(root, "trace", workload, choice))
        step_s = perf_counter() - step_start
    errors = []
    first = traced[0]["counts"]
    for i, other in enumerate(traced[1:], start=2):
        diff = sorted(k for k in first.keys() | other["counts"].keys()
                      if first.get(k) != other["counts"].get(k))
        if diff:
            errors.append(f"traced pass {i} counts differ from pass 1 in {diff}")
    # counts are exact (checked equal above); times are medians
    values = {
        name: traced[0]["per_layer"][name] if unit in EXACT_UNITS
        else statistics.median(t["per_layer"][name] for t in traced)
        for name, unit in PER_LAYER_UNITS.items()
    }
    traced_wall = statistics.median(t["norm_wall_s"] for t in traced)
    untraced_wall = statistics.median(p["norm_wall_s"] for p in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["pass.raw_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    print(f"samples: {len(traced)} traced passes (median normalized wall {traced_wall:.4f} s), "
          f"{len(untraced)} untraced (median normalized wall {untraced_wall:.4f} s)")
    return values, untraced + traced, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flagcodes benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int,
                        help="seed >= 0; poly_choice seed mod 2 runs first in each pass")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        choice = first_choice_for(args.seed)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}; use a seed >= 0\n")
        return 2
    root = HERE.parent
    if not (root / "src" / "flagcodes" / "__init__.py").is_file():
        sys.stderr.write(f"error: no flagcodes sources under {root / 'src'}\n")
        return 2

    context = {"seed": args.seed, "first_poly_choice": choice, **_context(root)}
    print(f"workload {args.workload}, seed {args.seed} (poly_choice {choice} first), "
          f"{args.seconds:g} s, trace {args.trace}")
    try:
        _run_child(root, "setup", args.workload, choice)  # warm the bytecode cache
        if args.trace:
            values, passes, errors = _per_layer(root, args.workload, choice, args.seconds)
            units = {**PER_LAYER_UNITS, **TRACE_EXTRA_UNITS}
        else:
            values, passes = _end_to_end(root, args.workload, choice, args.seconds)
            errors = []
            units = END_TO_END_UNITS
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    context["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors += [e for p in passes for e in p["errors"]]
    correct = failed == 0 and not errors
    print("context: " + json.dumps(context))
    for name, value in values.items():
        print(f"{name:28} {value:>14.6g} {units[name]}")
    print(f"{'failed_share':28} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for err in errors:
        sys.stderr.write(f"check failed: {err}\n")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
