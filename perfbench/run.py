"""The proofdiag benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload {enumerate,cutelim,oracle,tower} \\
        --seed N --seconds S --trace {0,1}

Every figure comes from fresh single-threaded interpreters started from
``perfbench/worker.py`` with ``src`` on ``PYTHONPATH`` and ``PYTHONHASHSEED``
pinned to ``HASH_SEED``, one after another, never two at once.  Times are
on the adjusted clock of ``perfbench/hostspeed.py``; the raw readings are in
the metadata.

- ``--trace 0``: one timed run (set-up, timed region, output checks) and
  ``SETUP_REPEATS`` set-up-only runs; prints the end-to-end metrics, with
  ``setup_s`` the median set-up time of all of them;
- ``--trace 1``: one untraced and one traced run of the same work; prints
  the per-layer metrics of the traced run, and ``trace.overhead_s``, the
  traced ``wall_s`` minus the untraced one.

Lines before the last describe the run (Python version, CPU count, git SHA,
seed, hash seed, why the workload was chosen, output digest, failures); the
last line is the JSON result.  The full run record and the spans of a
traced run are written under ``.perfbench_out/``.  See ``perfbench/NOTES.md``.
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
import time
from pathlib import Path

from worker import OUT_DIR, ROOT

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 4
HASH_SEED = 0
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "proofdiag").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository.  Git
    does not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(HASH_SEED)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} run")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run did not end within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metadata(args, why: str) -> dict:
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seed": HASH_SEED,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "proofdiag" / "__init__.py").is_file():
        print(f"perfbench: no proofdiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    meta = _metadata(args, workloads.WORKLOADS[args.workload].why)
    try:
        if args.trace:
            untraced = _worker(args, "timed", deadline)
            runs = [untraced, _worker(args, "traced", deadline)]
            traced = runs[1]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            units = tracer.metric_units()
        else:
            timed = _worker(args, "timed", deadline)
            setup_runs = [timed] + [_worker(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
            setups = [r["setup_s"] for r in setup_runs]
            runs = [timed]
            metrics = {
                "setup_s": statistics.median(setups),
                **{k: timed[k] for k in END_TO_END_UNITS if k != "setup_s"},
            }
            units = END_TO_END_UNITS
            meta["setup_s_runs"] = setups
            meta["setup_raw_s_runs"] = [r["setup_raw_s"] for r in setup_runs]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    first = runs[0]
    meta.update(
        items=first["items"],
        tail_percentile=first["tail_percentile"],
        tail_samples_beyond=first["items"] * (100 - first["tail_percentile"]) / 100,
        steps=first["steps"],
        steps_per_s=first["steps_per_s"],
        checkpoint_s=first["checkpoint_s"],
        raw={k: first[k] for k in ("wall_raw_s", "cpu_s", "item_p50_raw_ms", "item_tail_raw_ms")},
        host_factor=first["host_factor"],
        fail_ratio=failed / attempted if attempted else 0.0,
        digest=first["digest"],
        digests_agree=len({r["digest"] for r in runs}) == 1,
        wrong=[w for r in runs for w in r["wrong"]][:20],
        errors=[e for r in runs for e in r["errors"]][:20],
        notes=first["notes"],
    )
    correct = all(r["correct"] for r in runs) and meta["digests_agree"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "runs": runs, "result": result}, indent=1))
    print("perfbench " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
