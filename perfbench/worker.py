"""Run one workload once in this (fresh, single-threaded) interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (set up only), ``timed`` (set up, run untraced, check) or
``traced`` (the same with every layer wrapped by ``tracer.Tracer``).  The
last line of standard output is one JSON object with the run's figures.
``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and a pinned
``PYTHONHASHSEED``.

Times are reported twice: on the adjusted clock of ``hostspeed`` (the
figures without a suffix, which the benchmark prints) and as read from the
raw clock (``*_raw*``), for comparison.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

from hostspeed import EDGE_PROBES, AdjustedClock, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"  # run records and span files


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    for p in (99.99, 99.9, 99.5, 99, 98, 95, 90, 80, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50.0


def run(workload: str, seed: int, seconds: float, mode: str) -> dict:
    # Set-up runs from the import of proofdiag to the end of input generation;
    # the host speed for it is measured just before and just after.
    speed = HostSpeed()
    speed.probe(EDGE_PROBES)
    start = perf_counter()
    import proofdiag

    src = Path(proofdiag.__file__).resolve().parent
    if src != ROOT / "src" / "proofdiag":
        raise SystemExit(f"proofdiag imported from {src}, not from {ROOT / 'src'}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, seconds)
    setup_raw_s = perf_counter() - start
    speed.probe(EDGE_PROBES)
    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "setup_s": setup_raw_s / speed.factor(start, start + setup_raw_s),
        "setup_raw_s": setup_raw_s,
    }
    if mode == "setup":
        return result

    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    log = workloads.RunLog(speed)
    gc.collect()
    cpu0 = process_time()
    t0 = perf_counter()
    try:
        wl.run(state, log)
    finally:
        t1 = perf_counter()
        cpu_s = process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    speed.probe(EDGE_PROBES)
    t2 = perf_counter()
    wl.check(state, log)
    check_s = perf_counter() - t2

    clock = AdjustedClock(speed, t0, t1)
    wall_s = clock(t1)
    # Tower's checkpoints are timed work but no item: items_per_s leaves them out.
    checkpoint_s = sum(clock(b) - clock(a) for a, b in log.checkpoints)
    lat = [clock(b) - clock(a) for a, b in log.items]
    raw = [b - a for a, b in log.items]
    tail_p = tail_percentile(len(lat))
    factors = sorted(clock.factor)
    digest = hashlib.sha256("\n".join(log.digest_parts).encode()).hexdigest()
    result.update(
        wall_s=wall_s,
        check_s=check_s,
        checkpoint_s=checkpoint_s,
        items=len(lat),
        items_per_s=len(lat) / (wall_s - checkpoint_s),
        item_p50_ms=percentile(lat, 50) * 1e3,
        item_tail_ms=percentile(lat, tail_p) * 1e3,
        tail_percentile=tail_p,
        wall_raw_s=t1 - t0 - speed.probe_s(t0, t1),
        cpu_s=cpu_s,
        item_p50_raw_ms=percentile(raw, 50) * 1e3,
        item_tail_raw_ms=percentile(raw, tail_p) * 1e3,
        segments=len(factors),
        host_factor=[factors[0], percentile(factors, 50), factors[-1]],
        steps=log.steps,
        steps_per_s=log.steps / wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=log.attempted,
        failed=log.failed,
        correct=not log.wrong,
        wrong=log.wrong[:20],
        errors=log.errors[:20],
        digest=digest,
        notes=log.notes,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.span_name)
        result["spans_dropped"] = tracer.dropped
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
        tracer.write_spans(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.mode)
    result["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
