"""Alternating parent/change pairs of the benchmark, summarized per workload.

    python3 tools/bench_pairs.py --parent REV --change REV --name NAME \\
        --workloads cutelim,oracle --seeds 601-610 [--seconds 15] \\
        [--claim cutelim:items_per_s] [--what TEXT] [--workdir DIR]

Both revisions are extracted with ``git archive`` into clean directories
under ``--workdir`` (a fresh temporary directory by default), so that
nothing of the working tree leaks into either side.  For each workload and
seed, ``perfbench/run.py --trace 0`` runs once in each checkout, one run at
a time; the parent runs first on even pair indices and the change on odd
ones.  The metrics, their units, directions and bounds come from the
change's ``BENCHMARK.json``.

``BENCH_<NAME>.json`` gets the layout of ``BENCH_sequentialize.json``: per
workload and metric the runs of each side, their quartiles (inclusive
method), the change's wins, ``worse_by`` (the change's median against the
parent's, positive when worse), whether that stays within the bound, and
the metric's ``verdict`` (``metric_verdict``); per pair, whether its
digests are equal and its ``failed`` counts; and, with ``--claim``, the
verdict of the claim rule: the change wins at least nine in ten pairs and
the medians differ by more than the parent's interquartile range.  A claim
whose workload is not in ``--workloads``, or whose metric is not one of
``BENCHMARK.json``'s ``end_to_end`` metrics, exits 2 before any run.  The file
is rewritten after every pair, so an interrupted run keeps what it measured.
Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_RULE = (
    "change wins at least 9 of 10 pairs and the medians differ by more than "
    "the parent's interquartile range"
)


def checkout(rev: str, dest: Path) -> Path:
    """Extract the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its metadata line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(l[len("perfbench "):]) for l in reversed(lines) if l.startswith("perfbench "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def quartiles(xs: list) -> list:
    if len(xs) == 1:
        return [xs[0]] * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def metric_verdict(par: list, chg: list, pq: list, worse_by: float, bound: float,
                   higher: bool) -> str:
    """``better`` when every change run beats every parent run; otherwise
    ``unresolved`` when the parent's own spread (interquartile range over
    median) is wider than the bound, so the medians cannot tell; otherwise
    ``within`` or ``worse`` the bound."""
    if (min(chg) > max(par)) if higher else (max(chg) < min(par)):
        return "better"
    if pq[1] and (pq[2] - pq[0]) / pq[1] > bound:
        return "unresolved"
    return "within" if worse_by <= bound else "worse"


def summarize(runs: list, metrics: list) -> dict:
    """Per-workload entry from ``runs``, a list of (parent, change) records."""
    out = {
        "pairs": len(runs),
        "seeds": [p["meta"]["seed"] for p, _ in runs],
        "digests_equal": [p["meta"]["digest"] == c["meta"]["digest"] for p, c in runs],
        "failed": [[p["result"]["failed"], c["result"]["failed"]] for p, c in runs],
        "metrics": {},
        "checkpoint_s": {
            "parent": [p["meta"].get("checkpoint_s", 0) for p, _ in runs],
            "change": [c["meta"].get("checkpoint_s", 0) for _, c in runs],
        },
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        par = [round(p["result"]["metrics"][name]["value"], 4) for p, _ in runs]
        chg = [round(c["result"]["metrics"][name]["value"], 4) for _, c in runs]
        pq, cq = quartiles(par), quartiles(chg)
        gap = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse_by = round(-gap if higher else gap, 4)
        out["metrics"][name] = {
            "parent_q1_med_q3": pq,
            "change_q1_med_q3": cq,
            "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(par, chg)),
            "worse_by": worse_by,
            "bound": m["bound"],
            "within_bound": worse_by <= m["bound"],
            "verdict": metric_verdict(par, chg, pq, worse_by, m["bound"], higher),
            "parent": par,
            "change": chg,
        }
    return out


def claim_verdict(entry: dict, workload: str, metric: str, higher: bool) -> dict:
    m = entry["metrics"][metric]
    pq, cq = m["parent_q1_med_q3"], m["change_q1_med_q3"]
    better = cq[1] > pq[1] if higher else cq[1] < pq[1]
    pairs = entry["pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "rule": CLAIM_RULE,
        "pairs": pairs,
        "seeds": f"{entry['seeds'][0]}-{entry['seeds'][-1]}",
        "change_wins": m["change_wins"],
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "met": better and m["change_wins"] >= 0.9 * pairs and abs(cq[1] - pq[1]) > pq[2] - pq[0],
    }


def parse_claim(text: str, workloads: list, metrics: list) -> tuple:
    """``workload:metric`` of a claim as (workload, metric, higher is
    better); ValueError unless the workload is run and the metric is an
    end-to-end one."""
    workload, _, metric = text.partition(":")
    if workload not in workloads:
        raise ValueError(f"claimed workload {workload!r} is not in --workloads")
    for m in metrics:
        if m["name"] == metric:
            return workload, metric, m["better"] == "higher"
    raise ValueError(f"claimed metric {metric!r} is not an end_to_end metric of BENCHMARK.json")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", required=True, help="revision of the change side")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 601-610 or 601,603-605")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--claim", help="workload:metric of the claimed gain")
    ap.add_argument("--what", default="", help="what the change is, for the file")
    ap.add_argument("--workdir", help="where the checkouts go (default: a temporary directory)")
    args = ap.parse_args(argv)

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: checkout(getattr(args, side), work / side) for side in ("parent", "change")}
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    out_path = ROOT / f"BENCH_{args.name}.json"
    doc = {
        "what": args.what or f"{args.change} against its parent {args.parent}",
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g}, "
                   "parent and change alternating which runs first, each from its own checkout",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "note": "times are on perfbench's adjusted clock"},
        "claim": None,
        "runs": {"final": {"note": f"parent {args.parent} and change {args.change}, both as "
                                   f"clean archives; seeds {args.seeds}", "workloads": {}}},
    }
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    claim_workload = None
    if args.claim:
        try:
            claim_workload, claim_metric, higher = parse_claim(args.claim, workloads, metrics)
        except ValueError as e:
            ap.error(str(e))  # exits 2, before any run
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            rec = {side: run_once(trees[side], workload, seed, args.seconds) for side in order}
            runs.append((rec["parent"], rec["change"]))
            entry = summarize(runs, metrics)
            doc["runs"]["final"]["workloads"][workload] = entry
            if workload == claim_workload:
                doc["claim"] = claim_verdict(entry, workload, claim_metric, higher)
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{workload} seed {seed}: digests equal {entry['digests_equal'][-1]}, "
                  f"failed {entry['failed'][-1]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
