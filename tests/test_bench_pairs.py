"""``tools/bench_pairs.py`` on synthetic run records: no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _record(seed, wall_s, items_per_s, digest="d", failed=0):
    values = {"wall_s": wall_s, "items_per_s": items_per_s}
    return {
        "meta": {"seed": seed, "digest": digest},
        "result": {"failed": failed, "metrics": {k: {"value": v} for k, v in values.items()}},
    }


def _runs(parent_items, change_items, **change):
    return [
        (_record(600 + i, 2.0, p), _record(600 + i, 1.0, c, **change))
        for i, (p, c) in enumerate(zip(parent_items, change_items))
    ]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("601-603") == [601, 602, 603]
    assert bench_pairs.parse_seeds("601,603-605,9") == [601, 603, 604, 605, 9]
    assert bench_pairs.parse_seeds("7") == [7]


def test_quartiles():
    assert bench_pairs.quartiles([5.0]) == [5.0, 5.0, 5.0]
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == [2, 3, 4]
    assert bench_pairs.quartiles([4, 1, 3, 2]) == [1.75, 2.5, 3.25]


def test_summarize():
    entry = bench_pairs.summarize(_runs([100, 110, 90], [130, 100, 120]), METRICS)
    assert entry["pairs"] == 3 and entry["seeds"] == [600, 601, 602]
    assert entry["digests_equal"] == [True] * 3 and entry["failed"] == [[0, 0]] * 3
    items = entry["metrics"]["items_per_s"]
    assert items["parent"] == [100, 110, 90] and items["change"] == [130, 100, 120]
    assert items["parent_q1_med_q3"] == [95, 100, 105]
    assert items["change_q1_med_q3"] == [110, 120, 125]
    assert items["change_wins"] == 2
    assert items["worse_by"] == -0.2 and items["within_bound"]
    wall = entry["metrics"]["wall_s"]
    assert wall["change_wins"] == 3 and wall["worse_by"] == -0.5
    # a slower change is worse by the gap between medians, out of bound
    slow = bench_pairs.summarize(_runs([100] * 3, [70] * 3), METRICS)["metrics"]["items_per_s"]
    assert slow["worse_by"] == 0.3 and not slow["within_bound"]
    assert bench_pairs.summarize(_runs([1], [1], digest="e"), METRICS)["digests_equal"] == [False]


def test_metric_verdicts():
    def verdict(parent, change):
        entry = bench_pairs.summarize(_runs(parent, change), METRICS)
        return entry["metrics"]["items_per_s"]["verdict"]

    # every change run beats every parent run
    assert verdict([100, 110, 105, 95, 102], [111, 115, 120, 112, 118]) == "better"
    # a parent spread wider than the bound cannot tell the medians apart
    assert verdict([60, 100, 140, 80, 120], [100, 100, 100, 100, 100]) == "unresolved"
    # a tight parent, and a change median inside or outside the bound
    assert verdict([100, 101, 99, 100, 100], [90, 101, 95, 92, 98]) == "within"
    assert verdict([100, 101, 99, 100, 100], [70, 72, 71, 101, 69]) == "worse"
    # lower is better for wall_s: the change's 1.0 s beats every 2.0 s run
    assert bench_pairs.summarize(_runs([1], [1]), METRICS)["metrics"]["wall_s"]["verdict"] == "better"


def test_claim_verdict():
    def verdict(parent, change):
        entry = bench_pairs.summarize(_runs(parent, change), METRICS)
        return bench_pairs.claim_verdict(entry, "cutelim", "items_per_s", True)

    won = verdict([100 + i for i in range(10)], [130 + i for i in range(10)])
    assert won["met"] and won["change_wins"] == 10 and won["seeds"] == "600-609"
    # nine wins of ten still meet the rule
    assert verdict([100] * 9 + [200], [130] * 10)["met"]
    # eight wins do not
    assert not verdict([100] * 8 + [200] * 2, [130] * 10)["met"]
    # a median gap within the parent's interquartile range does not
    assert not verdict([80, 120] * 5, [121, 122] * 5)["met"]


def test_parse_claim():
    assert bench_pairs.parse_claim("cutelim:items_per_s", ["cutelim"], METRICS) == (
        "cutelim", "items_per_s", True,
    )
    assert bench_pairs.parse_claim("tower:wall_s", ["oracle", "tower"], METRICS)[2] is False
    with pytest.raises(ValueError, match="workload"):
        bench_pairs.parse_claim("tower:wall_s", ["cutelim"], METRICS)
    with pytest.raises(ValueError, match="metric"):
        bench_pairs.parse_claim("cutelim:items", ["cutelim"], METRICS)


def _fake_checkouts(monkeypatch, tmp_path):
    def checkout(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
        return dest

    monkeypatch.setattr(bench_pairs, "checkout", checkout)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)


def _main(tmp_path, seeds, *extra):
    return bench_pairs.main([
        "--parent", "A", "--change", "B", "--name", "t", "--workloads", "cutelim",
        "--seeds", seeds, "--workdir", str(tmp_path / "w"), *extra,
    ])


def test_each_seed_prints_its_own_digest_equality(tmp_path, monkeypatch, capsys):
    # only the first pair's digests differ
    def run_once(tree, workload, seed, seconds):
        digest = "e" if tree.name == "change" and seed == 1 else "d"
        return _record(seed, 1.0, 100, digest=digest)

    _fake_checkouts(monkeypatch, tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert _main(tmp_path, "1-3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "cutelim seed 1: digests equal False",
        "cutelim seed 2: digests equal True",
        "cutelim seed 3: digests equal True",
    ]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["runs"]["final"]["workloads"]["cutelim"]["digests_equal"] == [False, True, True]


@pytest.mark.parametrize("claim", ["tower:wall_s", "cutelim:no_such_metric"])
def test_a_bad_claim_exits_2_before_any_run(tmp_path, monkeypatch, capsys, claim):
    def run_once(*args):
        raise AssertionError("a run started")

    _fake_checkouts(monkeypatch, tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as e:
        _main(tmp_path, "1-2", "--claim", claim)
    assert e.value.code == 2
    assert "claimed" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()
