"""``tools/bench_pairs.py``'s summary on synthetic pairs: quartiles and the
gain rule (ten pairs or more, better in 9 of 10, median gap above the
parent's IQR).
No perfbench run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pairs(parent, change, key="wall_s"):
    return [{"workload": "w", "outputs_identical": True,
             "parent": {"failed": 0, "metrics": {key: b}},
             "change": {"failed": 0, "metrics": {key: a}}}
            for b, a in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def entry(parent, change, key="wall_s"):
    return bench_pairs.summary(pairs(parent, change, key), (key,))["w"][key]


class TestSummary:
    @pytest.fixture(autouse=True)
    def no_subprocess(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("summary started a subprocess")
        monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)

    def test_quartiles_of_each_side(self):
        e = entry([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 1.5, 2.0, 2.5])
        assert e["parent_quartiles"] == [2.0, 4.0]
        assert e["change_quartiles"] == [1.0, 2.0]
        assert e["parent_median"] == 3.0 and e["change_median"] == 1.5
        assert entry([2.0], [1.0])["parent_quartiles"] == [2.0, 2.0]

    def test_clear_gain_is_shown(self):
        e = entry(PARENT, [0.7 * x for x in PARENT])
        assert e["change_lower_in"] == 10 and e["gain_shown"]

    def test_nine_of_ten_is_enough_and_eight_is_not(self):
        change = [0.7 * x for x in PARENT]
        assert entry(PARENT, change[:9] + [1.5])["gain_shown"]
        assert not entry(PARENT, change[:8] + [1.5, 1.5])["gain_shown"]

    def test_fewer_than_ten_pairs_show_no_gain(self):
        assert not entry(PARENT[:9], [0.7 * x for x in PARENT[:9]])["gain_shown"]

    def test_ties_count_for_neither_side(self):
        change = [0.7 * x for x in PARENT]
        assert entry(PARENT, change[:9] + PARENT[9:])["gain_shown"]
        assert not entry(PARENT, change[:8] + PARENT[8:])["gain_shown"]

    def test_gap_within_the_parent_iqr_is_not_a_gain(self):
        # lower in every pair, but by less than the parent's spread
        e = entry(PARENT, [x - 0.005 for x in PARENT])
        q1, q3 = e["parent_quartiles"]
        assert e["change_lower_in"] == 10
        assert 0 < e["parent_median"] - e["change_median"] < q3 - q1
        assert not e["gain_shown"]

    def test_higher_is_better_metrics(self):
        key = "barriers.samples_per_s"
        assert bench_pairs.BETTER[key] == "higher"
        assert entry(PARENT, [1.4 * x for x in PARENT], key)["gain_shown"]
        assert not entry(PARENT, [0.7 * x for x in PARENT], key)["gain_shown"]


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_layers_are_declared_per_layer_metrics():
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(bench_pairs.LAYERS) <= names


def test_main_defaults_to_the_declared_workloads_and_metrics(tmp_path, monkeypatch):
    end_to_end = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    seen = []

    def fake_pair(dirs, workload, seed, seconds, trace, index):
        seen.append(workload)
        side = lambda: {"environment": {}, "failed": 0,
                        "metrics": {k: 1.0 for k in end_to_end}}
        return {"workload": workload, "outputs_identical": True,
                "parent": side(), "change": side()}

    monkeypatch.setattr(bench_pairs, "pair", fake_pair)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "a", "--change", "b", "--out", str(out),
                             "--seeds", "0"]) == 0
    assert seen == [w["name"] for w in BENCHMARK["workloads"]]
    summary = json.loads(out.read_text())["summary"]
    assert list(summary) == seen
    assert all(set(end_to_end) <= set(entry) for entry in summary.values())


@pytest.mark.parametrize("option, spec", [
    ("--trace-workloads", "verify-barriers-2d:0"),
    ("--trace-workloads", "verify-barriers-2d:3-1"),
    ("--workloads", "verify-barriers-2d:a-b"),
    ("--workloads", "no-such-workload"),
    ("--workloads", "compare-1d-long:-1-2"),
])
def test_a_bad_spec_exits_before_any_pair(monkeypatch, capsys, tmp_path, option, spec):
    ran = []
    monkeypatch.setattr(bench_pairs, "pair", lambda *args: ran.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "a", "--change", "b", "--out", str(out),
                          "--workloads", "compare-1d-long", option, spec])
    assert exc.value.code == 2 and spec in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_specs_name_a_workload_and_a_seed_range():
    assert bench_pairs.seeds_of("compare-1d-long", [0, 1]) == ("compare-1d-long", [0, 1])
    assert bench_pairs.seeds_of("compare-1d-long:2-4", [0]) == ("compare-1d-long", [2, 3, 4])
    assert bench_pairs.seeds_of("compare-1d-long:5-5", [0]) == ("compare-1d-long", [5])


def test_a_failed_run_keeps_the_finished_pairs(tmp_path, monkeypatch, capsys):
    end_to_end = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        if seed == 2:  # the third pair
            raise RuntimeError(f"{workload} seed {seed} exited 1: boom")
        return {"environment": {"python": "3"}, "failed": 0, "attempted": 5,
                "metrics": {k: 1.0 + seed for k in end_to_end}, "outputs": {"a": seed},
                "raw": {}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "a", "--change", "b", "--out", str(out),
                             "--workloads", "compare-1d-long:0-4"]) == 1
    assert [seed for _, seed in calls] == [0, 0, 1, 1, 2]
    record = json.loads(out.read_text())
    assert [p["seed"] for p in record["pairs"]] == [0, 1]
    assert all(p["outputs_identical"] for p in record["pairs"])
    assert record["summary"]["compare-1d-long"]["pairs"] == 2
    assert record["environment"] == {"parent": {"python": "3"}, "change": {"python": "3"}}
    assert "seed 2 exited 1: boom" in record["error"]
    assert "boom" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]  # no temp file left
