import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)


def fake_run(wall, rss, attempted=100, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}}}


SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "peak_rss_mb", "better": "lower"}]}


def test_seed_list():
    assert paired_bench.seed_list("7-10") == [7, 8, 9, 10]
    assert paired_bench.seed_list("7,9-10,3") == [7, 9, 10, 3]


def test_summary_counts_pairs_and_quartiles():
    runs = {"parent": [fake_run(w, 50) for w in (1.0, 2.0, 3.0, 4.0, 5.0)],
            "change": [fake_run(w, 51, attempted=120) for w in (0.5, 2.5, 2.0, 3.0, 4.0)]}
    entry = paired_bench.summarize(range(1, 6), runs, SPEC)
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 3.0}
    assert wall["change_better_pairs"] == "4/5"
    assert wall["parent_iqr"] == 2.0 and wall["ratio_of_medians"] == 0.8333
    assert entry["metrics"]["peak_rss_mb"]["change_better_pairs"] == "0/5"
    assert entry["attempted"] == {"parent": 500, "change": 600}
    assert entry["failed"] == {"parent": 0, "change": 0} and entry["all_correct"]
    assert "wall_s: 3 (2-4) -> 2.5 (2-3); 4/5" in paired_bench.report("closures", entry)


def test_block_keeps_the_rest_of_the_file(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"change": "x", "paired_bench": {"tables": 1}}))
    runs = {side: [fake_run(1.0, 50)] for side in ("parent", "change")}
    paired_bench.write_block(path, "closures", paired_bench.summarize([3], runs, SPEC), 20)
    data = json.loads(path.read_text())
    assert data["change"] == "x" and data["paired_bench"]["tables"] == 1
    assert data["paired_bench"]["closures"]["seeds"] == [3]
    assert "--seconds 20" in data["paired_bench"]["command"]


BOUNDED = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                          {"name": "peak_rss_mb", "better": "higher", "bound": 0.25}]}
PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]


def verdicts_of(change, parent=PARENT):
    runs = {"parent": [fake_run(w, w) for w in parent],
            "change": [fake_run(w, w) for w in change]}
    metrics = paired_bench.summarize(range(len(parent)), runs, BOUNDED)["metrics"]
    return metrics["wall_s"]["verdict"], metrics["peak_rss_mb"]["verdict"]


def test_verdicts():
    faster = [w * 0.8 for w in PARENT]
    # lower wall_s is a gain; lower peak_rss_mb, where higher is better,
    # is within the bound
    assert verdicts_of(faster) == ("gain", "level")
    assert verdicts_of([w * 1.3 for w in PARENT]) == ("regression", "gain")
    # 9 pairs in 10 still make a gain, 8 do not
    assert verdicts_of(faster[:9] + [1.5])[0] == "gain"
    assert verdicts_of(faster[:8] + [1.5, 1.5])[0] == "level"
    # a median gap no larger than the parent's IQR (0.0275) is level
    assert verdicts_of([w - 0.02 for w in PARENT]) == ("level", "level")
    # within the bound, but the parent's runs spread over more than it
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2]
    assert verdicts_of(list(wide), wide) == ("unresolved", "unresolved")
    # with no bound a metric is a gain or level
    runs = {"parent": [fake_run(w, 50) for w in PARENT],
            "change": [fake_run(w * 2, 50) for w in PARENT]}
    metrics = paired_bench.summarize(range(10), runs, SPEC)["metrics"]
    assert metrics["wall_s"]["verdict"] == "level"
    assert "ratio 2.0: level" in paired_bench.report("invariants", {
        "seeds": list(range(10)), "metrics": metrics,
        "attempted": {"parent": 1, "change": 1}, "failed": {"parent": 0, "change": 0}})


def test_a_failed_run_drops_its_seed_from_both_sides(monkeypatch, tmp_path, capsys):
    # seed 4 runs the change first, then the parent, which exits non-zero
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_bench(tree, workload, seed, seconds):
        if (tree, seed) == ("parent", 4):
            raise paired_bench.RunFailed("run.py exited with 2: no speed probe near "
                                         "a timed call")
        wall = seed / 10 if tree == "parent" else seed / 20
        return {**fake_run(wall, 50), "metrics": {m: {"value": wall} for m in metrics}}

    monkeypatch.setattr(paired_bench, "run_bench", fake_bench)
    monkeypatch.setattr(paired_bench, "extract_trees", lambda parent, tmp: (
        {"parent": parent, "change": "HEAD"}, {"parent": "parent", "change": "change"}))
    path = tmp_path / "BENCH.json"
    code = paired_bench.main(["--parent", "p0", "--workload", "closures",
                              "--seeds", "3-5", "--json", str(path)])
    assert code == 1
    out, err = capsys.readouterr()
    assert "seed 4 parent failed, seed dropped" in err and "no speed probe" in err
    assert "failed seeds, dropped from both sides: [4]" in out
    entry = json.loads(path.read_text())["paired_bench"]["closures"]
    assert entry["seeds"] == [3, 5] and entry["failed_seeds"] == [4]
    assert entry["metrics"]["wall_s"]["per_seed"] == {"parent": [0.3, 0.5],
                                                      "change": [0.15, 0.25]}
