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
