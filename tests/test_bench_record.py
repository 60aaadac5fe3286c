import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = ("instances_per_s", "instance_ms_p50", "instance_ms_p90", "peak_rss_mb", "setup_s")


def _write_run(directory, seed, rate, answer, trace=0):
    directory.mkdir(exist_ok=True)
    metrics = {m: {"value": rate if m == "instances_per_s" else 1.0, "unit": "x"} for m in METRICS}
    result = {"correct": True, "failed": 0, "metrics": metrics}
    rec = {"workload": "w", "seed": seed, "machine": {"nproc": 2}, "result": result}
    stem = directory / f"w-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(rec))
    row = {"i": 0, "error": None, "mismatch": None, "answers": [answer], "best_ms": rate}
    Path(f"{stem}.digest.jsonl").write_text(json.dumps(row) + "\n")


def test_summarises_pairs(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed, (rp, rc) in enumerate([(100, 300), (110, 290), (120, 100)]):
        _write_run(parent, seed, rp, ["a", True, -1.0])
        _write_run(change, seed, rc, ["a", True, -1.0])
    record = bench_record.build(parent, change)
    assert record["machines"] == [{"nproc": 2}]
    w = record["workloads"]["w"]
    rate = w["metrics"]["instances_per_s"]
    assert w["seeds"] == [0, 1, 2] and w["digests_match"]
    assert rate["change_won"] == 2
    assert rate["parent"]["median"] == 110 and rate["change"]["median"] == 290
    # a lower p50 wins; equal values win for neither side
    assert w["metrics"]["instance_ms_p50"]["change_won"] == 0


def test_digest_mismatch_ignores_timing(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    _write_run(parent, 0, 1.0, ["a", True, -1.0])
    _write_run(change, 0, 2.0, ["a", True, -1.0])
    w = bench_record.build(parent, change)["workloads"]["w"]
    assert w["digests_match"] and "answers_moved" not in w
    _write_run(change, 0, 2.0, ["a", True, -2.0])
    assert not bench_record.build(parent, change)["workloads"]["w"]["digests_match"]


def test_moved_answers_are_measured(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    _write_run(parent, 0, 1.0, ["a", True, -1.0, "g=(1)"])
    _write_run(change, 0, 1.0, ["a", True, -1.5, "g=(1)"])
    _write_run(parent, 1, 1.0, ["a", True, -1.0, "g=(1)"])
    _write_run(change, 1, 1.0, ["a", True, -1.0, "g=(1)"])
    w = bench_record.build(parent, change)["workloads"]["w"]
    assert not w["digests_match"]
    assert w["answers_moved"] == {
        "answers_differ": 1,
        "max_abs_margin_change": {"a": 0.5},
        "verdict_changed": False,
        "witness_changed": False,
    }
    _write_run(parent, 2, 1.0, ["b", True, 0.25, "v=(1)"])
    _write_run(change, 2, 1.0, ["b", False, -0.25, "v=(3)"])
    moved = bench_record.build(parent, change)["workloads"]["w"]["answers_moved"]
    assert moved["answers_differ"] == 2
    assert moved["max_abs_margin_change"] == {"a": 0.5, "b": 0.5}
    assert moved["verdict_changed"] and moved["witness_changed"]
