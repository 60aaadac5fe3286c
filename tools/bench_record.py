"""Write a BENCH_*.json perf record from perfbench result directories.

Run from the repository root, after running perfbench on two commits and
copying each commit's ``perfbench/results/`` files into its own directory:

    python3 tools/bench_record.py --parent PARENT_DIR --change CHANGE_DIR --out BENCH_N.json

For each workload the record holds the seeds, the parent's and the change's
median and quartiles of every end-to-end metric in ``BENCHMARK.json``, how
many pairs (same seed) the change won, and whether the per-instance answer
digests matched.  Where they did not, it also records how far the answers
moved: how many differ, the largest |change in worst margin| for each
answer name, and whether any verdict or witness changed.  Traced runs
(``--trace 1``) add their per-layer metrics, parent against change, by seed,
and the runs' machine descriptions are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _records(directory: Path, trace: int) -> dict:
    """(workload, seed) -> result record of the runs with this trace flag."""
    out = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        rec = json.loads(path.read_text())
        out[rec["workload"], rec["seed"]] = rec
    return out


def _answers(directory: Path, workload: str, seed: int) -> list:
    """Each instance's answers and failure fields in an untraced run; the
    timing is left out."""
    path = directory / f"{workload}-seed{seed}-trace0.digest.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [{k: v for k, v in row.items() if k != "best_ms"} for row in rows]


def _moved(parent_dir: Path, change_dir: Path, workload: str, seeds: list) -> dict:
    """How the change's answers (name, verdict, worst margin, witness) differ
    from the parent's, instance by instance; an answer only one side gave
    counts as differing."""
    differ, margin, verdict, witness = 0, {}, False, False
    for s in seeds:
        for p, c in zip(_answers(parent_dir, workload, s), _answers(change_dir, workload, s)):
            differ += abs(len(p["answers"]) - len(c["answers"]))
            for a, b in zip(p["answers"], c["answers"]):
                if a == b:
                    continue
                differ += 1
                margin[a[0]] = max(margin.get(a[0], 0.0), abs(b[2] - a[2]))
                verdict |= a[1] != b[1]
                witness |= a[3:] != b[3:]
    return {
        "answers_differ": differ,
        "max_abs_margin_change": margin,
        "verdict_changed": verdict,
        "witness_changed": witness,
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _metric(rec: dict, name: str) -> float:
    return rec["result"]["metrics"][name]["value"]


def build(parent_dir: Path, change_dir: Path) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _records(parent_dir, 0), _records(change_dir, 0)
    pairs = sorted(set(parent) & set(change))
    workloads = {}
    for name in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == name]
        runs = [(parent[name, s], change[name, s]) for s in seeds]
        metrics = {}
        for m in bench["end_to_end"]:
            p = [_metric(a, m["name"]) for a, _ in runs]
            c = [_metric(b, m["name"]) for _, b in runs]
            sign = 1.0 if m["better"] == "higher" else -1.0
            metrics[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent": _spread(p),
                "change": _spread(c),
                "change_won": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
            }
        match = all(_answers(parent_dir, name, s) == _answers(change_dir, name, s) for s in seeds)
        workloads[name] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "correct": all(r["result"]["correct"] for pair in runs for r in pair),
            "failed": {"parent": sum(a["result"]["failed"] for a, _ in runs),
                       "change": sum(b["result"]["failed"] for _, b in runs)},
            "digests_match": match,
            "metrics": metrics,
        }
        if not match:
            workloads[name]["answers_moved"] = _moved(parent_dir, change_dir, name, seeds)
    traced_p, traced_c = _records(parent_dir, 1), _records(change_dir, 1)
    traced = {}
    for w, s in sorted(set(traced_p) & set(traced_c)):
        mp = traced_p[w, s]["result"]["metrics"]
        mc = traced_c[w, s]["result"]["metrics"]
        traced.setdefault(w, {})[str(s)] = {
            k: {"parent": mp[k]["value"], "change": mc[k]["value"], "unit": mp[k]["unit"]}
            for k in mp
            if k in mc
        }
    machines = [rec["machine"] for rec in (*parent.values(), *change.values())]
    return {
        "run_seconds": bench["run_seconds"],
        # every run's machine, once each
        "machines": [m for i, m in enumerate(machines) if m not in machines[:i]],
        "workloads": workloads,
        "traced": traced,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent commit's result files")
    ap.add_argument("--change", type=Path, required=True, help="changed commit's result files")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    record = build(args.parent, args.change)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
