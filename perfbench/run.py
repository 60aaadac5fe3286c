"""Outside-in benchmark of the cayleyheat checker.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_closure --seed 1 --seconds 30 --trace 0

One process, one caller, a closed loop: each instance starts when the
previous one has been checked.  The workload's fixed batch of instances runs
in rounds, over and over, and each instance counts at its fastest attempt.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the rounds untraced for half the time and traced for
the other half, then the workload's defect probes, and reports the
per-layer metrics.  The
last line of standard output is the result object; the machine description
goes to standard error, and the full result, the per-instance answer digest
and (traced) the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import Tracer, percentile, samples_beyond, self_times  # noqa: E402

# The keys of workloads.WORKLOADS, repeated so that parsing the arguments
# imports nothing that set-up time should include.
WORKLOAD_NAMES = ("lattice_closure", "pair_sweep", "heat_tgrid", "continuum_series")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the matrices are small, and a second thread on a shared
# 2-core machine measures the scheduler more than the library.
MAX_BLAS_THREADS = 1
# Set-up is timed in this many fresh interpreters besides the measuring one;
# import time has no other way to be repeated.
SETUP_PROBES = 6
# Untraced runs time every instance at least this often and keep its
# fastest attempt, so a slow stretch of a shared machine that lasts a few
# seconds does not move the result.
MIN_ROUNDS = 3
MIN_INSTANCES = 100  # so the 90th percentile has ten samples beyond it
RESULTS = ROOT / "perfbench" / "results"

SELF_TIMED = (
    "lattices.pushforward",
    "lattices.fiber_product",
    "lattices.direct_sum",
    "checks.sweep_rsd",
    "checks.sweep_mean_ineq",
    "checks.check_convolve_even",
    "heat.monotone_check_cayley",
    "heat.monotone_violation_search",
    "groups.convolve",
    "groups.cexp_spectral",
    "groups.cexp_series",
    "continuum.sphere",
    "continuum.h3",
)
CALL_COUNTED = (
    "lattices.pushforward",
    "heat.monotone_check_cayley",
    "heat.monotone_violation_search",
    "groups.convolve",
    "groups.cexp_spectral",
    "groups.cexp_series",
    "continuum.sphere",
    "continuum.h3",
)
SPHERE_COSINES_PER_CALL = 5


def _load(workload: str, seed: int):
    """Import the library from this checkout and draw the inputs."""
    src = ROOT / "src"
    if not (src / "cayleyheat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cayleyheat sources under {src}")
    sys.path.insert(0, str(src))
    import cayleyheat

    if Path(cayleyheat.__file__).resolve().parent != src / "cayleyheat":
        sys.exit(f"perfbench: imported cayleyheat from {cayleyheat.__file__}, not {src}")
    from perfbench.workloads import WORKLOADS

    w = WORKLOADS[workload]()
    w.generate(seed)
    return w


@dataclass
class LoopResult:
    best_s: list  # per batch instance, its fastest attempt
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    errors: Counter = field(default_factory=Counter)
    failed_instances: set = field(default_factory=set)

    @property
    def rounds(self) -> float:
        return self.attempted / len(self.best_s)

    @property
    def passed(self) -> int:
        """Batch instances that passed on every attempt."""
        return len(self.best_s) - len(self.failed_instances)

    @property
    def instances_per_s(self) -> float:
        """Passed instances per second of one pass over the batch at each
        instance's fastest attempt."""
        return self.passed / sum(self.best_s)


def attempt(
    workload, inputs, tracer: Tracer, judge: bool = True
) -> tuple[float, str | None, str | None, list, str | None]:
    """One timed instance, judged after the timer stops unless ``judge`` is
    false.

    Returns (seconds, error type, error, answers, mismatch).  A raised
    exception (a refusal or a crash) or an answer that disagrees with the
    oracle fails the instance; neither stops the caller.
    """
    error = error_type = None
    t0 = perf_counter()
    try:
        with tracer.span("bench.instance"):
            out = workload.run(inputs, tracer)
    except Exception as exc:
        out = None
        error_type = type(exc).__name__
        error = f"{error_type}: {exc}"
    t1 = perf_counter()
    answers, mismatch = [], None
    if out is not None and judge:
        try:
            answers, mismatch = workload.judge(inputs, out)
        except Exception as exc:  # an answer the oracle cannot read is wrong
            mismatch = f"oracle raised {type(exc).__name__}: {exc}"
    return t1 - t0, error_type, error, answers, mismatch


def run_rounds(
    workload, seconds: float, tracer: Tracer, digest: list | None = None, min_rounds: int = 1
) -> LoopResult:
    """Run the batch's instances 0, 1, ..., batch - 1 over and over, back to
    back, until ``seconds`` have passed and ``min_rounds`` rounds are done.

    Each attempt prepares fresh library objects from the raw inputs.  The
    first round's answers are judged against the oracles; later rounds
    repeat the same deterministic calls and count only raised exceptions.
    The last round may stop part-way.  ``digest`` receives the first round's
    answers, one row per instance, with the instance's fastest time.
    """
    n = workload.batch
    res = LoopResult(best_s=[math.inf] * n)
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while k < min_rounds * n or perf_counter() < deadline:
        i = k % n
        inputs = workload.prepare(i)
        tracer.instance = i
        dt, error_type, error, answers, mismatch = attempt(workload, inputs, tracer, k < n)
        res.best_s[i] = min(res.best_s[i], dt)
        if error is not None:
            res.errors[error_type] += 1
        elif mismatch is not None:
            res.mismatched += 1
            res.errors["oracle mismatch"] += 1
        if error is not None or mismatch is not None:
            res.failed += 1
            res.failed_instances.add(i)
        if digest is not None and k < n:
            digest.append({"i": i, "error": error, "mismatch": mismatch, "answers": answers})
        k += 1
    res.attempted = k
    res.wall_s = perf_counter() - start
    if digest is not None:
        for row in digest:
            row["best_ms"] = res.best_s[row["i"]] * 1e3
    return res


def run_probes(workload, tracer: Tracer) -> list:
    """Run each defect probe once; one digest row per probe."""
    rows = []
    for j, inputs in enumerate(workload.probes() if hasattr(workload, "probes") else ()):
        tracer.instance = f"probe{j}"
        dt, _, error, answers, mismatch = attempt(workload, inputs, tracer)
        rows.append({"probe": j, "ms": dt * 1e3, "error": error, "mismatch": mismatch, "answers": answers})
    return rows


def _peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def end_to_end_metrics(res: LoopResult, setup_s: float) -> dict:
    ms = [t * 1e3 for t in res.best_s]
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (res.instances_per_s, "1/s"),
        "instance_ms_p50": (percentile(ms, 50), "ms"),
        "instance_ms_p90": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def layer_metrics(
    tracer: Tracer, traced: LoopResult, untraced: LoopResult, probes: Tracer
) -> dict:
    """Per-layer metrics from the traced rounds' spans, and refusal counts
    from the traced rounds plus the defect probes' spans."""
    st = self_times(tracer.spans)
    calls, self_s, max_s, errors = Counter(), defaultdict(float), defaultdict(float), Counter()
    covered = 0.0
    for s in tracer.spans:
        calls[s.name] += 1
        self_s[s.name] += st[s.id]
        max_s[s.name] = max(max_s[s.name], s.end - s.start)
        if s.error is not None:
            errors[s.name] += 1
        if s.name != "bench.instance":
            covered += st[s.id]
    for s in probes.spans:
        if s.error is not None:
            errors[s.name] += 1
    lattice_probes = {s.instance for s in probes.spans if s.name.startswith("lattices.")}
    c = tracer.counters
    m = {}
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["lattices.pushforward.max_ms"] = (max_s["lattices.pushforward"] * 1e3, "ms")
    refused = sum(errors[n] for n in ("lattices.pushforward", "lattices.fiber_product"))
    m["lattices.refused"] = (refused, "count")
    probe_refused = len({
        s.instance for s in probes.spans
        if s.name.startswith("lattices.") and s.error is not None
    })
    m["lattices.refused_frac"] = (
        probe_refused / len(lattice_probes) if lattice_probes else 0.0, "fraction"
    )
    pairs = c["checks.pairs"]
    sweep_s = self_s["checks.sweep_rsd"] + self_s["checks.sweep_mean_ineq"]
    m["checks.pairs"] = (pairs, "count")
    m["checks.ns_per_pair"] = (sweep_s / pairs * 1e9 if pairs else 0.0, "ns")
    searches = calls["heat.monotone_violation_search"]
    m["heat.cayley_t_points"] = (c["heat.cayley_t_points"], "count")
    m["heat.violations_found"] = (c["heat.violations_found"], "count")
    m["heat.find_ratio"] = (
        c["heat.violations_found"] / searches if searches else 0.0,
        "fraction",
    )
    m["continuum.series_points"] = (
        SPHERE_COSINES_PER_CALL * calls["continuum.sphere"],
        "count",
    )
    m["continuum.refused"] = (errors["continuum.sphere"] + errors["continuum.h3"], "count")
    m["bench.uncovered_s"] = (traced.wall_s - covered, "s")
    m["bench.trace_overhead_frac"] = (
        1.0 - traced.instances_per_s / untraced.instances_per_s
        if untraced.passed
        else 0.0,
        "fraction",
    )
    return m


def machine_info() -> dict:
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _probe_setup(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    threads = str(min(MAX_BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads

    if args.setup_probe:
        t0 = perf_counter()
        _load(args.workload, args.seed)
        print(perf_counter() - t0)
        return 0

    # setup_s is an end-to-end metric, so traced runs do not repeat set-up.
    setup_samples = [_probe_setup(args) for _ in range(0 if args.trace else SETUP_PROBES)]
    t0 = perf_counter()
    workload = _load(args.workload, args.seed)
    setup_samples.append(perf_counter() - t0)
    setup_s = statistics.median(setup_samples)

    machine = machine_info()
    print(json.dumps({"machine": machine}), file=sys.stderr)

    digest: list = []
    probe_rows: list = []
    if args.trace:
        untraced = run_rounds(workload, args.seconds / 2, Tracer(False))
        tracer = Tracer(True)
        traced = run_rounds(workload, args.seconds / 2, tracer, digest)
        probe_tracer = Tracer(True)
        probe_rows = run_probes(workload, probe_tracer)
        metrics = layer_metrics(tracer, traced, untraced, probe_tracer)
        loops = (untraced, traced)
    else:
        res = run_rounds(workload, args.seconds, Tracer(False), digest, MIN_ROUNDS)
        metrics = end_to_end_metrics(res, setup_s)
        loops = (res,)

    if workload.batch < MIN_INSTANCES:
        print(
            f"perfbench: warning: {workload.batch} instances, so the 90th "
            f"percentile has {samples_beyond(workload.batch, 90)} samples beyond it",
            file=sys.stderr,
        )
    result = {
        "correct": all(r.mismatched == 0 for r in loops)
        and all(row["mismatch"] is None for row in probe_rows),
        "attempted": sum(r.attempted for r in loops),
        "failed": sum(r.failed for r in loops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    errors = sum((r.errors for r in loops), Counter())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_samples_s": setup_samples,
        "batch": workload.batch,
        "rounds": [r.rounds for r in loops],
        "errors": dict(errors),
        "probes": [{k: row[k] for k in ("probe", "ms", "error", "mismatch")} for row in probe_rows],
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    _write_jsonl(RESULTS / f"{stem}.digest.jsonl", digest)
    if args.trace:
        _write_jsonl(RESULTS / f"{stem}.spans.jsonl", (s._asdict() for s in tracer.spans))

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
