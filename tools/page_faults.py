"""Count the minor page faults of one perfbench workload's batch rounds.

Run from the repository root:

    python3 tools/page_faults.py --workload heat_tgrid --seed 1 --rounds 5

It draws the workload's batch for the seed, runs one judged round as
perfbench's own loop starts (the judges' arrays set where malloc puts later
ones), then times and counts ``getrusage`` minor faults over each further
round, which runs the library calls only, as perfbench's later rounds do.
One line per round: the faults and the summed instance time.  A process whose
temporaries fall back to fresh pages on every call shows it here as
thousands of faults a round.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench runs BLAS


def main(argv=None) -> int:
    from perfbench.run import WORKLOAD_NAMES, attempt, run_rounds
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default="heat_tgrid")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]()
    w.generate(args.seed)
    tracer = Tracer(False)
    run_rounds(w, 0.0, tracer, None, 1)
    for r in range(args.rounds):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds = sum(attempt(w, w.prepare(i), tracer, False)[0] for i in range(w.batch))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(f"round {r}: {faults} minor faults, {seconds * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
