"""Per-call costs of the library's functions on one perfbench workload.

Run from the repository root:

    python3 tools/call_costs.py --workload pair_sweep --seed 1 --rounds 15

It draws the workload's batch for the seed and runs one judged round as
perfbench's own loop starts, as ``tools/page_faults.py`` does.  Then it
profiles R further rounds of the timed instance calls, with the inputs
prepared outside the profile as perfbench prepares them outside its timer.
It prints one line per ``cayleyheat`` function: its calls over the R rounds,
and its self and cumulative microseconds per call.  The cumulative figure is
per outermost call, so a recursive function's nested calls are not counted
twice.  cProfile adds a fixed cost to every Python call it sees, so the
figures are for comparing one layout of the calls with another, not for
quoting as the library's speed; perfbench measures that.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench runs BLAS


def main(argv=None) -> int:
    import cayleyheat
    from perfbench.run import WORKLOAD_NAMES, attempt, run_rounds
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default="pair_sweep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]()
    w.generate(args.seed)
    tracer = Tracer(False)
    run_rounds(w, 0.0, tracer, None, 1)
    profile = cProfile.Profile()
    for _ in range(args.rounds):
        for i in range(w.batch):
            inputs = w.prepare(i)  # outside the profile, as outside perfbench's timer
            profile.enable()
            attempt(w, inputs, tracer, False)
            profile.disable()
    package = str(Path(cayleyheat.__file__).resolve().parent)
    rows = []
    for (path, line, func), (outer, calls, self_s, cum_s, _) in pstats.Stats(profile).stats.items():
        if str(Path(path).resolve().parent) == package:
            name = f"{Path(path).stem}.{func}:{line}"
            rows.append((cum_s, name, calls, self_s / calls * 1e6, cum_s / outer * 1e6))
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds of {w.batch} instances")
    print(f"{'function':<44} {'calls':>9} {'self us':>9} {'cum us':>9}")
    for _, name, calls, self_us, cum_us in sorted(rows, reverse=True):
        print(f"{name:<44} {calls:>9} {self_us:>9.2f} {cum_us:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
