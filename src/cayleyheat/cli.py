"""Command-line front end.

Each command is one entry of COMMANDS: a plain function whose parameters are
exactly the command's flags and which returns a list of CheckReport. The
runner, main(), parses the flags, runs the function and writes the report
envelope (JSON or CSV). Exit codes: 0 every check passed, 1 a check failed
(or a search found nothing), 2 bad input, 3 a numerical guard refused to
certify the result, 4 an internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import selftest as selftest_mod
from .approx import convergence_check_lemma37, rate_check_lemma35
from .checks import CheckReport, sweep_mean_ineq, sweep_rsd
from .continuum import (
    h3_monotone_check,
    h3_reduced_log,
    heat_lemma_check_sphere,
    random_sphere_point,
    symmetric_ineq_check_sphere,
)
from .errors import DivergenceError, DomainError, EnumerationBudgetError, NumericalConsistencyError
from .groups import parse_group
from .heat import (
    CayleyWeights,
    default_t_grid,
    monotone_check_cayley,
    search_monotonicity_violations,
)
from .lattices import pushforward_closure, random_hom

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_GUARD = 3
EXIT_INTERNAL_ERROR = 4

# A numerical guard refused to certify the result (exit 3).
GUARD_ERRORS = (NumericalConsistencyError, EnumerationBudgetError, DivergenceError, OverflowError)

SPHERE_T_VALUES = (0.05, 0.2, 1.0, 5.0)

# Largest pushforward --dim.  With --group Z12 (the default) and seeds 0-19,
# every run answered at --dim 1-5 (the slowest in 1.3 s, peak RSS 0.43 GB,
# on a 2-core VM); at --dim 6 one seed in 20 and at --dim 7 three were
# refused (exit 3), runs took up to 5.6 s and 1.5 GB, and at --dim 8 two of
# three.  The cost comes from the fiber product, whose raw basis sets the
# enumeration radius.
MAX_DIM = 5
# Largest search-counterexample --n, the vertex count of the random graphs:
# one trial at n = 1024 took 3.0 s and 131 MB peak RSS (same VM); its cost
# grows as n^3 and its memory as n^2.
MAX_GRAPH_N = 1024
# Largest pushforward --instances.  Each instance costs 0.77-0.81 ms at the
# defaults (Z12, --dim 2; timing_ms of 1 000 instances, three runs on a
# 2-vCPU VM), 0.45-0.5 s on a group of order 4096 (Z4096 and Z64xZ64, its
# two sweeps) and up to 0.72 s at --dim 5 (the slowest of the 100 instances
# of seeds 0-19), with 0.5 kB of output; memory does not grow with the
# count.  So 1 000 instances take under 1 s at the defaults and under a
# quarter of an hour at the worst.
MAX_INSTANCES = 1000
# Largest search-counterexample --trials.  A trial costs 0.23 ms at the
# default --n 8 (vertex counts 3-8), 2.2 ms at --n 64 and up to 3.0 s at
# --n 1024; memory does not grow with the count.  So 100 000 trials take
# about 23 s at the default --n.
MAX_TRIALS = 100_000
# Largest sphere-check --lmax.  A Legendre degree costs 3.6 us per series
# on a triple's five cosines when the series runs to l_max; at sphere-check's
# t (0.05 and up) it stops by degree 122 whatever l_max is, since the terms
# underflow.  So 10 000 bounds a series at 37 ms even where it would not
# stop.
MAX_LMAX = 10_000
# Largest sphere-check --trials.  A trial (two checks on one random triple,
# sharing one kernel evaluation) costs 0.09-0.12 ms at the default --lmax:
# 1 000 trials reported timing_ms 93-170 and 10 000 trials 867-1 151, on S2
# and RP2 (same VM), with peak RSS flat at 35 MB.  So 100 000 trials take
# about 12 s.
MAX_SPHERE_TRIALS = 100_000
# Largest check-monotone and h3-monotone --steps.  check-monotone on Z4096
# took 1.2-1.3 s at 10 000 steps and 7.0 s at 100 000, with peak RSS flat at
# 33 MB (same VM); h3-monotone's peak RSS grows with the grid, 54 MB at
# 10^6 steps and 193 MB at 10^7.
MAX_STEPS = 100_000


def _fmt(x) -> str:
    return f"{x:.17g}"


def _checked(convert, ok, expected: str) -> Callable[[str], object]:
    """An argparse type: convert the text, then refuse a value that is not ok.
    A refused value is a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _int_at_least(lo: int) -> Callable[[str], int]:
    return _checked(int, lambda v: v >= lo, f"an integer >= {lo}")


def _int_between(lo: int, hi: int) -> Callable[[str], int]:
    return _checked(int, lambda v: lo <= v <= hi, f"an integer from {lo} to {hi}")


FINITE = _checked(float, math.isfinite, "a finite number")
NS = _checked(
    lambda text: tuple(int(n) for n in text.split(",")),
    lambda ns: len(set(ns)) >= 2,
    "at least two distinct comma-separated integers",
)


def _cayley_weights(path: str, group: str | None) -> CayleyWeights:
    """The weights file at path, on group when one is given."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
        return CayleyWeights.from_dict(spec if group is None else dict(spec, group=group))
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed weights file {path}: {exc!r}") from None


def _resolve_group(config: dict) -> dict:
    """check-monotone reports the group it ran on: --group, else the file's."""
    return dict(config, group=str(_cayley_weights(config["weights"], config["group"]).group))


def _check_monotone(group, weights, tmin, tmax, steps, tolerance) -> list[CheckReport]:
    cw = _cayley_weights(weights, group)
    return [monotone_check_cayley(cw, default_t_grid(tmin, tmax, steps), tolerance)]


def _pushforward(group, dim, instances, epsilon, seed) -> list[CheckReport]:
    G = parse_group(group)
    rng = np.random.default_rng(seed)
    reports = []
    for trial in range(instances):
        c = pushforward_closure(random_hom(G, rng, dim), random_hom(G, rng, dim), epsilon)
        reports.append(
            CheckReport(
                passed=c.passed,
                worst_margin=-max(c.direct_sum_err, c.fiber_err),
                witness=f"trial={trial}, direct_sum_err={c.direct_sum_err:.3e}, "
                f"fiber_err={c.fiber_err:.3e}",
                count=2,
                name="pushforward_closure",
            )
        )
        center = float(c.chi1.at_index(0))
        reports.append(sweep_rsd(c.chi1, 1e-12 * center**4))
        reports.append(sweep_mean_ineq(c.chi1, 1e-12 * center**2))
    return reports


def _rate_check(lemma, alpha, group, g0, ns, epsilon) -> list[CheckReport]:
    G = parse_group(group)
    if not 0 <= g0 < G.order:
        raise DomainError(f"--g0 must index an element of {G}, got {g0}")
    check = rate_check_lemma35 if lemma == 35 else convergence_check_lemma37
    rr = check(alpha, G.from_index(g0), ns, epsilon)
    return [
        CheckReport(
            passed=rr.passed,
            worst_margin=rr.fitted_order,
            witness=f"errors={[f'{e:.6e}' for e in rr.errors]}",
            count=len(rr.ns),
            name=f"rate_lemma{lemma}",
        )
    ]


def _search_counterexample(n, trials, seed, tolerance) -> list[CheckReport]:
    found = search_monotonicity_violations(n, trials, seed, tol=tolerance)
    reports = [
        CheckReport(
            passed=True,
            worst_margin=rep.worst_margin,
            witness=f"{rep.witness}; W={json.dumps(g.W.tolist())}",
            count=rep.count,
            name="violation_found",
        )
        for g, rep in found
    ]
    return reports or [
        CheckReport(False, 0.0, "none found within budget", trials, "violation_found")
    ]


def _h3_violation(d1, t) -> list[CheckReport]:
    """The reduced reflection inequality from one h3_reduced_log call:
    violated is log LS > log RS, as in h3_reduced_check.  The sides are
    reported as logs: at t = 1, RS underflows to 0 from d1 = 27.  No
    unreduced route runs per call; the tests compare it with the reduced
    gap, and selftest runs both triple checks on h3_abc(3)."""
    log_ls, log_rs = h3_reduced_log(d1, t)
    violated = log_ls > log_rs
    return [
        CheckReport(
            passed=violated,
            worst_margin=log_rs - log_ls,
            witness=f"violated={violated}, log LS={_fmt(log_ls)}, log RS={_fmt(log_rs)}",
            count=1,
            name="h3_violation_reproduced",
        )
    ]


def _h3_monotone(d, tmin, tmax, steps) -> list[CheckReport]:
    return [h3_monotone_check(d, default_t_grid(tmin, tmax, steps))]


def _sphere_check(space, trials, lmax, seed) -> list[CheckReport]:
    """Both sphere checks on random triples, one report per check.  Each
    keeps the last trial that failed or set a new lowest margin, and its
    witness starts with that trial's index, so the trial can be replayed
    from the seed."""
    rng = np.random.default_rng(seed)
    worst: dict[str, CheckReport] = {}
    for i in range(trials):
        a, b, c = (random_sphere_point(rng) for _ in range(3))
        t = SPHERE_T_VALUES[i % len(SPHERE_T_VALUES)]
        for check in (symmetric_ineq_check_sphere, heat_lemma_check_sphere):
            r = check(space, a, b, c, t, l_max=lmax)
            w = worst.get(r.name)
            if w is None or not r.passed or r.worst_margin < w.worst_margin:
                passed = r.passed and (w is None or w.passed)
                witness = f"trial={i}, {r.witness}"
                worst[r.name] = CheckReport(passed, r.worst_margin, witness, trials, r.name)
    return list(worst.values())


SEED = {"--seed": dict(type=_int_at_least(0), default=0)}
TOL = {"--tol": dict(dest="tolerance", metavar="TOL", type=FINITE, default=1e-10,
                     help="check tolerance (default: HEAT_TOL, else 1e-10)")}
EPS = {"--eps": dict(dest="epsilon", metavar="EPS", type=FINITE, default=1e-12,
                     help="pushforward tail epsilon (default: HEAT_EPS, else 1e-12)")}
GRID = {
    "--tmin": dict(type=FINITE, default=0.05),
    "--tmax": dict(type=FINITE, default=50.0),
    "--steps": dict(type=_int_between(2, MAX_STEPS), default=20),
}

# Environment variables that set a flag's default; the flag itself wins.
ENV_DEFAULTS = {"--tol": "HEAT_TOL", "--eps": "HEAT_EPS"}


class Command(NamedTuple):
    run: Callable[..., list[CheckReport]]
    help: str
    flags: dict[str, dict]  # flag -> add_argument keywords
    # maps the parsed flags to the envelope's config, when they differ
    resolve: Callable[[dict], dict] | None = None


COMMANDS = {
    "selftest": Command(selftest_mod.run, "run the reduced invariant suite", {}),
    "check-monotone": Command(
        _check_monotone,
        "heat-ratio monotonicity on a Cayley graph",
        {
            "--group": dict(default=None, help="override group spec, e.g. Z12"),
            "--weights": dict(required=True, help="weights JSON path"),
            **GRID,
            **TOL,
        },
        resolve=_resolve_group,
    ),
    "pushforward": Command(
        _pushforward,
        "pushforward closure and inequality sweeps",
        {
            "--group": dict(default="Z12"),
            "--dim": dict(type=_int_between(1, MAX_DIM), default=2),
            "--instances": dict(type=_int_between(1, MAX_INSTANCES), default=5),
            **EPS,
            **SEED,
        },
    ),
    "rate-check": Command(
        _rate_check,
        "approximation-rate checks",
        {
            "--lemma": dict(type=int, choices=[35, 37], required=True),
            "--alpha": dict(type=FINITE, default=1.0),
            "--group": dict(default="Z12"),
            "--g0": dict(type=int, default=1),
            "--ns": dict(type=NS, default="16,32,64,128,256"),
            **EPS,
        },
    ),
    "search-counterexample": Command(
        _search_counterexample,
        "random search for non-Cayley violations",
        {
            "--n": dict(type=_int_between(3, MAX_GRAPH_N), default=8),
            "--trials": dict(type=_int_between(0, MAX_TRIALS), default=5000),
            **SEED,
            **TOL,
        },
    ),
    "h3-violation": Command(
        _h3_violation,
        "hyperbolic reflection-inequality violation",
        {"--d1": dict(type=FINITE, default=3.0), "--t": dict(type=FINITE, default=1.0)},
    ),
    "h3-monotone": Command(
        _h3_monotone,
        "hyperbolic ratio monotonicity",
        {"--d": dict(type=FINITE, default=2.0), **GRID},
    ),
    "sphere-check": Command(
        _sphere_check,
        "sphere/projective-plane inequality sweep",
        {
            "--space": dict(choices=["S2", "RP2"], default="S2"),
            "--trials": dict(type=_int_between(1, MAX_SPHERE_TRIALS), default=100),
            "--lmax": dict(type=_int_between(1, MAX_LMAX), default=200),
            **SEED,
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleyheat",
        description="Heat kernels on Abelian Cayley graphs: checks and reproductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag, kwargs in cmd.flags.items():
            if flag in ENV_DEFAULTS and ENV_DEFAULTS[flag] in os.environ:
                # argparse converts a string default with the flag's type
                kwargs = dict(kwargs, default=os.environ[ENV_DEFAULTS[flag]])
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
    return parser


def _render(env: dict, fmt: str) -> str:
    # the strict JSON dump is also the finiteness check for CSV output
    try:
        text = json.dumps(env, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalConsistencyError("a reported value is not finite") from None
    if fmt == "json":
        return text
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "passed", "worst_margin", "witness", "count"])
    for r in env["reports"]:
        writer.writerow([r["name"], r["passed"], _fmt(r["worst_margin"]), r["witness"], r["count"]])
    return buf.getvalue()


def _fail(code: int, label: str, message) -> int:
    print(f"{label}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command; returns the exit code and never raises."""
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    name, fmt, path = args.pop("command"), args.pop("format"), args.pop("output")
    cmd = COMMANDS[name]
    t0 = time.monotonic()
    try:
        config = cmd.resolve(args) if cmd.resolve else args
        reports = cmd.run(**args)
        env = {
            "command": name,
            "config": config,
            "reports": [r.to_dict() for r in reports],
            "timing_ms": int((time.monotonic() - t0) * 1000),
            "version": __version__,
        }
        text = _render(env, fmt)
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except (DomainError, OSError) as exc:
        return _fail(EXIT_INPUT_ERROR, "input error", exc)
    except GUARD_ERRORS as exc:
        return _fail(EXIT_NUMERICAL_GUARD, "numerical guard", exc)
    except Exception as exc:
        return _fail(EXIT_INTERNAL_ERROR, "internal error", repr(exc))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
