"""Command-line front end.

Every command emits a uniform report envelope (JSON or CSV) and exits with
0 (all checks passed), 1 (a check failed / nothing found), 2 (bad input)
or 3 (a numerical guard tripped).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .checks import CheckReport, sweep_mean_ineq, sweep_rsd
from .errors import (
    CayleyHeatError,
    DomainError,
    EnumerationBudgetError,
    NumericalConsistencyError,
)
from .groups import parse_group
from .heat import (
    CayleyWeights,
    default_t_grid,
    monotone_check_cayley,
    search_monotonicity_violations,
)
from . import selftest as selftest_mod

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_GUARD = 3


def _fmt(x) -> str:
    return f"{x:.17g}"


def _envelope(command: str, config: dict, reports: list[CheckReport], t0: float) -> dict:
    return {
        "command": command,
        "config": config,
        "reports": [r.to_dict() for r in reports],
        "timing_ms": int((time.monotonic() - t0) * 1000),
        "version": __version__,
    }


def _write_output(env: dict, fmt: str, path: str | None):
    if fmt == "json":
        text = json.dumps(env, indent=2, sort_keys=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "passed", "worst_margin", "witness", "count"])
        for r in env["reports"]:
            writer.writerow(
                [
                    r["name"],
                    r["passed"],
                    _fmt(r["worst_margin"]),
                    r["witness"],
                    r["count"],
                ]
            )
        text = buf.getvalue()
    else:
        raise DomainError(f"unknown output format {fmt!r}")
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _tol(args) -> float:
    env = os.environ.get("HEAT_TOL")
    if env is not None:
        return float(env)
    return args.tol


def _eps(args) -> float:
    env = os.environ.get("HEAT_EPS")
    if env is not None:
        return float(env)
    return getattr(args, "eps", 1e-12)


def _grid(args) -> np.ndarray:
    return default_t_grid(args.tmin, args.tmax, args.steps)


def cmd_selftest(args) -> int:
    failures = selftest_mod.run(verbose=True)
    if failures:
        print(f"FAILED: {failures[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_check_monotone(args) -> int:
    t0 = time.monotonic()
    try:
        with open(args.weights) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read weights JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.group is not None:
        spec = dict(spec, group=args.group)
    cw = CayleyWeights.from_dict(spec)
    report = monotone_check_cayley(cw, _grid(args), _tol(args))
    env = _envelope(
        "check-monotone",
        {
            "group": str(cw.group),
            "weights": args.weights,
            "tmin": args.tmin,
            "tmax": args.tmax,
            "steps": args.steps,
            "tolerance": _tol(args),
            "seed": args.seed,
        },
        [report],
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_pushforward(args) -> int:
    from .lattices import Lattice, LatticeHom, direct_sum, fiber_product, pushforward
    from .groups import convolve

    t0 = time.monotonic()
    G = parse_group(args.group)
    rng = np.random.default_rng(args.seed)
    reports = []
    eps = _eps(args)
    for trial in range(args.instances):
        h1 = _random_hom(G, rng, args.dim)
        h2 = _random_hom(G, rng, args.dim)
        chi1 = pushforward(h1, eps).chi
        chi2 = pushforward(h2, eps).chi
        conv = convolve(chi1, chi2)
        chi_ds = pushforward(direct_sum(h1, h2), eps).chi
        err_ds = float(np.max(np.abs(conv.values - chi_ds.values)))
        chi_fp = pushforward(fiber_product(h1, h2), eps).chi
        err_fp = float(np.max(np.abs(chi1.values * chi2.values - chi_fp.values)))
        reports.append(
            CheckReport(
                passed=err_ds < 1e-8 and err_fp < 1e-8,
                worst_margin=-max(err_ds, err_fp),
                witness=f"trial={trial}, direct_sum_err={err_ds:.3e}, fiber_err={err_fp:.3e}",
                count=2,
                name="pushforward_closure",
            )
        )
        scale = float(chi1.at_index(0)) ** 4
        reports.append(sweep_rsd(chi1, 1e-12 * scale))
        reports.append(sweep_mean_ineq(chi1, 1e-12 * float(chi1.at_index(0)) ** 2))
    env = _envelope(
        "pushforward",
        {
            "group": args.group,
            "dim": args.dim,
            "instances": args.instances,
            "epsilon": eps,
            "seed": args.seed,
        },
        reports,
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _random_hom(G, rng, max_dim: int):
    from .lattices import Lattice, LatticeHom

    d = int(rng.integers(1, max_dim + 1))
    while True:
        B = rng.uniform(-1.5, 1.5, size=(d, d))
        if d == 0 or np.linalg.svd(B, compute_uv=False)[-1] > 0.3:
            break
    images = tuple(G.from_index(int(rng.integers(G.order))) for _ in range(d))
    return LatticeHom(Lattice(B), G, images)


def cmd_rate_check(args) -> int:
    from .approx import convergence_check_lemma37, rate_check_lemma35

    t0 = time.monotonic()
    G = parse_group(args.group)
    g0 = G.from_index(args.g0)
    ns = tuple(int(n) for n in args.ns.split(","))
    if args.lemma == 35:
        rr = rate_check_lemma35(args.alpha, g0, G, ns, _eps(args))
    else:
        rr = convergence_check_lemma37(args.alpha, g0, G, ns, _eps(args))
    report = CheckReport(
        passed=rr.passed,
        worst_margin=rr.fitted_order,
        witness=f"errors={[f'{e:.6e}' for e in rr.errors]}",
        count=len(rr.ns),
        name=f"rate_lemma{args.lemma}",
    )
    env = _envelope(
        "rate-check",
        {
            "lemma": args.lemma,
            "alpha": args.alpha,
            "group": args.group,
            "g0": args.g0,
            "ns": list(ns),
            "seed": args.seed,
        },
        [report],
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_search_counterexample(args) -> int:
    t0 = time.monotonic()
    found = search_monotonicity_violations(
        args.n, args.trials, args.seed, tol=_tol(args)
    )
    reports = []
    for g, rep in found:
        reports.append(
            CheckReport(
                passed=True,
                worst_margin=rep.worst_margin,
                witness=f"{rep.witness}; W={json.dumps(g.W.tolist())}",
                count=rep.count,
                name="violation_found",
            )
        )
    if not reports:
        reports.append(
            CheckReport(
                passed=False,
                worst_margin=0.0,
                witness="none found within budget",
                count=args.trials,
                name="violation_found",
            )
        )
    env = _envelope(
        "search-counterexample",
        {"n": args.n, "trials": args.trials, "seed": args.seed, "tolerance": _tol(args)},
        reports,
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if reports[0].passed else EXIT_CHECK_FAILED


def cmd_h3(args) -> int:
    from .continuum import h3_reduced_check

    t0 = time.monotonic()
    ls, rs, violated = h3_reduced_check(args.d1, args.t)
    report = CheckReport(
        passed=violated,
        worst_margin=rs - ls,
        witness=f"violated={violated}, LS={_fmt(ls)}, RS={_fmt(rs)}",
        count=1,
        name="h3_violation_reproduced",
    )
    env = _envelope(
        "h3-violation",
        {"d1": args.d1, "t": args.t, "seed": args.seed},
        [report],
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if violated else EXIT_CHECK_FAILED


def cmd_h3_monotone(args) -> int:
    from .continuum import h3_monotone_check

    t0 = time.monotonic()
    report = h3_monotone_check(args.d, _grid(args))
    env = _envelope(
        "h3-monotone",
        {
            "d": args.d,
            "tmin": args.tmin,
            "tmax": args.tmax,
            "steps": args.steps,
            "seed": args.seed,
        },
        [report],
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sphere(args) -> int:
    from .continuum import (
        heat_lemma_check_sphere,
        random_sphere_point,
        symmetric_ineq_check_sphere,
    )

    if args.trials < 1:
        raise DomainError("--trials must be at least 1")
    t0 = time.monotonic()
    rng = np.random.default_rng(args.seed)
    t_values = (0.05, 0.2, 1.0, 5.0)
    worst = CheckReport(True, float("inf"), "", 0, "sphere_ineq")
    count = 0
    for i in range(args.trials):
        a, b, c = (random_sphere_point(rng) for _ in range(3))
        t = t_values[i % len(t_values)]
        r2 = symmetric_ineq_check_sphere(args.space, a, b, c, t, l_max=args.lmax)
        r3 = heat_lemma_check_sphere(args.space, a, b, c, t, l_max=args.lmax)
        count += 2
        for r in (r2, r3):
            if not r.passed or r.worst_margin < worst.worst_margin:
                worst = CheckReport(
                    r.passed and worst.passed, r.worst_margin, r.witness, 0, "sphere_ineq"
                )
    report = CheckReport(
        passed=worst.passed,
        worst_margin=worst.worst_margin,
        witness=worst.witness,
        count=count,
        name="sphere_ineq",
    )
    env = _envelope(
        "sphere-check",
        {
            "space": args.space,
            "trials": args.trials,
            "lmax": args.lmax,
            "seed": args.seed,
        },
        [report],
        t0,
    )
    _write_output(env, args.format, args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--eps", type=float, default=1e-12, help="pushforward tail epsilon")


def _add_grid(p: argparse.ArgumentParser):
    p.add_argument("--tmin", type=float, default=0.05)
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument("--steps", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleyheat",
        description="Heat kernels on Abelian Cayley graphs: checks and reproductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run the reduced invariant suite")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("check-monotone", help="heat-ratio monotonicity on a Cayley graph")
    p.add_argument("--group", default=None, help="override group spec, e.g. Z12")
    p.add_argument("--weights", required=True, help="weights JSON path")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_check_monotone)

    p = sub.add_parser("pushforward", help="pushforward closure and inequality sweeps")
    p.add_argument("--group", default="Z12")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--instances", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("rate-check", help="approximation-rate checks")
    p.add_argument("--lemma", type=int, choices=[35, 37], required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--group", default="Z12")
    p.add_argument("--g0", type=int, default=1)
    p.add_argument("--ns", default="16,32,64,128,256")
    _add_common(p)
    p.set_defaults(func=cmd_rate_check)

    p = sub.add_parser("search-counterexample", help="random search for non-Cayley violations")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=5000)
    _add_common(p)
    p.set_defaults(func=cmd_search_counterexample)

    p = sub.add_parser("h3-violation", help="hyperbolic reflection-inequality violation")
    p.add_argument("--d1", type=float, default=3.0)
    p.add_argument("--t", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_h3)

    p = sub.add_parser("h3-monotone", help="hyperbolic ratio monotonicity")
    p.add_argument("--d", type=float, default=2.0)
    _add_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_h3_monotone)

    p = sub.add_parser("sphere-check", help="sphere/projective-plane inequality sweep")
    p.add_argument("--space", choices=["S2", "RP2"], default="S2")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--lmax", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_sphere)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (NumericalConsistencyError, EnumerationBudgetError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_GUARD
    except CayleyHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
