#!/usr/bin/env python3
"""Numerical growth-rate experiment for one autonomous SL(d) generator.

Takes diagonal entries (or a random seed), classifies every chain control
set on the requested flag manifold, then measures cocycle slopes, subbundle
exponents and the Jacobian determinant identity against the exact
predictions.

Example:
    python3 scripts/rate_experiment.py --diag 2,0,-2 --theta 0 --T 20
    python3 scripts/rate_experiment.py --random-dim 4 --seed 3 --T 10
"""

import argparse
from dataclasses import dataclass

import numpy as np

from flagctrl.flagcalc import FlagSpec, enumerate_chain_control_sets
from flagctrl.sldr import (
    Drift,
    determinant_formula_residuals,
    fixed_flags,
    random_traceless,
    type_a_system,
    verify_rates,
)
from flagctrl.weyl import generate


@dataclass(frozen=True)
class ExperimentConfig:
    x: np.ndarray
    theta: frozenset[int]
    T: float
    det_times: tuple[float, ...] = (0.5, 1.0, 2.0)
    gap_tol: float = 1e-6


def parse_args() -> ExperimentConfig:
    ap = argparse.ArgumentParser(description=__doc__)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--diag", help="comma separated diagonal entries, zero sum")
    src.add_argument("--random-dim", type=int, help="draw a random traceless generator")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="norm of the random draw")
    ap.add_argument("--theta", default="", help="flag manifold type, e.g. 0,2")
    ap.add_argument("--T", type=float, default=20.0)
    ap.add_argument("--gap-tol", type=float, default=1e-6)
    args = ap.parse_args()

    if args.diag is not None:
        entries = [float(v) for v in args.diag.split(",")]
        entries = list(np.asarray(entries) - np.mean(entries))
        x = np.diag(entries)
    else:
        x = random_traceless(np.random.default_rng(args.seed), args.random_dim, args.scale)
    theta = frozenset(int(i) for i in args.theta.split(",") if i.strip())
    return ExperimentConfig(x=x, theta=theta, T=args.T, gap_tol=args.gap_tol)


def main() -> None:
    cfg = parse_args()
    drift = Drift(cfg.x, gap_tol=cfg.gap_tol)
    sp = drift.split
    d = drift.dim
    rs = type_a_system(d)
    group = generate(rs)
    spec = FlagSpec(theta=cfg.theta, flag_type=sp.theta)
    spec.validate(rs)
    print(f"SL({d}) generator, ordered real parts {np.round(sp.h, 6).tolist()}")
    print(f"flow type {sorted(sp.theta)}, flag theta {sorted(cfg.theta)}")

    records = enumerate_chain_control_sets(group, spec)
    print(f"{len(records)} chain control sets\n")
    for rec in records:
        word = "(" + ",".join(str(i) for i in rec.rep.reduced_word) + ")"
        print(f"record {word}  s/c/u {rec.dim_stable}/{rec.dim_center}/{rec.dim_unstable}"
              f"  {'hyperbolic' if rec.hyperbolic else 'non-hyperbolic'}")
        try:
            fixed_flags(drift, cfg.theta, rec.rep)
        except ValueError as exc:
            print(f"  skipped: {exc}\n")
            continue
        rep = verify_rates(drift, rs, spec, rec, cfg.T, require_hyperbolic=False)
        print(f"  stable    predicted {rep.stable_predicted}")
        print(f"            measured  {tuple(round(v, 9) for v in rep.stable_measured)}")
        print(f"  unstable  predicted {rep.unstable_predicted}")
        print(f"            measured  {tuple(round(v, 9) for v in rep.unstable_measured)}")
        if rep.center_range is not None:
            lo, hi = rep.center_range
            print(f"  center slope band [{lo:.3e}, {hi:.3e}]")
        print(f"  worst exponent rel error {rep.max_exponent_rel_error:.3e},"
              f" growth floor mu {rep.mu_estimate:.4f}")
        if rec.hyperbolic:
            worst = 0.0
            for t in cfg.det_times:
                ru, rs_def = determinant_formula_residuals(drift, rs, spec, rec, t)
                worst = max(worst, ru, rs_def)
            print(f"  determinant identity worst residual {worst:.3e}"
                  f" over t in {list(cfg.det_times)}")
        print()


if __name__ == "__main__":
    main()
