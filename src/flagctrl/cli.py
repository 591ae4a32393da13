"""Command line front end.

Subcommands
-----------
analyze     exact classification of chain control sets on a flag manifold
cosets      double coset table of a Weyl group
verify      numerical checks of an SL(d) system against the classification
simulate    cocycle samples along a randomly controlled SL(d) trajectory

Exit codes: 0 success, 1 failed verification or internal inconsistency,
2 usage or input error.  Set FLAGCTRL_LOG=DEBUG (or any level name) for
progress logging on stderr.  analyze, cosets and simulate write
deterministic bytes to stdout for fixed arguments.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Sequence

from .flagcalc import (
    ConsistencyError,
    FlagSpec,
    classification_report,
    enumerate_chain_control_sets,
)
from .rootsys import FAMILIES, build_root_system
from .weyl import coset_table_json, generate

__all__ = ["main", "entrypoint"]

log = logging.getLogger("flagctrl")


def _indices(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}"
        ) from None


def _emit_json(doc: object) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _fmt_set(s: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagctrl",
        description="chain control sets of right-invariant systems on flag manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", required=True, choices=sorted(FAMILIES), help="Dynkin family")
        p.add_argument("--rank", required=True, type=int, help="rank of the family")
        p.add_argument(
            "--order-cap",
            type=int,
            default=None,
            help="abort enumeration beyond this Weyl group order",
        )

    p = sub.add_parser("analyze", help="classify chain control sets")
    add_type_args(p)
    p.add_argument("--theta", type=_indices, default=frozenset(), help="flag manifold type, e.g. 0,2")
    p.add_argument("--flagtype", type=_indices, default=frozenset(), help="system flag type, e.g. 1")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cosets", help="double coset table")
    add_type_args(p)
    p.add_argument("--left", type=_indices, default=frozenset(), help="left parabolic generators")
    p.add_argument("--right", type=_indices, default=frozenset(), help="right parabolic generators")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("verify", help="check an SL(d) system against the classification")
    p.add_argument("--spec", required=True, help="path to a control system JSON file")
    p.add_argument("--theta", type=_indices, default=frozenset(), help="flag manifold type")
    p.add_argument("--T", type=float, default=10.0, help="rate measurement horizon")
    p.add_argument("--tol", type=float, default=1e-6, help="determinant identity tolerance")
    p.add_argument("--rate-tol", type=float, default=0.01, help="exponent relative tolerance")
    p.add_argument("--gap-tol", type=float, default=1e-6, help="spectral gap resolution")
    p.add_argument("--order-cap", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="sample the cocycle along a random control")
    p.add_argument("--spec", required=True, help="path to a control system JSON file")
    p.add_argument("--T", type=float, default=10.0, help="simulation horizon")
    p.add_argument("--seed", type=int, default=0, help="control sampling seed")
    p.add_argument("--period", type=float, default=0.1, help="control hold period")
    p.add_argument("--sample-every", type=int, default=10, help="output stride in steps")
    p.set_defaults(func=cmd_simulate)

    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    rs = build_root_system(args.type, args.rank)
    group = generate(rs, order_cap=args.order_cap)
    log.debug("Weyl group of %s has order %d", rs.lie_type, group.order)
    spec = FlagSpec(theta=args.theta, flag_type=args.flagtype)
    spec.validate(rs)
    if args.format == "json":
        _emit_json(classification_report(group, spec))
        return 0
    records = enumerate_chain_control_sets(group, spec)
    out = [
        f"lie_type {rs.lie_type}",
        f"theta {_fmt_set(spec.theta)}",
        f"flag_type {_fmt_set(spec.flag_type)}",
        f"records {len(records)}",
    ]
    for rec in records:
        word = "(" + ",".join(str(i) for i in rec.rep.reduced_word) + ")"
        tags = []
        if rec.is_attractor:
            tags.append("attractor")
        if rec.is_repeller:
            tags.append("repeller")
        tag = (" [" + ",".join(tags) + "]") if tags else ""
        if rec.hyperbolic:
            plus = ",".join(str(v) for v in rec.sigma_plus)
            minus = ",".join(str(v) for v in rec.sigma_minus)
            sig = f"  sigma+ ({plus})  sigma- ({minus})"
            kind = "hyperbolic"
        else:
            sig = ""
            kind = "non-hyperbolic"
        out.append(
            f"rep {word}  s/c/u {rec.dim_stable}/{rec.dim_center}/{rec.dim_unstable}"
            f"  {kind}{sig}{tag}"
        )
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_cosets(args: argparse.Namespace) -> int:
    rs = build_root_system(args.type, args.rank)
    group = generate(rs, order_cap=args.order_cap)
    doc = coset_table_json(group, args.left, args.right)
    if args.format == "json":
        _emit_json(doc)
        return 0
    out = [
        f"lie_type {doc['lie_type']}  order {doc['order']}",
        f"left {_fmt_set(frozenset(doc['left']))}  right {_fmt_set(frozenset(doc['right']))}",
        f"cosets {len(doc['cosets'])}",
    ]
    for c in doc["cosets"]:
        word = "(" + ",".join(str(i) for i in c["rep_word"]) + ")"
        out.append(f"rep {word}  size {c['size']}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .sldr import (
        Drift,
        determinant_formula_residuals,
        fixed_flags,
        flag_act,
        flag_distance,
        load_system,
        type_a_system,
        verify_rates,
    )

    sysspec = load_system(args.spec)
    drift = Drift(sysspec.drift, gap_tol=args.gap_tol)
    sp = drift.split
    rs = type_a_system(drift.dim)
    group = generate(rs, order_cap=args.order_cap)
    fspec = FlagSpec(theta=args.theta, flag_type=sp.theta)
    fspec.validate(rs)
    records = enumerate_chain_control_sets(group, fspec)
    log.debug(
        "drift flow type %s, %d records on theta=%s",
        sorted(sp.theta),
        len(records),
        sorted(args.theta),
    )
    det_times = [t for t in (0.5, 1.0, 2.0) if t <= args.T + 1e-12]
    passed = failed = 0
    lines = []

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
        lines.append(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")

    psi_half = drift.expm(0.5)
    for rec in records:
        word = "(" + ",".join(str(i) for i in rec.rep.reduced_word) + ")"
        label = f"record {word}"
        try:
            xw = fixed_flags(drift, fspec.theta, rec.rep)
        except ValueError as exc:
            lines.append(f"{label}: skipped ({exc})")
            continue
        dist = flag_distance(flag_act(psi_half, xw), xw)
        check(label, dist <= 1e-9, f"fixed-flag drift {dist:.3e}")
        if rec.hyperbolic:
            for t in det_times:
                res_u, res_s = determinant_formula_residuals(drift, rs, fspec, rec, t)
                check(
                    label,
                    max(res_u, res_s) <= args.tol,
                    f"determinant identity t={t:g} residuals {res_u:.3e}/{res_s:.3e}",
                )
        else:
            lines.append(f"{label}: determinant identity skipped (non-hyperbolic)")
        report = verify_rates(drift, rs, fspec, rec, args.T, require_hyperbolic=False)
        check(
            label,
            report.max_exponent_rel_error <= args.rate_tol and report.mu_estimate > 0,
            f"exponent error {report.max_exponent_rel_error:.3e}, "
            f"mu {report.mu_estimate:.4f}",
        )
        if report.center_range is not None:
            lo, hi = report.center_range
            lines.append(f"{label}: center slope band [{lo:.3e}, {hi:.3e}]")
    lines.append(f"verify: {passed}/{passed + failed} checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .sldr import (
        Polytope,
        cocycle_sample,
        cocycle_to_csv,
        flag_type_diagnostic,
        load_system,
        random_signal,
        standard_flag,
    )

    sysspec = load_system(args.spec)
    if isinstance(sysspec.control_range, Polytope):
        raise ValueError("simulate draws from box control ranges only")
    rng = np.random.default_rng(args.seed)
    # a backward run starts its signal at T, so it covers [T, 0] like a forward one
    signal = random_signal(rng, sysspec.control_range, args.T, args.period, t0=min(args.T, 0.0))
    sample = cocycle_sample(
        sysspec,
        signal,
        args.T,
        standard_flag(sysspec.dim),
        sample_every=args.sample_every,
    )
    diag = flag_type_diagnostic([sample])
    info = {
        "T": args.T,
        "dim": sysspec.dim,
        "estimated_flag_type": diag["estimated_flag_type"],
        "n_rows": int(len(sample.times)),
        "period": args.period,
        "seed": args.seed,
        "slope_bands": [[lo, hi] for lo, hi in diag["slope_bands"]],
    }
    sys.stdout.write(cocycle_to_csv(sample))
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("FLAGCTRL_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
