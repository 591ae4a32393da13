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

Each run is a fresh process, so this module imports only what its command
runs: the exact modules (``rootsys``, ``weyl``, ``flagcalc``) in analyze,
cosets and verify, compiled before argparse loads; numpy with ``flows``
only in verify and simulate, verify's through ``sldr`` (with ``linalg``),
so that simulate compiles neither ``sldr`` nor an exact module; ``json``
only in simulate, for its stderr summary (analyze and cosets write their
JSON with ``%`` templates), and ``logging`` only when FLAGCTRL_LOG is set.
"""

from __future__ import annotations

import sys

if sys.argv[1:2] != ["simulate"]:
    # unless this process runs simulate, which never calls them, the exact modules
    # (flagcalc, with rootsys and weyl) compile first, while little else is live:
    # compiled after argparse loads, they raise a small exact run's peak memory
    from . import flagcalc  # noqa: F401

import argparse
import math
import os
from typing import Callable, Sequence

__all__ = ["main", "entrypoint"]

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")  # rootsys.FAMILIES, which simulate never loads


def _debug(msg: str, *args: object) -> None:
    # a debug line on the "flagctrl" logger; with logging never imported, no
    # handler can take it, so there is nothing to do
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("flagctrl").debug(msg, *args)


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


def _number(
    convert: Callable[[str], float], ok: Callable[[float], bool], what: str
) -> Callable[[str], float]:
    # an argparse type: ArgumentTypeError makes argparse exit 2 with usage
    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_finite = _number(float, math.isfinite, "a finite number")
_positive = _number(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
_nonnegative = _number(float, lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")
_positive_int = _number(int, lambda n: n > 0, "a positive integer")


def _ints(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


def _fmt_set(s: frozenset[int]) -> str:
    return "{%s}" % _ints(sorted(s))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagctrl",
        description="chain control sets of right-invariant systems on flag manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", required=True, choices=_FAMILIES, help="Dynkin family")
        p.add_argument("--rank", required=True, type=int, help="rank of the family")
        p.add_argument(
            "--order-cap",
            type=_positive_int,
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
    p.add_argument("--T", type=_finite, default=10.0, help="rate measurement horizon")
    p.add_argument("--tol", type=_nonnegative, default=1e-6, help="determinant identity tolerance")
    p.add_argument("--rate-tol", type=_nonnegative, default=0.01, help="exponent relative tolerance")
    p.add_argument("--gap-tol", type=_positive, default=1e-6, help="spectral gap resolution")
    p.add_argument("--order-cap", type=_positive_int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="sample the cocycle along a random control")
    p.add_argument("--spec", required=True, help="path to a control system JSON file")
    p.add_argument("--T", type=_finite, default=10.0, help="simulation horizon")
    p.add_argument("--seed", type=int, default=0, help="control sampling seed")
    p.add_argument("--period", type=_positive, default=0.1, help="control hold period")
    p.add_argument("--sample-every", type=int, default=10, help="output stride in steps")
    p.set_defaults(func=cmd_simulate)

    return parser


# an analyze record, and a cosets row in each format, as json.dumps(sort_keys=True,
# separators=(",", ":")) writes them: lists of ints, JSON booleans and null
_JSON_RECORD = (
    '{"attractor":%s,"c":%d,"coset_rep_word":[%s],"hyperbolic":%s,"repeller":%s,'
    '"s":%d,"sigma_minus":%s,"sigma_plus":%s,"u":%d}'
)
_JSON_BOOL = ("false", "true")
_COSET = {"json": '{"rep_word":[%s],"size":%d}', "text": "rep (%s)  size %d"}


def _json_ints(values: Sequence[int] | None) -> str:
    return "null" if values is None else "[%s]" % _ints(values)


def _json_record(rec) -> str:
    return _JSON_RECORD % (
        _JSON_BOOL[rec.is_attractor], rec.dim_center, _ints(rec.rep.reduced_word),
        _JSON_BOOL[rec.hyperbolic], _JSON_BOOL[rec.is_repeller], rec.dim_stable,
        _json_ints(rec.sigma_minus), _json_ints(rec.sigma_plus), rec.dim_unstable,
    )


def _text_record(rec) -> str:
    tags = []
    if rec.is_attractor:
        tags.append("attractor")
    if rec.is_repeller:
        tags.append("repeller")
    tag = (" [" + ",".join(tags) + "]") if tags else ""
    if rec.hyperbolic:
        sig = f"  sigma+ ({_ints(rec.sigma_plus)})  sigma- ({_ints(rec.sigma_minus)})"
        kind = "hyperbolic"
    else:
        sig = ""
        kind = "non-hyperbolic"
    return (
        f"rep ({_ints(rec.rep.reduced_word)})  s/c/u {rec.dim_stable}/{rec.dim_center}/"
        f"{rec.dim_unstable}  {kind}{sig}{tag}"
    )


def _analyze(group, spec, fmt: str) -> str:
    """analyze's stdout for ``spec`` on ``group`` in ``fmt``, "json" or "text": each
    record formatted as the walk, which first validates ``spec``, yields it, and the
    whole returned once the last record and the checks after it have passed."""
    from .flagcalc import _records

    out = [(_json_record if fmt == "json" else _text_record)(r) for r in _records(group, spec)]
    if fmt == "json":
        # lie_type is a family letter and a rank, which JSON quotes as they are
        return '{"flag_type":%s,"lie_type":"%s","records":[%s],"theta":%s}\n' % (
            _json_ints(sorted(spec.flag_type)), group.system.lie_type, ",".join(out),
            _json_ints(sorted(spec.theta)))
    head = [
        f"lie_type {group.system.lie_type}",
        f"theta {_fmt_set(spec.theta)}",
        f"flag_type {_fmt_set(spec.flag_type)}",
        f"records {len(out)}",
    ]
    return "\n".join(head + out) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    from .flagcalc import FlagSpec
    from .rootsys import build_root_system
    from .weyl import generate

    rs = build_root_system(args.type, args.rank)
    group = generate(rs, order_cap=args.order_cap)
    _debug("Weyl group of %s has order %d", rs.lie_type, group.order)
    sys.stdout.write(_analyze(group, FlagSpec(args.theta, args.flagtype), args.format))
    return 0


def cmd_cosets(args: argparse.Namespace) -> int:
    from .rootsys import build_root_system
    from .weyl import double_cosets, generate

    rs = build_root_system(args.type, args.rank)
    group = generate(rs, order_cap=args.order_cap)
    table = double_cosets(group, args.left, args.right)
    out = [_COSET[args.format] % (_ints(c.rep.reduced_word), c.size) for c in table]
    if args.format == "json":
        sys.stdout.write('{"cosets":[%s],"left":%s,"lie_type":"%s","order":%d,"right":%s}\n' % (
            ",".join(out), _json_ints(sorted(args.left)), rs.lie_type, group.order,
            _json_ints(sorted(args.right))))
        return 0
    head = [
        f"lie_type {rs.lie_type}  order {group.order}",
        f"left {_fmt_set(args.left)}  right {_fmt_set(args.right)}",
        f"cosets {len(out)}",
    ]
    sys.stdout.write("\n".join(head + out) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the exact modules, then sldr and flows, before numpy: each compiles from source
    # before numpy loads, so none raises the peak memory
    from .flagcalc import FlagSpec, enumerate_chain_control_sets
    from .weyl import generate
    from .sldr import Drift, check_records, load_system, type_a_system, value

    sysspec = load_system(args.spec)
    drift = Drift(sysspec.drift, gap_tol=args.gap_tol)
    sp = drift.split
    rs = type_a_system(drift.dim)
    group = generate(rs, order_cap=args.order_cap)
    fspec = FlagSpec(theta=args.theta, flag_type=sp.theta)
    fspec.validate(rs)
    records = enumerate_chain_control_sets(group, fspec)
    _debug(
        "drift flow type %s, %d records on theta=%s",
        sorted(sp.theta),
        len(records),
        sorted(args.theta),
    )
    det_times = [t for t in (0.5, 1.0, 2.0) if t <= args.T + 1e-12]
    lines, verdicts = [], []

    def check(label: str, ok: bool, detail: str) -> None:
        verdicts.append(ok)
        lines.append(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")

    # every record is checked before anything is written: the first error,
    # in record order, ends the command with stdout empty
    checked = check_records(drift, fspec, records, args.T, det_times)
    for rec, (skip, flag_drift, determinant, rates) in zip(records, checked):
        label = "record (" + ",".join(str(i) for i in rec.rep.reduced_word) + ")"
        if skip is not None:
            lines.append(f"{label}: skipped ({skip})")
            continue
        dist = value(flag_drift)
        check(label, dist <= 1e-9, f"fixed-flag drift {dist:.3e}")
        if rec.hyperbolic:
            for t, residuals in zip(det_times, determinant):
                res_u, res_s = value(residuals)
                detail = f"determinant identity t={t:g} residuals {res_u:.3e}/{res_s:.3e}"
                check(label, max(res_u, res_s) <= args.tol, detail)
        else:
            lines.append(f"{label}: determinant identity skipped (non-hyperbolic)")
        report = value(rates)
        ok = report.max_exponent_rel_error <= args.rate_tol and report.mu_estimate > 0
        detail = f"exponent error {report.max_exponent_rel_error:.3e}, mu {report.mu_estimate:.4f}"
        check(label, ok, detail)
        if report.center_range is not None:
            lo, hi = report.center_range
            lines.append(f"{label}: center slope band [{lo:.3e}, {hi:.3e}]")
    lines.append(f"verify: {sum(verdicts)}/{len(verdicts)} checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all(verdicts) else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    # the package's public names, each resolved from flows alone: flows compiles
    # from source before numpy loads, so it does not raise the peak memory
    from . import (
        Polytope,
        cocycle_sample,
        cocycle_to_csv,
        flag_type_diagnostic,
        load_system,
        random_signal,
        standard_flag,
    )

    import json

    import numpy as np

    sysspec = load_system(args.spec)
    if isinstance(sysspec.control_range, Polytope):
        raise ValueError("simulate draws from box control ranges only")
    # dt times a bound on |X_u|_F over the box: RK4 is the degree-4 Taylor polynomial of
    # exp(z), and at |z| <= 0.5 a rate read off its steps errs by under 1e-3 of itself
    dt, bounds = sysspec.integrator.dt, sysspec.control_range.bounds
    reach = float(np.linalg.norm(sysspec.drift)) + sum(
        max(-lo, hi) * float(np.linalg.norm(m)) for (lo, hi), m in zip(bounds, sysspec.controls)
    )
    if dt * reach > 0.5:
        raise ValueError(f"dt {dt:g} times the generator norm bound {reach:.4g} on the control "
                         "box exceeds 0.5: RK4 misreads the rates; lower dt")
    rng = np.random.default_rng(args.seed)
    signal = random_signal(rng, sysspec.control_range, args.T, args.period)
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
    cocycle_to_csv(sample, sys.stdout)
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("FLAGCTRL_LOG")
    if level:
        import logging

        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .flagcalc import ConsistencyError  # loaded by every command that raises one

        if not isinstance(exc, ConsistencyError):
            raise
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
