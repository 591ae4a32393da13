#!/usr/bin/env python3
"""Sweep every (theta, flag_type) pair for one Weyl group and tabulate the
chain control set classification.

Example:
    python3 scripts/run_classification.py --type A --rank 3
    python3 scripts/run_classification.py --type B --rank 2 --json out.json
"""

import argparse
import itertools
import json
import sys

from flagctrl.flagcalc import FlagSpec, classification_report, flag_dim
from flagctrl.rootsys import FAMILIES, build_root_system
from flagctrl.weyl import generate


def subsets(rank: int):
    for k in range(rank + 1):
        for combo in itertools.combinations(range(rank), k):
            yield frozenset(combo)


def fmt(s: frozenset) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--type", required=True, choices=sorted(FAMILIES))
    ap.add_argument("--rank", required=True, type=int)
    ap.add_argument("--order-cap", type=int)  # None: weyl.DEFAULT_ORDER_CAP
    ap.add_argument("--json", help="also dump every report to this file")
    args = ap.parse_args()

    try:
        rs = build_root_system(args.type, args.rank)
        group = generate(rs, order_cap=args.order_cap)
    except ValueError as exc:  # a bad type or an order past the cap, as in the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{rs.lie_type}: |W| = {group.order}, {len(rs.positive_roots)} positive roots")
    print(f"{'theta':<12}{'flagtype':<12}{'dim':>4}{'records':>8}{'hyperbolic':>11}")

    dumps = []
    for theta in subsets(rs.rank):
        dim = flag_dim(rs, theta)
        for ftype in subsets(rs.rank):
            report = classification_report(group, FlagSpec(theta=theta, flag_type=ftype))
            recs = report["records"]
            hyp = sum(1 for r in recs if r["hyperbolic"])
            print(f"{fmt(theta):<12}{fmt(ftype):<12}{dim:>4}{len(recs):>8}{hyp:>11}")
            if args.json:
                dumps.append(report)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh, indent=1, sort_keys=True)
        print(f"wrote {len(dumps)} reports to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
