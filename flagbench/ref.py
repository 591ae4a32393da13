"""The reference job: fixed pure-Python work timed next to every op.

    python flagbench/ref.py

It builds the symmetric group S7 (5,040 permutations) by breadth-first
search over tuples, indexes it in a dict and sorts it, ROUNDS times: the
kind of work (tuples, dicts, sorting, interpreter overhead) that flagctrl's
exact side does.  run.py runs it as a child before each op and reports a
pass as a multiple of its wall time, so that a host that runs every process
slower for a while moves both and not their ratio.  It imports nothing
from flagctrl, so no change to the program changes it.  Exits 1 if the
group comes out wrong.
"""

from __future__ import annotations

import sys

N = 7
ORDER = 5040
ROUNDS = 10


def symmetric_group(n: int) -> dict[tuple[int, ...], int]:
    """Every permutation of range(n), numbered in breadth-first order from
    the identity under an n-cycle and a transposition."""
    gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
    seen = {tuple(range(n)): 0}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen[q] = len(seen)
                    nxt.append(q)
        frontier = nxt
    return seen


def main() -> int:
    for _ in range(ROUNDS):
        group = symmetric_group(N)
        ranked = sorted(group, key=lambda p: sum(i * v for i, v in enumerate(p)))
        if len(group) != ORDER or len(set(ranked)) != ORDER:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
