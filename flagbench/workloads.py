"""Op lists of the four workloads and the seeded inputs they read.

Imported by the benchmark's parent process, which stays small: a child's
max-RSS as ``wait4`` reports it never reads below the parent's own peak RSS
at spawn time.  So no numpy, hashlib or dataclasses here.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import namedtuple

# Each verify drift is diag(spectrum) under a random SO(d) conjugation.
VERIFY_SPECTRA = {
    "verify-d5-distinct": (4.0, 2.0, 0.0, -2.0, -4.0),
    "verify-d5-repeated": (2.0, 2.0, 0.0, -2.0, -2.0),
    "verify-d3": (2.0, 0.0, -2.0),
}
# Simulate systems: random traceless drift plus two random traceless
# controls, each of Frobenius norm 1, with the box [-1, 1]^2.
SIMULATE_DIMS = {"simulate-d5": 5, "simulate-d6": 6, "simulate-d3": 3}


# One CLI invocation, ``python -m flagctrl.cli <argv>``.  ``kind`` selects
# the output check: ``exact`` (analyze, cosets: recorded digest plus
# invariants), ``verify`` (summary consistency) or ``simulate`` (independent
# recomputation).  In ``argv``, ``{work}`` stands for the run's work
# directory and ``{seed:<system>}`` for that system's control sampling seed.
Op = namedtuple("Op", "id kind argv")


def _analyze(id_: str, typ: str, rank: int, theta: str, flagtype: str, fmt: str) -> Op:
    argv = ["analyze", "--type", typ, "--rank", str(rank)]
    if theta:
        argv += ["--theta", theta]
    if flagtype:
        argv += ["--flagtype", flagtype]
    return Op(id_, "exact", tuple(argv + ["--format", fmt]))


def _cosets(id_: str, typ: str, rank: int, left: str, right: str, fmt: str) -> Op:
    argv = ("cosets", "--type", typ, "--rank", str(rank), "--left", left, "--right", right)
    return Op(id_, "exact", argv + ("--format", fmt))


def _verify(system: str, T: int) -> Op:
    return Op(f"{system}-T{T}", "verify", ("verify", "--spec", f"{{work}}/{system}.json", "--T", str(T)))


def _simulate(system: str, T: int) -> Op:
    argv = ("simulate", "--spec", f"{{work}}/{system}.json", "--T", str(T), "--seed", f"{{seed:{system}}}")
    return Op(f"{system}-T{T}", "simulate", argv)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "records": (
        _analyze("analyze-D5-json", "D", 5, "", "", "json"),
        _analyze("analyze-F4-flag0-text", "F", 4, "", "0", "text"),
        _analyze("analyze-A5-text", "A", 5, "", "", "text"),
    ),
    "parabolic": (
        _analyze("analyze-D5-par1234-json", "D", 5, "1,2,3,4", "1,2,3,4", "json"),
        _cosets("cosets-D5-1234-0123-text", "D", 5, "1,2,3,4", "0,1,2,3", "text"),
        _cosets("cosets-F4-123-012-json", "F", 4, "1,2,3", "0,1,2", "json"),
    ),
    "verify": (
        _verify("verify-d5-distinct", 10),
        _verify("verify-d5-repeated", 10),
        _verify("verify-d3", 10),
    ),
    "simulate": (
        _simulate("simulate-d5", 50),
        _simulate("simulate-d6", 50),
    ),
}

# A tiny version of each workload: the op list of ``--smoke`` runs, and the
# probe every traced run ends with so that each traced stage has a call.
SMOKE: dict[str, tuple[Op, ...]] = {
    "records": (
        _analyze("analyze-A2-json", "A", 2, "", "", "json"),
        _analyze("analyze-B2-flag0-text", "B", 2, "", "0", "text"),
    ),
    "parabolic": (
        _analyze("analyze-B2-par0-json", "B", 2, "0", "0", "json"),
        _cosets("cosets-B2-0-1-text", "B", 2, "0", "1", "text"),
    ),
    "verify": (_verify("verify-d3", 1),),
    "simulate": (_simulate("simulate-d3", 1),),
}
PROBE: tuple[Op, ...] = tuple(op for ops in SMOKE.values() for op in ops)


def _random_rotation(rng: random.Random, d: int) -> list[list[float]]:
    """Orthonormal columns of a random orthogonal matrix, by Gram-Schmidt.

    The drift sum_k lambda_k q_k q_k^T does not see column signs, so the
    conjugation is by SO(d) whatever the determinant here.
    """
    cols: list[list[float]] = []
    while len(cols) < d:
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        for c in cols:
            p = sum(a * b for a, b in zip(v, c))
            v = [a - p * b for a, b in zip(v, c)]
        n = math.sqrt(sum(a * a for a in v))
        if n > 1e-3:
            cols.append([a / n for a in v])
    return cols


def _random_traceless(rng: random.Random, d: int) -> list[list[float]]:
    m = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)]
    mean = sum(m[i][i] for i in range(d)) / d
    for i in range(d):
        m[i][i] -= mean
    norm = math.sqrt(sum(v * v for row in m for v in row))
    return [[v / norm for v in row] for row in m]


def make_inputs(seed: int) -> tuple[dict[str, dict], dict[str, int]]:
    """System documents and control sampling seeds drawn from ``seed``."""
    rng = random.Random(seed)
    systems: dict[str, dict] = {}
    for name, spectrum in VERIFY_SPECTRA.items():
        d = len(spectrum)
        q = _random_rotation(rng, d)
        drift = [[sum(q[k][i] * spectrum[k] * q[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        systems[name] = {"dim": d, "drift": drift, "controls": [], "control_range": {"type": "box", "bounds": []}}
    seeds: dict[str, int] = {}
    for name, d in SIMULATE_DIMS.items():
        systems[name] = {
            "dim": d,
            "drift": _random_traceless(rng, d),
            "controls": [_random_traceless(rng, d), _random_traceless(rng, d)],
            "control_range": {"type": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        }
        seeds[name] = rng.randrange(2**31)
    return systems, seeds


def write_inputs(work: str, seed: int) -> dict[str, int]:
    """Write every system file into ``work``; return the control seeds."""
    systems, seeds = make_inputs(seed)
    for name, doc in systems.items():
        with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return seeds


def expand(op: Op, work: str, seeds: dict[str, int]) -> list[str]:
    """The op's argv with the work directory and control seeds filled in."""
    out = []
    for arg in op.argv:
        if arg.startswith("{seed:"):
            arg = str(seeds[arg[len("{seed:") : -1]])
        out.append(arg.replace("{work}", work))
    return out
