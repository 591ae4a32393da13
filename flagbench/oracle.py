"""Independent recomputation of ``flagctrl simulate`` output.

simulate integrates with fixed-step RK4 and one sign-fixed QR per step.
Here each control period is one ``scipy.linalg.expm`` of the held generator
and one sign-fixed QR, and the accumulated cocycle is compared with the CSV
at every period boundary.  The system is read from its JSON file here and
each generator is formed here.  Only the seeded control draw is shared with
the program (``sldr.random_signal`` over an ``sldr.Box``), so both sample
the same signal.

Used by the checker child (checks.py), never by the benchmark's parent.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

from checks import parse_csv
from flagctrl import sldr


def expected_cocycle(system_path: str, seed: int, T: float, period: float) -> np.ndarray:
    """Cocycle at the standard frame after each whole control period; row k
    is time k * period."""
    with open(system_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    d = int(doc["dim"])
    drift = np.array(doc["drift"], dtype=float).reshape(d, d)
    controls = [np.array(m, dtype=float).reshape(d, d) for m in doc["controls"]]
    box = sldr.Box(tuple(tuple(b) for b in doc["control_range"]["bounds"]))
    signal = sldr.random_signal(np.random.default_rng(seed), box, T, period)
    frame = np.eye(d)
    acc = np.zeros(d)
    out = [acc]
    for u in signal.values[: int(round(T / period))]:
        generator = drift + sum(uj * m for uj, m in zip(u, controls))
        q, r = np.linalg.qr(scipy.linalg.expm(period * generator) @ frame)
        signs = np.where(np.diag(r) < 0, -1.0, 1.0)
        frame = q * signs
        acc = acc + np.log(np.diag(r) * signs)
        out.append(acc)
    return np.vstack(out)


def compare(rows: list[list[float]], expected: np.ndarray, period: float) -> dict:
    """Largest difference at CSV rows that fall on a period boundary."""
    err = 0.0
    boundaries = 0
    for row in rows:
        k = round(row[0] / period)
        if abs(row[0] - k * period) > 1e-9 or not 0 <= k < len(expected):
            continue
        boundaries += 1
        err = max(err, float(np.max(np.abs(np.asarray(row[1:]) - expected[k]))))
    return {"max_abs_err": err, "boundaries": boundaries}


def check(csv_text: str, system_path: str, seed: int, T: float, period: float) -> dict:
    try:
        _, rows = parse_csv(csv_text)
        expected = expected_cocycle(system_path, seed, T, period)
    except (OSError, KeyError, ValueError) as exc:
        return {"error": str(exc)}
    return compare(rows, expected, period)
