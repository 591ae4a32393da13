"""Dense matrix functions for the numeric checks, in numpy alone: the
exponential, and singular values to high relative accuracy on graded
matrices, where numpy's bidiagonalizing SVD loses the small ones.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["expm", "singular_values"]

_MAX_SWEEPS = 60
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps
# a column whose norm falls below this is noise left by a rank deficiency and
# stops rotating, which keeps every rotating pair's d_q / d_p in double range
_SMALL = _TINY / _EPS


@lru_cache(maxsize=None)
def _rounds(k: int) -> list:
    # the round-robin schedule of k columns, k even: k - 1 rounds of k / 2 disjoint pairs (p, q)
    orders = [np.r_[0, np.roll(np.arange(1, k), r)] for r in range(k - 1)]
    return [(order[: k // 2], order[::-1][: k // 2]) for order in orders]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a square matrix or of each in a stack.

    Rows are sorted by max-norm and columns by 2-norm, and one-sided Jacobi
    runs on the columns of R^T from the QR (Demmel and Veselic, SIAM J.
    Matrix Anal. Appl. 13, 1992), one round-robin round of disjoint column
    pairs per vectorized step.  Raises ``ValueError`` when the rotations do
    not settle within ``_MAX_SWEEPS`` sweeps.
    """
    m = np.asarray(m, dtype=float)
    scale = np.abs(m).max(axis=(-2, -1), keepdims=True)
    m = m / np.where(scale > 0, scale, 1.0)
    m = np.take_along_axis(m, np.argsort(-np.abs(m).max(-1), kind="stable")[..., :, None], -2)
    m = np.take_along_axis(m, np.argsort(-(m * m).sum(-2), kind="stable")[..., None, :], -1)
    n = m.shape[-1]
    k = n + n % 2  # an odd size gets a zero column, which never rotates
    y = np.zeros(m.shape[:-1] + (k,))
    y[..., :n] = np.swapaxes(np.linalg.qr(m, mode="r"), -1, -2)
    # column p of R^T is d_p y_p with |y_p| = 1 when it rotates, so no
    # squared norm under- or overflows however far the d_p spread; a zero
    # column keeps scale 1
    d = np.abs(y).max(axis=-2, keepdims=True)
    d = np.where(d > 0, d, 1.0)
    y /= d
    rounds, tol = _rounds(k), n * _EPS
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q in rounds:
            yp, yq = y[..., p], y[..., q]
            lp = np.sqrt((yp * yp).sum(-2, keepdims=True))
            lq = np.sqrt((yq * yq).sum(-2, keepdims=True))
            cos = (yp * yq).sum(-2, keepdims=True) / np.maximum(lp * lq, _TINY)
            dp, dq = d[..., p] * lp, d[..., q] * lq  # the column norms
            rot = np.abs(cos) > tol
            rot &= np.minimum(dp, dq) > _SMALL
            if not rot.any():
                continue
            rotated = True
            # a pair that does not rotate keeps its bits, also in a stack,
            # and its rho is 1, so no scale ratio overflows into 0 * inf
            lp, lq = np.where(rot, lp, 1.0), np.where(rot, lq, 1.0)
            yp, yq = yp / lp, yq / lq
            d[..., p], d[..., q] = d[..., p] * lp, d[..., q] * lq
            rho = np.where(rot, dq, 1.0) / np.where(rot, dp, 1.0)
            zeta = (rho - 1.0 / rho) / (2.0 * np.where(rot, cos, 1.0))
            t = np.where(rot, np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            y[..., p], y[..., q] = c * yp - c * t * rho * yq, c * t / rho * yp + c * yq
        if not rotated:
            sv = d[..., 0, :n] * np.sqrt((y[..., :n] * y[..., :n]).sum(-2))
            return np.sort(sv, axis=-1)[..., ::-1] * scale[..., 0]
    raise ValueError(f"Jacobi SVD did not converge in {_MAX_SWEEPS} sweeps")


_PADE13 = tuple(float(math.comb(26 - j, 13) * math.perm(13, 13 - j)) for j in range(14))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade [13/13], b_j = (26 - j)! / (j! (13 - j)!), with scaling
    and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): a is halved s
    times, to 1-norm at most 5.37, and the approximant squared s times."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm > 0 else 0
    a, b, i = a / 2.0**s, _PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u = a @ (u + b[1] * i)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * i
    return np.linalg.matrix_power(np.linalg.solve(v - u, v + u), 2**s)
