"""Numerical realization on SL(d, R): Iwasawa factors and cocycles, fixed
flags of autonomous generators, the cocycle identities along simulated
control flows, and growth-rate verification against the exact
classification from flagcalc.  The flow layer (flags as frames, control
systems, propagation and cocycle sampling) is ``flows``, on which this
module builds; its public names are attributes here too.

Conventions
-----------
The compact factor is SO(d), the abelian factor the positive diagonal
matrices of determinant one, the nilpotent factor the upper unitriangular
matrices; QR with a sign-fixed positive diagonal realizes the
factorization.  Flags are represented by special orthogonal frames whose
leading column blocks span the nested subspaces.  A tangent vector at a
flag is a block strictly lower triangular matrix X acting horizontally
against the frame, held as its nnz entries at the block strictly lower
positions (i, j) in row-major order (``_lower_index``); k vectors are a
k x nnz array of rows.  The Euclidean metric on these coordinates is the
Frobenius (trace form) metric on X; determinant ratios and growth
exponents are independent of that scale choice.  Every transport is the
nnz x nnz matrix of X -> lower(a X a^-1) (``_tangent_maps``).

The dictionary to the abstract side is the type A one: the i-th simple
root evaluates a diagonal vector ``h`` as ``h[i] - h[i+1]``, and abstract
Weyl elements act as coordinate permutations built from their reduced words.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .flagcalc import ChainControlSetRecord, FlagSpec
from .rootsys import RootSystem, build_root_system, form_value, span_subset
from .weyl import WeylElement

# every public flow name is also one of this module's
from .flows import *
from .flows import __all__ as _FLOW_NAMES, _Identity, _qr_pos

import numpy as np

from . import linalg

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    *_FLOW_NAMES,
    "IwasawaTriple",
    "SplitPart",
    "Drift",
    "RateReport",
    "iwasawa",
    "flag_point",
    "flag_act",
    "flag_distance",
    "a_cocycle",
    "cocycle_additivity_residual",
    "time_reversal_residual",
    "ktheta_invariance_residual",
    "realize_functional",
    "RealizedFunctional",
    "split_part",
    "fixed_flags",
    "determinant_formula_residuals",
    "verify_rates",
    "type_a_system",
    "random_traceless",
    "random_special_orthogonal",
    "random_unimodular",
]

DEFAULT_COND_MAX = 1e12


@lru_cache(maxsize=None)
def type_a_system(d: int) -> RootSystem:
    """The abstract system matching SL(d, R); rank d-1."""
    if d < 2:
        raise ValueError("SL(d) realization needs d >= 2")
    return build_root_system("A", d - 1)


# ---------------------------------------------------------------------------
# Iwasawa factorization


class IwasawaTriple(_Identity, namedtuple("IwasawaTriple", "k a_vec n")):
    """Factors g = k exp(diag(a_vec)) n with k special orthogonal, n unitriangular."""

    __slots__ = ()


def _qr_special(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sign-fixed QR with a determinant +1 orthogonal factor; the last column
    # of q and the last row of r flip together, so q @ r still equals g
    q, r = _qr_pos(g)
    flip = np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    q[..., -1] *= flip
    r[..., -1, :] *= flip
    return q, r


def _unimodular_errors(g: np.ndarray) -> list:
    # per matrix of a stack, or for one matrix, the refusal of a determinant that is not 1,
    # else None; an LU whose pivots leave double range gives inf, without a warning, and
    # says that the matrix is too large or too ill-conditioned to factor there
    with np.errstate(over="ignore"):
        dets = np.atleast_1d(np.linalg.det(g)).tolist()
    errors = [None] * len(dets)
    for i, det in enumerate(dets):
        if not math.isfinite(det):
            errors[i] = ValueError(
                "matrix too ill-conditioned or too large for double range: "
                f"its LU determinant is {det!r}"
            )
        elif abs(det - 1.0) > 1e-8:
            errors[i] = ValueError(f"matrix is not unimodular: det = {det!r}")
    return errors


def iwasawa(g: np.ndarray, *, cond_max: float | None = DEFAULT_COND_MAX) -> IwasawaTriple:
    """Iwasawa factorization of a unimodular matrix via sign-fixed QR.

    ``cond_max`` guards against inputs whose factor accuracy is
    conditioning-limited; None disables the guard where only the
    orthogonal factor is used (``flag_act``).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("iwasawa needs a square matrix")
    error, = _unimodular_errors(g)
    if error is not None:
        raise error
    if cond_max is not None:
        sv = np.linalg.svd(g, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if cond > cond_max:
            raise ValueError(
                f"matrix too ill-conditioned for a trustworthy factorization: "
                f"condition estimate {cond:.3e} exceeds {cond_max:.1e}"
            )
    q, r = _qr_pos(g)
    diag = np.diag(r).copy()
    a_vec = np.log(diag)
    n = r / diag[:, None]
    return IwasawaTriple(k=q, a_vec=a_vec, n=n)


# ---------------------------------------------------------------------------
# Flag points


def _block_index(blocks: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(blocks)), blocks)


def _lower_index(blocks: tuple[int, ...]) -> np.ndarray:
    # row-major flat indices of the tangent coordinates' positions
    bid = _block_index(blocks)
    return np.flatnonzero(bid[:, None] > bid[None, :])


def flag_point(rep: np.ndarray, blocks: Sequence[int]) -> FlagPoint:
    rep = np.array(rep, dtype=float)
    d = rep.shape[0]
    blocks = tuple(int(b) for b in blocks)
    if rep.ndim != 2 or rep.shape != (d, d):
        raise ValueError("flag frame must be square")
    if sum(blocks) != d or any(b < 1 for b in blocks):
        raise ValueError(f"block sizes {blocks} do not partition dimension {d}")
    if np.abs(rep.T @ rep - np.eye(d)).max() > 1e-9:
        raise ValueError("flag frame is not orthogonal")
    if abs(np.linalg.det(rep) - 1.0) > 1e-6:
        raise ValueError("flag frame must have determinant +1")
    rep.flags.writeable = False
    return FlagPoint(rep=rep, blocks=blocks)


def flag_act(psi: np.ndarray, x: FlagPoint) -> FlagPoint:
    """Image flag under the projective action of ``psi``."""
    trip = iwasawa(np.asarray(psi, float) @ x.rep, cond_max=None)
    return flag_point(trip.k, x.blocks)


def flag_distance(x: FlagPoint, y: FlagPoint) -> float:
    """Largest spectral gap between corresponding subspace projectors."""
    if x.blocks != y.blocks:
        raise ValueError("flags live on different manifolds")
    return _flag_distances(x.rep[None], y.rep[None], x.blocks)[0]


def _flag_distances(a: np.ndarray, b: np.ndarray, blocks: tuple[int, ...]) -> list[float]:
    # flag_distance between corresponding frames of two stacks
    gaps = [[0.0] * len(a)]
    for cut in np.cumsum(blocks[:-1]).tolist():
        p, q = a[..., :cut], b[..., :cut]
        projector_gaps = p @ np.swapaxes(p, -1, -2) - q @ np.swapaxes(q, -1, -2)
        gaps.append(np.linalg.norm(projector_gaps, 2, axis=(-2, -1)).tolist())
    return [max(column) for column in zip(*gaps)]


def a_cocycle(psi: np.ndarray, flag: FlagPoint) -> np.ndarray:
    """Abelian cocycle increment of ``psi`` at a maximal flag.

    The identity transition returns the exact zero vector.
    """
    if not flag.is_maximal:
        raise ValueError("the abelian cocycle is defined on maximal flags")
    psi = np.asarray(psi, dtype=float)
    d = flag.dim_ambient
    if np.array_equal(psi, np.eye(d)):
        return np.zeros(d)
    return iwasawa(psi @ flag.rep).a_vec


# ---------------------------------------------------------------------------
# Cocycle identities


def cocycle_additivity_residual(
    spec: ControlSystemSpec,
    signal: ControlSignal,
    T: float,
    flag: FlagPoint,
) -> float:
    """Worst additivity defect over checkpoint pairs (t, s) with t + s <= T.

    Every term is recomputed from full transition matrices, so the identity
    is genuinely tested rather than telescoped.
    """
    if not flag.is_maximal:
        raise ValueError("cocycle identities are checked on maximal flags")
    traj = integrate(spec, signal, T)
    n = len(traj.times) - 1
    if n == 0:
        raise ValueError("need a positive horizon")
    stride = max(1, n // 10)  # eleven checkpoints
    idxs = list(range(0, n + 1, stride))
    if idxs[-1] != n:
        idxs.append(n)
    mats = traj.matrices
    d = spec.dim
    a_at: dict[int, np.ndarray] = {0: np.zeros(d)}
    flag_at: dict[int, FlagPoint] = {0: flag}
    for p in idxs:
        if p == 0:
            continue
        trip = iwasawa(mats[p] @ flag.rep)
        a_at[p] = trip.a_vec
        flag_at[p] = flag_point(trip.k, flag.blocks)
    worst = 0.0
    for p in idxs:
        for q in idxs:
            if p + q not in a_at:
                continue
            if p == 0:
                shifted = a_at[q]
            elif q == 0:
                shifted = np.zeros(d)
            else:
                # the transition from p to p + q, mats[p + q] mats[p]^-1, by a solve
                step = np.linalg.solve(mats[p].T, mats[p + q].T).T
                shifted = a_cocycle(step, flag_at[p])
            defect = float(np.abs(a_at[p + q] - shifted - a_at[p]).max())
            worst = max(worst, defect)
    return worst


def time_reversal_residual(backward: Trajectory, flag: FlagPoint) -> float:
    """Worst defect of the time-reversal identity along a backward trajectory.

    ``backward`` must start at time 0 and run into negative times; at a grid
    point -t the stored matrix is the backward transition, its inverse the
    forward transition for the shifted control.
    """
    if not flag.is_maximal:
        raise ValueError("cocycle identities are checked on maximal flags")
    if backward.times[0] != 0.0 or (len(backward.times) > 1 and backward.times[-1] > 0):
        raise ValueError("expected a trajectory over [ -T, 0 ] starting at time 0")
    n = len(backward.times) - 1
    stride = max(1, n // 10)
    worst = 0.0
    for i in range(0, n + 1, stride):
        if backward.times[i] == 0.0:
            continue  # both sides vanish identically at t = 0
        psi_m = backward.matrices[i]
        trip = iwasawa(psi_m @ flag.rep)
        # the forward transition psi_m^-1 at the frame trip.k, by a solve
        a_fwd = iwasawa(np.linalg.solve(psi_m, trip.k)).a_vec
        worst = max(worst, float(np.abs(trip.a_vec + a_fwd).max()))
    return worst


def ktheta_invariance_residual(
    psi: np.ndarray,
    flag: FlagPoint,
    theta: Iterable[int],
    beta: Sequence[Fraction | int],
    k_block: np.ndarray,
) -> float:
    """Defect of cocycle invariance under a block rotation of the frame.

    ``beta`` (simple-root coordinates, exact rationals) must annihilate the
    dual vectors of the theta roots; ``k_block`` must be block diagonal for
    the theta block structure, orthogonal, of determinant +1.
    """
    from fractions import Fraction

    if not flag.is_maximal:
        raise ValueError("the invariance statement lives on maximal flags")
    d = flag.dim_ambient
    theta = frozenset(theta)
    beta_q = [Fraction(b) for b in beta]
    if len(beta_q) != d - 1:
        raise ValueError(f"functional must have {d - 1} simple-root coordinates")
    rs = type_a_system(d)
    for j in sorted(theta):
        v = form_value(rs, beta_q, rs.simple_roots[j].coords)
        if v != 0:
            raise ValueError(
                f"functional {beta_q} does not annihilate the dual of simple root {j} "
                f"(value {v})"
            )
    k_block = np.asarray(k_block, dtype=float)
    bid = _block_index(blocks_from_theta(theta, d))
    if np.abs(k_block * (bid[:, None] != bid[None, :])).max() > 1e-12:
        raise ValueError("rotation is not block diagonal for the theta blocks")
    if np.abs(k_block.T @ k_block - np.eye(d)).max() > 1e-9:
        raise ValueError("rotation is not orthogonal")
    if abs(np.linalg.det(k_block) - 1.0) > 1e-6:
        raise ValueError("rotation must have determinant +1")
    f = realize_functional(beta_q, d)
    moved = flag_point(flag.rep @ k_block, flag.blocks)
    return abs(f(a_cocycle(psi, moved)) - f(a_cocycle(psi, flag)))


# ---------------------------------------------------------------------------
# Functional realization


class RealizedFunctional(namedtuple("RealizedFunctional", "coeffs floats")):
    """Linear functional on diagonal vectors, with exact coefficients and those as floats."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence[Fraction | int]) -> RealizedFunctional:
        return super().__new__(cls, coeffs, tuple(map(float, coeffs)))

    def __getnewargs__(self) -> tuple:
        return (self.coeffs,)

    def __call__(self, h: Sequence[float]) -> float:
        return float(sum(map(mul, self.floats, map(float, h))))


def realize_functional(coords: Sequence[Fraction | int], d: int) -> RealizedFunctional:
    """Realize simple-root coordinates as a functional on length-d vectors.

    Only the type A dictionary is realized: the i-th simple root maps
    ``h`` to ``h[i] - h[i+1]``.
    """
    if d < 2 or len(coords) != d - 1:
        raise ValueError(
            f"only the rank d-1 type A dictionary is realized; got {len(coords)} "
            f"coordinates for d={d}"
        )
    padded = [0, *coords, 0]  # plain differences: ints stay ints, Fractions stay Fractions
    coeffs = tuple(padded[i + 1] - padded[i] for i in range(d))
    return RealizedFunctional(coeffs=coeffs)


# ---------------------------------------------------------------------------
# Split part and fixed flags of autonomous generators


class SplitPart(_Identity, namedtuple("SplitPart", "h theta basis group_ids complex_pairs")):
    """Ordered real spectrum data of a real-diagonalizable traceless matrix.

    ``complex_pairs`` lists adjacent column index pairs of ``basis`` that
    carry the real and imaginary parts of one complex eigenvector.
    """

    __slots__ = ()


def split_part(x: np.ndarray, *, gap_tol: float = 1e-6) -> SplitPart:
    """Sorted real parts, degenerate simple roots, and an adapted real basis.

    Real parts are sorted descending; conjugate pairs contribute adjacent
    real-and-imaginary-part columns.  Gaps strictly between the zero
    threshold and ``gap_tol`` are rejected as ambiguous rather than
    silently grouped, and defective (non-diagonalizable) inputs are
    rejected through the basis condition number.
    """
    if not (math.isfinite(gap_tol) and gap_tol > 0):
        raise ValueError(f"gap_tol must be finite and > 0, got {gap_tol!r}")
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if x.ndim != 2 or x.shape != (d, d):
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.linalg.norm(x)))
    if abs(np.trace(x)) > 1e-10 * scale * d:
        raise ValueError(f"matrix is not traceless: trace = {float(np.trace(x))}")
    evals, evecs = np.linalg.eig(x)
    imag_tol = 1e-10 * scale
    order = sorted(
        range(d), key=lambda i: (-evals[i].real, -abs(evals[i].imag), -evals[i].imag)
    )
    cols = []
    hvals = []
    pairs = []
    skip = False
    for pos, i in enumerate(order):
        if skip:
            skip = False
            continue
        lam = evals[i]
        if abs(lam.imag) <= imag_tol:
            v = evecs[:, i].real
            cols.append(v / np.linalg.norm(v))
            hvals.append(lam.real)
        else:
            if pos + 1 >= d:
                raise ValueError("unpaired complex eigenvalue")
            j = order[pos + 1]
            if abs(evals[j] - lam.conjugate()) > 1e-6 * scale:
                raise ValueError("complex eigenvalues do not pair into conjugates")
            v = evecs[:, i]
            vr, vi = v.real, v.imag
            cols.append(vr / np.linalg.norm(vr))
            cols.append(vi / np.linalg.norm(vi))
            hvals.extend([lam.real, lam.real])
            pairs.append((len(cols) - 2, len(cols) - 1))
            skip = True
    basis = np.column_stack(cols)
    cond = float(np.linalg.cond(basis))
    if not np.isfinite(cond) or cond > DEFAULT_COND_MAX:
        raise ValueError(
            f"matrix is not numerically diagonalizable: eigenbasis condition "
            f"{cond:.3e} exceeds {DEFAULT_COND_MAX:.1e}"
        )
    h = np.asarray(hvals, dtype=float)
    h = h - h.mean()  # restore exact zero sum lost to roundoff
    zero_tol = 1e-9 * scale
    theta = set()
    group_ids = [0]
    for i in range(d - 1):
        gap = h[i] - h[i + 1]
        if gap <= zero_tol:
            theta.add(i)
            group_ids.append(group_ids[-1])
        elif gap < gap_tol:
            raise ValueError(
                f"ambiguous real-part gap {gap:.3e} between positions {i} and {i + 1}: "
                f"inside (0, gap_tol={gap_tol:.1e}); pass an explicit gap_tol"
            )
        else:
            group_ids.append(group_ids[-1] + 1)
    # snap each group to its mean so degenerate exponents are exactly equal
    g = np.asarray(group_ids)
    for gid in range(g.max() + 1):
        sel = g == gid
        h[sel] = h[sel].mean()
    h.flags.writeable = False
    basis.flags.writeable = False
    return SplitPart(
        h=h,
        theta=frozenset(theta),
        basis=basis,
        group_ids=tuple(group_ids),
        complex_pairs=tuple(pairs),
    )


def fixed_flags(drift: Drift, theta: Iterable[int], w: WeylElement) -> FlagPoint:
    """The invariant flag of the coset representative ``w`` for ``drift``.

    Built by permuting the ordered eigenbasis columns and orthonormalizing;
    leading spans of eigenvector prefixes are invariant under the flow.
    Given a chunk realized by ``realize``, returns per item its flag or the
    ValueError saying why it has none (``batch``); so do the two checks
    below on a chunk of records.
    """
    return batch(_flags, drift, theta, w)


# ---------------------------------------------------------------------------
# Verification against the exact classification


class Drift:
    """An autonomous generator with the data its per-record checks share.

    ``x`` is split once with ``gap_tol`` (see ``split_part``); ``frame`` is
    the attractor flag of its ordered eigenbasis.  exp(t x) is computed once
    per distinct t, the cocycle curve once per step size (``cocycle``) and the
    slopes once per horizon; the cells of Weyl elements are not kept here.
    The fields are bound once; a copy or an unpickled drift is split anew.
    """

    __slots__ = ("x", "gap_tol", "split", "frame", "_memo")

    def __init__(self, x: np.ndarray, gap_tol: float = 1e-6) -> None:
        x = np.array(x, dtype=float)
        x.flags.writeable = False
        sp = split_part(x, gap_tol=gap_tol)
        # a QR factor, special orthogonal as built; flag_point's rep.T @ rep check
        # would be verify's only BLAS syrk call, whose first use alone lifts its peak RSS
        frame = _qr_special(sp.basis)[0]
        frame.flags.writeable = False
        fields = x, gap_tol, sp, FlagPoint(rep=frame, blocks=(1,) * len(sp.h)), {}
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return Drift, (self.x, self.gap_tol)

    def __repr__(self) -> str:
        return f"Drift(x={self.x!r}, gap_tol={self.gap_tol!r})"

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def _once(self, key: tuple, compute: Callable[[], object]):
        # every caller shares a memoized array, so it is made read-only
        if key not in self._memo:
            value = self._memo[key] = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return self._memo[key]

    def expm(self, t: float) -> np.ndarray:
        """exp(t x) as a read-only array, computed once per distinct ``t``; an
        exp that leaves double range raises."""

        def compute() -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                m = linalg.expm(t * self.x)
            if not np.isfinite(m).all():
                raise ValueError(f"exp({t:g} x) of the drift leaves double range")
            return m

        return self._once(("expm", t), compute)

    def cocycle(self, t: float) -> list:
        """(time, attractor-frame cocycle) at n + 1 equally spaced times from 0 to ``t``,
        accumulated in n steps of at most 0.5, so long horizons stay well conditioned.  One curve
        is kept per step size and extended as far as a caller reaches."""
        n = max(1, math.ceil(abs(t) / 0.5))
        curve = self._once(("cocycle", t / n), lambda: [(self.frame.rep, np.zeros(self.dim))])
        stepm = self.expm(t / n)
        while len(curve) <= n:
            trip = iwasawa(stepm @ curve[-1][0])
            curve.append((trip.k, curve[-1][1] + trip.a_vec))
        for _, acc in curve:  # shared with every caller, as _once's arrays are
            acc.flags.writeable = False
        return [(k * (t / n), acc) for k, (_, acc) in enumerate(curve[: n + 1])]

    def _horizon_rates(self, T: float) -> tuple:
        """Roots outside the flow type, predicted and measured cocycle slopes
        over [0, T], and the smallest slope from time 1 on."""

        def compute() -> tuple:
            rs = type_a_system(self.dim)
            central = span_subset(rs, self.split.theta)
            roots = [r.coords for r in rs.index.roots if r not in central]
            if not roots:
                raise ValueError(
                    f"flow type {sorted(self.split.theta)} covers every simple root: no "
                    "positive root lies outside it, so there is no rate to measure"
                )
            functionals = [realize_functional(c, self.dim) for c in roots]
            curve = self.cocycle(T)
            mu = min(f(a) / tau for tau, a in curve if tau >= 1.0 - 1e-12 for f in functionals)
            predicted = tuple(f(self.split.h) for f in functionals)
            measured = tuple(f(curve[-1][1]) / T for f in functionals)
            return tuple(roots), predicted, measured, float(mu)

        return self._once(("rates", T), compute)


def _check_flow_type(drift: Drift, spec: FlagSpec) -> None:
    if drift.split.theta != spec.flag_type:
        raise ValueError(
            f"generator flow type {sorted(drift.split.theta)} disagrees with spec "
            f"{sorted(spec.flag_type)}"
        )


def determinant_formula_residuals(
    drift: Drift, spec: FlagSpec, record: ChainControlSetRecord, t: float
) -> tuple[float, float]:
    """Relative defects of the Jacobian determinant identity at time ``t``.

    Left side: log volume of the flow derivative on the unstable (stable)
    realization at the record's fixed flag, which the flow fixes, so that
    it is t / 0.25 times log|det| of the short-time map ``verify_rates``
    powers.  Right side: the record's growth functional on the cocycle of
    the attractor frame, accumulated in steps of at most 0.5
    (``Drift.cocycle``).  Returns |expm1(left - right)|, the relative defect
    of the Jacobian against exp(sigma), as (unstable defect, stable defect);
    on a chunk of records, None for one that is not hyperbolic.
    """
    if isinstance(record, ChainControlSetRecord) and not record.hyperbolic:
        raise ValueError("the determinant identity requires a hyperbolic record")
    return batch(_determinants, drift, spec.theta, record, spec, t)


class RateReport(_Identity, namedtuple("RateReport", (
    "positive_roots cocycle_predicted cocycle_measured mu_estimate stable_predicted "
    "stable_measured unstable_predicted unstable_measured center_range max_exponent_rel_error"
))):
    """Measured growth data against the exact predictions."""

    __slots__ = ()


def verify_rates(
    drift: Drift, spec: FlagSpec, record: ChainControlSetRecord, T: float
) -> RateReport:
    """Measure cocycle slopes and subbundle singular value exponents.

    The cocycle slopes come from the drift's attractor frame and do not
    depend on the record.  Subbundle derivatives are powers of a single
    short-time endomorphism (time 0.25) at the fixed flag of the record.
    A non-hyperbolic record also gets the slope band of its center
    realization.
    """
    return batch(_rates, drift, spec.theta, record, spec, T)


# ---------------------------------------------------------------------------
# The checks on a batch of Weyl cells, a few stacked numpy calls per batch


CHUNK = 64  # records realized and checked together; a chunk's stacks set verify's peak memory
_STEP = 0.25  # time of the short-time map whose powers give the exponents and log volumes
_MAX_COCYCLE_STEPS = 20_000  # Drift.cocycle's steps of at most 0.5 that _rates accepts


class Cells(tuple):
    """A chunk of records or Weyl elements with their cells (``realize``).  Per cell: why it fixes
    no flag (or None), its frame, its sorted stable, center and unstable exponents, and a hyperbolic
    record's realized sigma+ and sigma- (else None).  ``bundles[c]`` and ``maps[c]`` list, per size
    k of subbundle c, its cells with their k x nnz coordinates and with the k x k tangent map of
    exp(_STEP x) on it, the one flow derivative that the determinant and the rate checks read.
    ``logvols[i]`` holds log|det| of cell i's maps on its unstable and its stable subbundle."""


def value(entry):
    """A check's entry; an entry that holds an error raises it."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def batch(stage, drift, theta, items, *args):
    """``stage(drift, cells, *args)`` on a chunk ``items`` from ``realize``: one entry per item,
    its value or the ValueError that stops it.  On one Weyl element or record, realized as a
    chunk of one, its value.  An error of the whole chunk comes before a cell's, and a cell's
    before the stage's.  A stacked LAPACK, BLAS or Jacobi call treats each matrix as a call on
    it alone does, so a record's numbers do not depend on its chunk."""
    cells = items if isinstance(items, Cells) else realize(drift, theta, [items])
    try:
        entries = [err or v for err, v in zip(cells.errors, stage(drift, cells, *args))]
    except ValueError as exc:
        entries = [exc] * len(cells)
    return entries if cells is items else value(entries[0])


def _tangent_maps(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # X -> lower(a X b), b = a^-1, for a stack of a: row-major vec(a X b) = kron(a, b^T) vec(X),
    # at the tangent positions (rows, cols)
    out = a[..., rows[:, None], rows[None, :]]  # a gather copies, so the product goes in place
    out *= b[..., cols[None, :], cols[:, None]]
    return out


def realize(drift: Drift, theta: Iterable[int], items: list) -> Cells:
    """The chunk of ``items``, Weyl elements or records, with their cells: flag position j holds
    eigen position sigma[j], and (i, j), growing at h_i - h_j, is realized by the matching column
    of the tangent map of the permuted eigenbasis's triangular factor.  A cell cutting a complex
    pair across blocks fixes no flag."""
    sp, d = drift.split, drift.dim
    elements = [getattr(x, "rep", x) for x in items]  # a record's element
    blocks = blocks_from_theta(theta, d)
    rows, cols = np.divmod(_lower_index(blocks), d)
    errors, sigmas = [], []
    for w in elements:
        sigma, rs = list(range(d)), w.system
        fits = rs.family == "A" and rs.rank == d - 1
        for i in w.reduced_word if fits else ():  # right multiplication by a transposition
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        mismatch = f"root system {rs.lie_type} does not match SL({d})"
        errors.append(None if fits else ValueError(mismatch))
        sigmas.append(sigma)
    sigma = np.array(sigmas, dtype=int).reshape(len(elements), d)
    bid = np.empty_like(sigma)  # block of each eigen position
    np.put_along_axis(bid, sigma, _block_index(blocks), axis=1)
    for i in np.flatnonzero(np.any([bid[:, a] != bid[:, b] for a, b in sp.complex_pairs], axis=0)):
        errors[i] = errors[i] or ValueError(
            f"cell of word {elements[i].reduced_word} splits a complex eigenvalue pair "
            "across flag blocks; the generator fixes no flag there"
        )
    q, r = _qr_special(np.moveaxis(sp.basis[:, sigma], 1, 0))  # special orthogonal frames
    q.flags.writeable = False
    hw, gid = sp.h[sigma], np.asarray(sp.group_ids)[sigma]
    lam, center = hw[:, rows] - hw[:, cols], gid[:, rows] == gid[:, cols]
    masks = (~center & (lam <= 0), center, ~center & (lam > 0))
    exponents = [tuple(tuple(sorted(row[m].tolist())) for m in ms) for row, *ms in zip(lam, *masks)]
    functionals = [
        tuple(realize_functional(s, d) for s in (x.sigma_plus, x.sigma_minus))
        if err is None and getattr(x, "hyperbolic", False) else None
        for x, err in zip(items, errors)
    ]
    bundles = _subbundles(r, rows, cols, masks)
    back = np.swapaxes(q, 1, 2)  # _subbundles' nnz x nnz stack is gone: one is live at a time
    with np.errstate(over="ignore", invalid="ignore"):
        tangent = _tangent_maps(*(back @ drift.expm(s) @ q for s in (_STEP, -_STEP)), rows, cols)
    if not np.isfinite(tangent).all():
        raise ValueError(f"the tangent maps of exp({_STEP:g} x) leave double range")
    maps = [[(pos, c @ tangent[pos] @ np.swapaxes(c, 1, 2)) for pos, c in groups]
            for groups in bundles]
    logvols = np.zeros((len(items), 2))
    for side, c in enumerate((2, 0)):
        for pos, m in maps[c]:
            logvols[pos, side] = np.linalg.slogdet(m)[1]
    cells = Cells(items)
    vars(cells).update(blocks=blocks, errors=errors, frames=q, exponents=exponents,
                       functionals=functionals, bundles=bundles, maps=maps,
                       logvols=logvols.tolist())
    return cells


def _subbundles(r: np.ndarray, rows: np.ndarray, cols: np.ndarray, masks: tuple) -> list:
    # per mask, (cells, their k x nnz coordinates) per size k: one QR of the k masked columns
    # of the tangent maps of the triangular factors r of the cells with k of them
    images = _tangent_maps(r, np.linalg.solve(r, np.eye(r.shape[-1])), rows, cols)
    bundles = [[] for _ in masks]
    for mask, groups in zip(masks, bundles):
        sizes = mask.sum(axis=1)
        for k in sorted(set(sizes.tolist())):
            pos = np.flatnonzero(sizes == k)
            picked = np.nonzero(mask[pos])[1].reshape(len(pos), 1, k)
            columns = np.take_along_axis(images[pos], picked, axis=2)
            coords = np.swapaxes(np.linalg.qr(columns)[0], 1, 2)
            coords.flags.writeable = False
            groups.append((pos, coords))
    return bundles


def _flags(drift: Drift, cells: Cells) -> list:
    return [FlagPoint(rep=frame, blocks=cells.blocks) for frame in cells.frames]


def flag_drifts(drift: Drift, cells: Cells) -> list:
    """flag_distance(flag_act(exp(x / 2), x_w), x_w) at each cell's fixed flag x_w."""
    g = drift.expm(0.5) @ cells.frames
    distances = _flag_distances(_qr_pos(g)[0], cells.frames, cells.blocks)
    return [error or dist for error, dist in zip(_unimodular_errors(g), distances)]


def _determinants(drift: Drift, cells: Cells, spec, t: float) -> list:
    # per record, the relative defects of the determinant identity on the unstable and the
    # stable subbundle, None if it is not hyperbolic: x_w is fixed by the flow, so the flow
    # derivative of exp(t x) there is the t / _STEP-th power of the short-time map
    if not math.isfinite(t):
        raise ValueError(f"determinant time {t!r} is not finite")
    _check_flow_type(drift, spec)
    avec = drift.cocycle(t)[-1][1]
    return [
        fs and tuple(abs(math.expm1(t / _STEP * lhs - f(avec))) for f, lhs in zip(fs, logs))
        for fs, logs in zip(cells.functionals, cells.logvols)
    ]


def _measure(items: np.ndarray, scale, finish) -> list:
    # finish(log singular values / scale) per matrix or stack of powers; None out of range,
    # and for every item, the stack's error if the SVD does not converge
    finite = np.isfinite(items).all(axis=tuple(range(1, items.ndim)))
    out = [None] * len(items)
    if finite.any():
        try:
            sv = linalg.singular_values(items[finite])
        except ValueError as exc:
            return [exc if f else None for f in finite]
        axes = tuple(range(1, sv.ndim))
        good = np.isfinite(sv).all(axis=axes) & (sv.min(axis=axes) > 0)
        for i, logs in zip(np.flatnonzero(finite)[good], np.log(sv[good])):
            out[i] = finish(logs / scale)
    return out


def _rates(drift: Drift, cells: Cells, spec, T: float) -> list:
    # per record, its RateReport: growth exponents from singular values of powers of the
    # tangent map of exp(_STEP x) at x_w on each subbundle, and the center's slope band
    if not math.isfinite(T):
        raise ValueError(f"horizon {T!r} is not finite")
    if T < 1.0:
        raise ValueError("need a horizon of at least 1")
    _check_flow_type(drift, spec)
    # with more than one block the repeller's unstable class holds the highest root, growing at
    # h_max - h_min >= max|h|, so past T max|h| = 2 * 745 its powered map is sure to overflow
    top = float(np.abs(drift.split.h).max())
    if len(cells.blocks) > 1 and T * top > 1490:
        raise ValueError(
            f"horizon {T:g} times the largest real part {top:g} in modulus exceeds 1490: "
            "the powered short-time maps leave double range; shorten --T"
        )
    # Drift.cocycle takes one Iwasawa step per 0.5 of T, and on a one-block flag manifold
    # nothing above bounds T: this many steps take about 1.5 s on a 2-core VM
    steps = T / 0.5  # inf past half the double range
    if steps > _MAX_COCYCLE_STEPS:
        steps = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(
            f"horizon {T:g} needs {steps} cocycle steps of at most 0.5, more than "
            f"{_MAX_COCYCLE_STEPS}; shorten --T"
        )
    roots, predicted, measured, mu = drift._horizon_rates(T)
    n_pow = max(1, int(round(T / _STEP)))
    horizon, scale = n_pow * _STEP, (_STEP * np.arange(1, n_pow + 1))[:, None]
    maps = [(c, pos, m) for c, groups in enumerate(cells.maps) for pos, m in groups if m.shape[-1]]
    found = [[(), (), ()] for _ in cells]  # per record and subbundle; the center's is its band
    by_size = {}  # stable and unstable maps of one size share a stack
    # an overflowing power is rejected as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for c, pos, m in maps:
            if c != 1:
                by_size.setdefault(m.shape[-1], []).append((c, pos, m))
                continue
            chain = accumulate(repeat(m, n_pow - 1), lambda p, _: m @ p, initial=m)
            powers = np.stack(list(chain), axis=1)  # m, m^2, ..., m^n_pow of each cell
            bands = _measure(powers, scale, lambda v: (float(v.min()), float(v.max())))
            for i, band in zip(pos, bands):
                found[i][1] = band
        for parts in by_size.values():
            powered = np.linalg.matrix_power(np.concatenate([m for *_, m in parts]), n_pow)
            exponents = iter(_measure(powered, horizon, lambda v: tuple(sorted(v.tolist()))))
            for c, pos, _ in parts:
                for i in pos:
                    found[i][c] = next(exponents)
    out = []
    for rec, (se, _, ue), (stable, band, unstable) in zip(cells, cells.exponents, found):
        bad = [v for v in (stable, unstable, band) if not isinstance(v, tuple)]
        if bad:
            out.append(bad[0] or ValueError(
                f"record {rec.rep.reduced_word}: the powered short-time map leaves "
                f"double range over horizon {horizon:g}; shorten --T"
            ))
            continue
        pairs = zip(se + ue, stable + unstable)
        rel = max((abs(m - p) / max(abs(p), 1e-12) for p, m in pairs), default=0.0)
        fields = roots, predicted, measured, mu, se, stable, ue, unstable, band or None
        out.append(RateReport(*fields, float(rel)))
    return out


def check_records(drift: Drift, spec, records: list, T: float, det_times: list) -> Iterator:
    """Per record, from the three checks above run on ``CHUNK`` records at a time: why its
    cell fixes no flag (or None), that flag's drift under exp(x / 2), its determinant defects
    at each of ``det_times`` and its RateReport.  Entries that are errors are raised by
    ``value``, so the caller meets them in its own order."""
    for start in range(0, len(records), CHUNK):
        chunk = realize(drift, spec.theta, records[start : start + CHUNK])
        flags = fixed_flags(drift, spec.theta, chunk)
        skips = [x if isinstance(x, ValueError) else None for x in flags]
        drifts = flag_drifts(drift, chunk)
        dets = [determinant_formula_residuals(drift, spec, chunk, t) for t in det_times]
        reports = verify_rates(drift, spec, chunk, T)
        yield from zip(skips, drifts, list(zip(*dets)) or [()] * len(chunk), reports)
        del chunk, flags  # so that the next chunk is realized without this one


# ---------------------------------------------------------------------------
# Random sampling helpers


def random_traceless(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    if d < 2:  # the traceless part of a 1 x 1 draw is 0, whatever is drawn
        raise ValueError("SL(d) realization needs d >= 2")
    m = rng.standard_normal((d, d))
    m -= np.trace(m) / d * np.eye(d)
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        return random_traceless(rng, d, scale)
    return m * (scale / norm)


def random_special_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    return _qr_special(rng.standard_normal((d, d)))[0]


def random_unimodular(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        m = rng.standard_normal((d, d))
        det = float(np.linalg.det(m))
        if abs(det) > 1e-6:
            break
    if det < 0:
        m[:, 0] = -m[:, 0]
        det = -det
    return m / det ** (1.0 / d)
