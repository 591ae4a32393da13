"""Numerical realization on SL(d, R): Iwasawa cocycles along simulated
control flows, fixed flags of autonomous generators, and growth-rate
verification against the exact classification from flagcalc.

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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import linalg

if TYPE_CHECKING:  # the exact modules load where they run: simulate never compiles them
    from fractions import Fraction

    from .flagcalc import ChainControlSetRecord, FlagSpec
    from .rootsys import RootSystem
    from .weyl import WeylElement

__all__ = [
    "IwasawaTriple",
    "FlagPoint",
    "Box",
    "Polytope",
    "ControlSignal",
    "IntegratorConfig",
    "ControlSystemSpec",
    "Trajectory",
    "SplitPart",
    "Drift",
    "RateReport",
    "CocycleSample",
    "iwasawa",
    "blocks_from_theta",
    "standard_flag",
    "flag_point",
    "flag_act",
    "flag_distance",
    "a_cocycle",
    "constant_signal",
    "random_signal",
    "control_system",
    "system_to_json",
    "system_from_json",
    "load_system",
    "integrate",
    "cocycle_additivity_residual",
    "time_reversal_residual",
    "ktheta_invariance_residual",
    "realize_functional",
    "RealizedFunctional",
    "split_part",
    "fixed_flags",
    "determinant_formula_residuals",
    "verify_rates",
    "cocycle_sample",
    "cocycle_to_csv",
    "flag_type_diagnostic",
    "type_a_system",
    "random_traceless",
    "random_special_orthogonal",
    "random_unimodular",
]

DEFAULT_COND_MAX = 1e12
_STRIDE_LOG_COND_MAX = math.log(1e4)  # cocycle_sample's refactor bound
_QR_BATCH = 256  # cocycle_sample's output rows per stacked QR
_STEP_BLOCK = 256  # _propagate's control values per stack of RK4 transitions
_RENORM_CADENCE = 10  # integrate's RK4 steps per determinant renormalization


@lru_cache(maxsize=None)
def type_a_system(d: int) -> RootSystem:
    """The abstract system matching SL(d, R); rank d-1."""
    from .rootsys import build_root_system

    if d < 2:
        raise ValueError("SL(d) realization needs d >= 2")
    return build_root_system("A", d - 1)


# ---------------------------------------------------------------------------
# Iwasawa factorization


@dataclass(frozen=True, eq=False)
class IwasawaTriple:
    """Factors g = k exp(diag(a_vec)) n with k special orthogonal, n unitriangular."""

    k: np.ndarray
    a_vec: np.ndarray
    n: np.ndarray


def _qr_pos(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # QR with the triangular factor's diagonal made positive, of a matrix or
    # of each matrix in a stack
    q, r = np.linalg.qr(g)
    s = np.sign(r.diagonal(0, -2, -1)).copy()
    s[s == 0] = 1.0
    return q * s[..., None, :], s[..., None] * r


def _qr_special(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sign-fixed QR with a determinant +1 orthogonal factor; the last column
    # of q and the last row of r flip together, so q @ r still equals g
    q, r = _qr_pos(g)
    flip = np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    q[..., -1] *= flip
    r[..., -1, :] *= flip
    return q, r


def iwasawa(g: np.ndarray, *, cond_max: float | None = DEFAULT_COND_MAX) -> IwasawaTriple:
    """Iwasawa factorization of a unimodular matrix via sign-fixed QR.

    ``cond_max`` guards against inputs whose factor accuracy is
    conditioning-limited; None disables the guard where only the
    orthogonal factor is used (``flag_act``).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("iwasawa needs a square matrix")
    det = float(np.linalg.det(g))
    if abs(det - 1.0) > 1e-8:
        raise ValueError(f"matrix is not unimodular: det = {det!r}")
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


def blocks_from_theta(theta: Iterable[int], d: int) -> tuple[int, ...]:
    """Column block sizes of the flag selected by theta.

    Simple root i sits between coordinates i and i+1; membership in theta
    removes that break point, merging the two positions into one block.
    """
    theta = frozenset(theta)
    bad = [i for i in theta if not (0 <= i < d - 1)]
    if bad:
        raise ValueError(f"simple-root indices {sorted(bad)} out of range for d={d}")
    sizes = []
    current = 1
    for i in range(d - 1):
        if i in theta:
            current += 1
        else:
            sizes.append(current)
            current = 1
    sizes.append(current)
    return tuple(sizes)


def _block_index(blocks: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(blocks)), blocks)


def _lower_index(blocks: tuple[int, ...]) -> np.ndarray:
    # row-major flat indices of the tangent coordinates' positions
    bid = _block_index(blocks)
    return np.flatnonzero(bid[:, None] > bid[None, :])


@dataclass(frozen=True, eq=False)
class FlagPoint:
    """A flag as a special orthogonal frame plus nested block sizes."""

    rep: np.ndarray
    blocks: tuple[int, ...]

    @property
    def dim_ambient(self) -> int:
        return self.rep.shape[0]

    @property
    def is_maximal(self) -> bool:
        return all(b == 1 for b in self.blocks)


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


def standard_flag(d: int, theta: Iterable[int] = ()) -> FlagPoint:
    # special orthogonal as built; flag_point's rep.T @ rep, a BLAS syrk, would lift simulate's peak
    rep = np.eye(d)
    rep.flags.writeable = False
    return FlagPoint(rep=rep, blocks=blocks_from_theta(theta, d))


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
# Control systems and signals


@dataclass(frozen=True)
class Box:
    """Per-channel interval bounds; the empty box is the zero-channel range."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        norm = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if not all(math.isfinite(x) for bound in norm for x in bound):
            raise ValueError("box bounds must be finite")
        if any(lo > hi for lo, hi in norm):
            raise ValueError("box bounds must satisfy lo <= hi")
        object.__setattr__(self, "bounds", norm)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, u: np.ndarray) -> bool:
        return all(lo - 1e-9 <= v <= hi + 1e-9 for (lo, hi), v in zip(self.bounds, u))

    def zero_in_interior(self) -> bool:
        return all(lo < 0.0 < hi for lo, hi in self.bounds)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((n, 0))
        lows = np.array([lo for lo, _ in self.bounds])
        highs = np.array([hi for _, hi in self.bounds])
        return rng.uniform(lows, highs, size=(n, self.dim))


@dataclass(frozen=True, eq=False)
class Polytope:
    """Half-space description {u : normals @ u <= offsets}."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if self.normals.ndim != 2 or self.offsets.shape != self.normals.shape[:1]:
            raise ValueError(
                f"polytope needs an (m, k) normal array and m offsets, got shapes "
                f"{self.normals.shape} and {self.offsets.shape}"
            )
        if not (np.isfinite(self.normals).all() and np.isfinite(self.offsets).all()):
            raise ValueError("polytope normals and offsets must be finite")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains(self, u: np.ndarray) -> bool:
        return bool(np.all(self.normals @ u <= self.offsets + 1e-9))

    def zero_in_interior(self) -> bool:
        return bool(np.all(self.offsets > 0.0))


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Sampled piecewise-constant control, held constant on each period."""

    values: np.ndarray
    period: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("sample period must be positive")
        if self.values.ndim != 2:
            raise ValueError("signal values must be a (samples, channels) array")

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def value_at(self, t: float) -> np.ndarray:
        idx = int(math.floor((t - self.t0) / self.period + 1e-9))
        idx = min(max(idx, 0), self.values.shape[0] - 1)
        return self.values[idx]


def constant_signal(u: Sequence[float], period: float = 1.0) -> ControlSignal:
    return ControlSignal(values=np.asarray([u], dtype=float), period=period)


def random_signal(rng: np.random.Generator, box: Box, T: float, period: float) -> ControlSignal:
    """Uniform draws from ``box``, one per period, starting at min(T, 0): a
    backward horizon's signal covers [T, 0] as a forward one covers [0, T]."""
    n = max(1, int(math.ceil(abs(T) / period - 1e-9)))
    return ControlSignal(values=box.sample(rng, n), period=period, t0=min(T, 0.0))


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")


@dataclass(frozen=True, eq=False)
class ControlSystemSpec:
    """Right-invariant bilinear system: drift plus control-weighted terms."""

    drift: np.ndarray
    controls: tuple[np.ndarray, ...]
    control_range: Box | Polytope
    integrator: IntegratorConfig

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def generator(self, u: np.ndarray) -> np.ndarray:
        """drift + sum_j u_j B_j, for a control value or for each row of a stack of them."""
        u = np.asarray(u)
        out = np.broadcast_to(self.drift, u.shape[:-1] + self.drift.shape).copy()
        for uj, m in zip(np.moveaxis(u, -1, 0), self.controls):
            out += uj[..., None, None] * m
        return out


def control_system(
    drift: np.ndarray,
    controls: Sequence[np.ndarray],
    control_range: Box | Polytope,
    integrator: IntegratorConfig | None = None,
) -> ControlSystemSpec:
    """Validating constructor: traceless matrices, matching shapes, 0 inside U."""
    drift = np.array(drift, dtype=float)
    if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
        raise ValueError("drift must be a square matrix")
    d = drift.shape[0]
    mats = [drift] + [np.array(m, dtype=float) for m in controls]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("all system matrices must share the drift's shape")
        if not np.isfinite(m).all():
            raise ValueError("system matrices must have finite entries")
        if abs(np.trace(m)) > 1e-12 * max(1.0, float(np.linalg.norm(m))):
            raise ValueError(f"system matrix has nonzero trace {np.trace(m)!r}")
    if control_range.dim != len(controls):
        raise ValueError(
            f"control range dimension {control_range.dim} does not match "
            f"{len(controls)} control matrices"
        )
    if not control_range.zero_in_interior():
        raise ValueError("zero must lie in the interior of the control range")
    for m in mats:
        m.flags.writeable = False
    return ControlSystemSpec(
        drift=mats[0],
        controls=tuple(mats[1:]),
        control_range=control_range,
        integrator=integrator if integrator is not None else IntegratorConfig(),
    )


def system_to_json(spec: ControlSystemSpec) -> dict:
    if isinstance(spec.control_range, Box):
        crange = {"type": "box", "bounds": [list(b) for b in spec.control_range.bounds]}
    else:
        crange = {
            "type": "polytope",
            "normals": spec.control_range.normals.tolist(),
            "offsets": spec.control_range.offsets.tolist(),
        }
    return {
        "dim": spec.dim,
        "drift": spec.drift.tolist(),
        "controls": [m.tolist() for m in spec.controls],
        "control_range": crange,
        "integrator": {"dt": spec.integrator.dt},
    }


def system_from_json(doc: dict) -> ControlSystemSpec:
    try:
        d = int(doc["dim"])
        drift = np.asarray(doc["drift"], dtype=float)
        controls = [np.asarray(m, dtype=float) for m in doc.get("controls", [])]
        crdoc, idoc = doc["control_range"], doc.get("integrator", {})
        if not (isinstance(crdoc, dict) and isinstance(idoc, dict)):
            raise TypeError("control_range and integrator must be objects")
        if crdoc.get("type", "box") == "box":
            crange: Box | Polytope = Box(tuple(tuple(b) for b in crdoc["bounds"]))
        else:
            crange = Polytope(
                normals=np.asarray(crdoc["normals"], dtype=float),
                offsets=np.asarray(crdoc["offsets"], dtype=float),
            )
        integ = IntegratorConfig(dt=float(idoc.get("dt", 1e-3)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed control system document: {exc}") from exc
    if drift.shape != (d, d):
        raise ValueError("drift shape disagrees with declared dimension")
    return control_system(drift, controls, crange, integ)


def load_system(path: str) -> ControlSystemSpec:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Integration


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Flow solution sampled on the integrator grid."""

    times: np.ndarray
    matrices: np.ndarray

    def value(self, t: float) -> np.ndarray:
        step = self.times[1] - self.times[0] if len(self.times) > 1 else 1.0
        idx = int(round((t - self.times[0]) / step))
        if not (0 <= idx < len(self.times)) or abs(self.times[idx] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the trajectory grid")
        return self.matrices[idx]


def _rk4_step_matrix(x: np.ndarray, h: float) -> np.ndarray:
    # classical fourth order step for a constant generator is the degree-4
    # Taylor polynomial of exp(h x), of a matrix or of each matrix in a stack
    a = h * x
    eye = np.eye(x.shape[-1])
    m = eye + a / 4.0
    m = eye + (a / 3.0) @ m
    m = eye + (a / 2.0) @ m
    return eye + a @ m


def _propagate(
    spec: ControlSystemSpec, signal: ControlSignal, T: float
) -> tuple[float, int, Iterator[tuple[np.ndarray, list]]]:
    """Signed step, step count and the RK4 transitions over [0, T], in blocks
    ``(steps, runs)``: the stacked transitions of up to ``_STEP_BLOCK`` control
    values, and the runs ``(index into steps, count)`` of identical steps that
    hold them, each ending at a control-period edge.  Runs of one value share
    its index, and an identity transition's index is None.

    ``T`` may be negative; the control is evaluated at segment midpoints, so
    the sample period must be an integer multiple of dt, the signal origin
    must sit on the step grid, and a signal of more than one value must
    cover [min(T, 0), max(T, 0)].  These are checked before any step runs.
    A control value out of range raises once the walk has taken every run
    before it.
    """
    dt = spec.integrator.dt
    if signal.n_channels != spec.n_controls:
        raise ValueError("signal channel count does not match the system")
    ratio = signal.period / dt
    if abs(ratio - round(ratio)) > 1e-6:
        raise ValueError("control sample period must be an integer multiple of dt")
    n = int(round(abs(T) / dt))
    if abs(abs(T) - n * dt) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("horizon must be an integer multiple of dt")
    offset = signal.t0 / dt
    if abs(offset - round(offset)) > 1e-6 * max(1.0, abs(offset)):
        raise ValueError("signal origin must lie on the integrator grid")
    lo, hi, tol = min(T, 0.0), max(T, 0.0), 1e-9 * max(1.0, abs(T))
    start, stop = signal.t0, signal.t0 + len(signal.values) * signal.period
    if len(signal.values) > 1 and (start > lo + tol or stop < hi - tol):
        raise ValueError(
            f"signal covers [{start:g}, {stop:g}] but the horizon needs [{lo:g}, {hi:g}]"
        )
    h = dt if T >= 0 else -dt

    def blocks() -> Iterator[tuple[np.ndarray, list]]:
        key, i = None, 0
        while i < n:
            # the block's distinct control values and its runs, up to the first value
            # out of range
            values, runs, bad = [], [], None
            while i < n:
                k = math.floor(((i + 0.5) * h - signal.t0) / signal.period) + (h > 0)
                j = min(n, math.ceil((signal.t0 + k * signal.period) / h - 0.5))
                u = signal.value_at((i + 0.5) * h)
                if u.tobytes() != key:
                    if len(values) == _STEP_BLOCK:
                        break
                    if not spec.control_range.contains(u):
                        bad = ValueError(f"control value {u.tolist()} lies outside the range")
                        break
                    key = u.tobytes()
                    values.append(u)
                runs.append((len(values) - 1, j - i))
                i = j
            if values:
                steps = _rk4_step_matrix(spec.generator(np.array(values)), h)
                identity = (steps == np.eye(spec.dim)).all(axis=(1, 2)).tolist()
                yield steps, [(None if identity[v] else v, count) for v, count in runs]
            if bad is not None:
                raise bad

    return h, n, blocks()


def integrate(spec: ControlSystemSpec, signal: ControlSignal, T: float) -> Trajectory:
    """Fixed-step RK4 flow of the right-invariant system, with determinant
    renormalization every ``_RENORM_CADENCE`` steps.

    ``T`` may be negative; see ``_propagate`` for the grid conditions.
    """
    h, n, blocks = _propagate(spec, signal, T)
    d = spec.dim
    psi = np.eye(d)
    out = [psi]
    steps = chain.from_iterable(
        repeat(None if v is None else stack[v], count)
        for stack, runs in blocks
        for v, count in runs
    )
    for i, step in enumerate(steps):
        if step is not None:
            psi = step @ psi
            if (i + 1) % _RENORM_CADENCE == 0 or i == n - 1:
                det = float(np.linalg.det(psi))
                if det <= 0.0 or abs(det - 1.0) > 1e-6:
                    raise ValueError(
                        f"determinant drift {det - 1.0:.3e} at step {i + 1}; reduce dt"
                    )
                psi = psi * det ** (-1.0 / d)
        out.append(psi)
    return Trajectory(times=h * np.arange(n + 1), matrices=np.stack(out))


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

    from .rootsys import form_value

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


@dataclass(frozen=True)
class RealizedFunctional:
    """Linear functional on diagonal vectors, with exact coefficients."""

    coeffs: tuple[Fraction | int, ...]

    def __call__(self, h: Sequence[float]) -> float:
        return float(sum(float(c) * float(v) for c, v in zip(self.coeffs, h)))


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


@dataclass(frozen=True, eq=False)
class SplitPart:
    """Ordered real spectrum data of a real-diagonalizable traceless matrix.

    ``complex_pairs`` lists adjacent column index pairs of ``basis`` that
    carry the real and imaginary parts of one complex eigenvector.
    """

    h: np.ndarray
    theta: frozenset[int]
    basis: np.ndarray
    group_ids: tuple[int, ...]
    complex_pairs: tuple[tuple[int, int], ...]


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
        raise ValueError(f"matrix is not traceless: trace = {np.trace(x)!r}")
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


@dataclass(frozen=True, eq=False)
class Drift:
    """An autonomous generator with the data its per-record checks share.

    ``x`` is split once with ``gap_tol`` (see ``split_part``); ``frame`` is
    the attractor flag of its ordered eigenbasis.  exp(t x) is computed once
    per distinct t, the cocycle curve once per step size (``cocycle``) and the
    slopes once per horizon; the cells of Weyl elements are not kept here.
    """

    x: np.ndarray
    gap_tol: float = 1e-6
    split: SplitPart = field(init=False)
    frame: FlagPoint = field(init=False)
    _memo: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        x.flags.writeable = False
        sp = split_part(x, gap_tol=self.gap_tol)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "split", sp)
        # a QR factor, special orthogonal as built; flag_point's rep.T @ rep check
        # would be verify's only BLAS syrk call, whose first use alone lifts its peak RSS
        frame = _qr_special(sp.basis)[0]
        frame.flags.writeable = False
        object.__setattr__(self, "frame", FlagPoint(rep=frame, blocks=(1,) * len(sp.h)))

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
        """exp(t x) as a read-only array, computed once per distinct ``t``."""
        return self._once(("expm", t), lambda: linalg.expm(t * self.x))

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
            from .rootsys import span_subset

            rs = type_a_system(self.dim)
            central = span_subset(rs, self.split.theta)
            roots = [r.coords for r in rs.sorted_positive_roots() if r not in central]
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
    from .flagcalc import ChainControlSetRecord

    if isinstance(record, ChainControlSetRecord) and not record.hyperbolic:
        raise ValueError("the determinant identity requires a hyperbolic record")
    return batch(_determinants, drift, spec.theta, record, spec, t)


@dataclass(frozen=True, eq=False)
class RateReport:
    """Measured growth data against the exact predictions."""

    positive_roots: tuple[tuple[int, ...], ...]
    cocycle_predicted: tuple[float, ...]
    cocycle_measured: tuple[float, ...]
    mu_estimate: float
    stable_predicted: tuple[float, ...]
    stable_measured: tuple[float, ...]
    unstable_predicted: tuple[float, ...]
    unstable_measured: tuple[float, ...]
    center_range: tuple[float, float] | None
    max_exponent_rel_error: float


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
    exp(_STEP x) on it, the one flow derivative that the determinant and the rate checks read."""


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
    tangent = _tangent_maps(*(back @ drift.expm(s) @ q for s in (_STEP, -_STEP)), rows, cols)
    maps = [[(pos, c @ tangent[pos] @ np.swapaxes(c, 1, 2)) for pos, c in groups]
            for groups in bundles]
    cells = Cells(items)
    vars(cells).update(blocks=blocks, errors=errors, frames=q, exponents=exponents,
                       functionals=functionals, bundles=bundles, maps=maps)
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
    return [
        ValueError(f"matrix is not unimodular: det = {det!r}") if abs(det - 1.0) > 1e-8 else dist
        for det, dist in zip(np.linalg.det(g).tolist(), distances)
    ]


def _determinants(drift: Drift, cells: Cells, spec, t: float) -> list:
    # per record, the relative defects of the determinant identity on the unstable and the
    # stable subbundle, None if it is not hyperbolic: x_w is fixed by the flow, so the flow
    # derivative of exp(t x) there is the t / _STEP-th power of the short-time map
    if not math.isfinite(t):
        raise ValueError(f"determinant time {t!r} is not finite")
    _check_flow_type(drift, spec)
    avec = drift.cocycle(t)[-1][1]
    logvol = np.zeros((len(cells), 2))
    for side, c in enumerate((2, 0)):
        for pos, m in cells.maps[c]:
            logvol[pos, side] = np.linalg.slogdet(m)[1]
    return [
        fs and tuple(abs(math.expm1(t / _STEP * lhs - f(avec))) for f, lhs in zip(fs, logs))
        for fs, logs in zip(cells.functionals, logvol.tolist())
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
    steps = math.ceil(T / 0.5)
    if steps > _MAX_COCYCLE_STEPS:
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
# Cocycle sampling along simulated flows


@dataclass(frozen=True, eq=False)
class CocycleSample:
    """Cocycle accumulated along a simulated trajectory at one flag."""

    times: np.ndarray
    a_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.a_values.shape[1]


def cocycle_sample(
    spec: ControlSystemSpec,
    signal: ControlSignal,
    T: float,
    flag: FlagPoint,
    *,
    sample_every: int = 10,
) -> CocycleSample:
    """Accumulate the cocycle along the integrated flow.

    The frame is refactored (discrete QR method) only when a bound on the
    condition number of the transitions' product since the last refactor
    would pass 1e4.  Each output row is that product times the frame: the
    product is one matmul onto the last row's, and the rows are multiplied
    by their frames and factored ``_QR_BATCH`` at a time, in one stacked
    matmul per refactor segment and one stacked QR; by uniqueness
    of the positive QR a row's value is the refactors' summed log-diagonal
    plus its own.  A row with no transition since the last refactor is that
    sum exactly, so identity transitions contribute zero.  Grid conditions
    are those of ``integrate``.
    """
    if not flag.is_maximal:
        raise ValueError("the cocycle is sampled at maximal flags")
    if sample_every < 1:
        raise ValueError("sample stride must be at least 1")
    h, n, blocks = _propagate(spec, signal, T)
    d, stride = spec.dim, sample_every
    frame, offset = flag.rep, np.zeros(d)
    n_rows = 1 + -(-n // stride)
    times = np.minimum(np.arange(n_rows) * stride, n) * h
    times[0] = 0.0  # not -0.0 on a backward horizon
    values = np.zeros((n_rows, d))
    # rows: the batch's rows that have a product, each held in the slot of prods at
    # its position; the first formed of them are multiplied by their frame into
    # images, and the rest share the current frame.  first is the first row since
    # the last refactor, whose offset is added to the rows once it changes
    prods, images = np.empty((2, _QR_BATCH, d, d))
    slots, rows, formed, first = list(prods), [], 0, 0
    prod, bound, i, row = None, 0.0, 0, 1
    for steps, runs in blocks:
        # cond(I + E) <= (1 + e) / (1 - e) for e = |E|_F < 1, without an SVD; e is one dot
        # product per matrix, as np.linalg.norm takes it
        flat = (steps - np.eye(d)).reshape(len(steps), 1, d * d)
        norms = np.sqrt(flat @ np.swapaxes(flat, 1, 2)).ravel().tolist()
        growths = [math.log1p(2 * e / (1 - e)) if e < 1 else math.inf for e in norms]
        # the stride's power, stacked, of each transition that a full stride may take
        full = [v for v, g in enumerate(growths) if stride * g <= _STRIDE_LOG_COND_MAX]
        strided = dict(zip(full, np.linalg.matrix_power(steps[full], stride))) if full else {}
        held = -1
        for v, count in runs:
            if v != held:
                held, powers = v, {}
                step, growth = (None, 0.0) if v is None else (steps[v], growths[v])
                if v in strided:
                    powers[stride] = strided[v]
            while count:
                if prod is not None and bound + growth > _STRIDE_LOG_COND_MAX:
                    np.matmul(prods[formed : len(rows)], frame, out=images[formed : len(rows)])
                    formed = len(rows)
                    frame, r = _qr_pos(prod @ frame)
                    values[first:row] += offset
                    offset, first = offset + np.log(np.diag(r)), row
                    prod, bound = None, 0.0
                m = min(count, stride - i % stride)
                if growth:
                    m = min(m, max(1, int((_STRIDE_LOG_COND_MAX - bound) / growth)))
                if step is not None:
                    if m not in powers:
                        powers[m] = np.linalg.matrix_power(step, m)
                    slot = slots[len(rows)]
                    if prod is None:
                        slot[...] = powers[m]
                    else:
                        np.matmul(powers[m], prod, out=slot)
                    prod = slot
                    bound += m * growth
                i += m
                count -= m
                if i % stride == 0 or i == n:
                    if prod is not None:
                        slot = slots[len(rows)]
                        if prod is not slot:  # no transition since the last row
                            slot[...] = prod
                        prod = slot
                        rows.append(row)
                    if rows and (len(rows) == _QR_BATCH or i == n):
                        np.matmul(prods[formed : len(rows)], frame, out=images[formed : len(rows)])
                        r = np.linalg.qr(images[: len(rows)], mode="r")
                        values[rows] += np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
                        rows, formed = [], 0
                    row += 1
    values[first:] += offset
    return CocycleSample(times=times, a_values=values)


def cocycle_to_csv(sample: CocycleSample) -> str:
    d = sample.dim
    row_format = "%.10g" + ",%.12g" * d
    lines = ["t," + ",".join(f"a{i + 1}" for i in range(d))]
    for t, row in zip(sample.times, sample.a_values):
        lines.append(row_format % (t, *row.tolist()))
    return "\n".join(lines) + "\n"


def flag_type_diagnostic(samples: Sequence[CocycleSample]) -> dict:
    """Estimate which simple slopes stay central over the sampled runs.

    A simple root index is reported when, over the trailing half of every
    run, its slope band [min, max] straddles zero within 0.05.  This is a
    numerical indicator, not a certificate.
    """
    if not samples:
        raise ValueError("need at least one cocycle sample")
    d = samples[0].dim
    slopes = []
    central = []
    for i in range(d - 1):
        lo, hi = math.inf, -math.inf
        for s in samples:
            t_end = abs(s.times[-1])
            if t_end == 0:
                raise ValueError("degenerate sample with zero horizon")
            sel = (np.abs(s.times) >= 0.5 * t_end) & (s.times != 0)
            y = (s.a_values[sel, i] - s.a_values[sel, i + 1]) / s.times[sel]
            lo = min(lo, float(y.min()))
            hi = max(hi, float(y.max()))
        slopes.append((lo, hi))
        if lo <= 0.05 and hi >= -0.05:
            central.append(i)
    return {"slope_bands": slopes, "estimated_flag_type": central}


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
