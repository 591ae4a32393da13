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
nnz x nnz matrix of X -> lower(a X a^-1) (``_tangent_map``).

The dictionary to the abstract side is the type A one: the i-th simple
root evaluates a diagonal vector ``h`` as ``h[i] - h[i+1]``, and abstract
Weyl elements act as permutation matrices built from their reduced words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .flagcalc import ChainControlSetRecord, FlagSpec
from .rootsys import RootSystem, build_root_system, form_value, span_subset
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
    "RealizationSplit",
    "RateReport",
    "CocycleSample",
    "iwasawa",
    "blocks_from_theta",
    "standard_flag",
    "flag_point",
    "flag_from_basis",
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
    "permutation_matrix",
    "fixed_flags",
    "projective_derivative_det",
    "invariant_realizations",
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


@lru_cache(maxsize=None)
def type_a_system(d: int) -> RootSystem:
    """The abstract system matching SL(d, R); rank d-1."""
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
    # QR with the triangular factor's diagonal made positive
    q, r = np.linalg.qr(g)
    s = np.sign(np.diag(r)).copy()
    s[s == 0] = 1.0
    return q * s, s[:, None] * r


def _qr_special(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sign-fixed QR with a determinant +1 orthogonal factor; the last column
    # of q and the last row of r flip together, so q @ r still equals g
    q, r = _qr_pos(g)
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
        r[-1, :] = -r[-1, :]
    return q, r


def iwasawa(
    g: np.ndarray,
    *,
    det_tol: float = 1e-8,
    cond_max: float | None = DEFAULT_COND_MAX,
) -> IwasawaTriple:
    """Iwasawa factorization of a unimodular matrix via sign-fixed QR.

    ``cond_max`` guards against inputs whose factor accuracy is
    conditioning-limited; pass None to disable the guard when the caller
    controls conditioning by other means (for example cocycle accumulation
    over short pieces of a flow).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("iwasawa needs a square matrix")
    det = float(np.linalg.det(g))
    if abs(det - 1.0) > det_tol:
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


def flag_point(rep: np.ndarray, blocks: Sequence[int], *, tol: float = 1e-9) -> FlagPoint:
    rep = np.array(rep, dtype=float)
    d = rep.shape[0]
    blocks = tuple(int(b) for b in blocks)
    if rep.ndim != 2 or rep.shape != (d, d):
        raise ValueError("flag frame must be square")
    if sum(blocks) != d or any(b < 1 for b in blocks):
        raise ValueError(f"block sizes {blocks} do not partition dimension {d}")
    if np.abs(rep.T @ rep - np.eye(d)).max() > tol:
        raise ValueError("flag frame is not orthogonal")
    if abs(np.linalg.det(rep) - 1.0) > max(tol, 1e-6):
        raise ValueError("flag frame must have determinant +1")
    rep.flags.writeable = False
    return FlagPoint(rep=rep, blocks=blocks)


def standard_flag(d: int, theta: Iterable[int] = ()) -> FlagPoint:
    return flag_point(np.eye(d), blocks_from_theta(theta, d))


def flag_from_basis(basis: np.ndarray, blocks: Sequence[int]) -> FlagPoint:
    """Orthonormalize an ordered basis; leading spans are preserved."""
    q, _ = _qr_special(np.asarray(basis, dtype=float))
    return flag_point(q, blocks)


def flag_act(psi: np.ndarray, x: FlagPoint, *, cond_max: float | None = None) -> FlagPoint:
    """Image flag under the projective action of ``psi``."""
    trip = iwasawa(np.asarray(psi, float) @ x.rep, cond_max=cond_max)
    return flag_point(trip.k, x.blocks)


def flag_distance(x: FlagPoint, y: FlagPoint) -> float:
    """Largest spectral gap between corresponding subspace projectors."""
    if x.blocks != y.blocks:
        raise ValueError("flags live on different manifolds")
    out = 0.0
    cut = 0
    for b in x.blocks[:-1]:
        cut += b
        px = x.rep[:, :cut] @ x.rep[:, :cut].T
        py = y.rep[:, :cut] @ y.rep[:, :cut].T
        out = max(out, float(np.linalg.norm(px - py, 2)))
    return out


def a_cocycle(
    psi: np.ndarray,
    flag: FlagPoint,
    *,
    cond_max: float | None = DEFAULT_COND_MAX,
) -> np.ndarray:
    """Abelian cocycle increment of ``psi`` at a maximal flag.

    The identity transition returns the exact zero vector.
    """
    if not flag.is_maximal:
        raise ValueError("the abelian cocycle is defined on maximal flags")
    psi = np.asarray(psi, dtype=float)
    d = flag.dim_ambient
    if np.array_equal(psi, np.eye(d)):
        return np.zeros(d)
    return iwasawa(psi @ flag.rep, cond_max=cond_max).a_vec


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

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        return all(lo - tol <= v <= hi + tol for (lo, hi), v in zip(self.bounds, u))

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
        if not (np.isfinite(self.normals).all() and np.isfinite(self.offsets).all()):
            raise ValueError("polytope normals and offsets must be finite")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.all(self.normals @ u <= self.offsets + tol))

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
    renorm_cadence: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.renorm_cadence < 1:
            raise ValueError("renorm cadence must be at least 1")


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
        out = self.drift.copy()
        for uj, m in zip(u, self.controls):
            out += uj * m
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
        "integrator": {
            "dt": spec.integrator.dt,
            "renorm_cadence": spec.integrator.renorm_cadence,
        },
    }


def system_from_json(doc: dict) -> ControlSystemSpec:
    try:
        d = int(doc["dim"])
        drift = np.asarray(doc["drift"], dtype=float)
        controls = [np.asarray(m, dtype=float) for m in doc.get("controls", [])]
        crdoc = doc["control_range"]
        if crdoc.get("type", "box") == "box":
            crange: Box | Polytope = Box(tuple(tuple(b) for b in crdoc["bounds"]))
        else:
            crange = Polytope(
                normals=np.asarray(crdoc["normals"], dtype=float),
                offsets=np.asarray(crdoc["offsets"], dtype=float),
            )
        idoc = doc.get("integrator", {})
        integ = IntegratorConfig(
            dt=float(idoc.get("dt", 1e-3)),
            renorm_cadence=int(idoc.get("renorm_cadence", 10)),
        )
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
    # Taylor polynomial of exp(h x)
    d = x.shape[0]
    a = h * x
    eye = np.eye(d)
    m = eye + a / 4.0
    m = eye + (a / 3.0) @ m
    m = eye + (a / 2.0) @ m
    return eye + a @ m


def _propagate(
    spec: ControlSystemSpec, signal: ControlSignal, T: float
) -> tuple[float, int, Iterator[tuple[np.ndarray | None, int]]]:
    """Signed step, step count and the RK4 transitions over [0, T], as runs
    ``(step, count)`` of identical steps that end at control-period edges.

    ``T`` may be negative; the control is evaluated at segment midpoints, so
    the sample period must be an integer multiple of dt, the signal origin
    must sit on the step grid, and a signal of more than one value must
    cover [min(T, 0), max(T, 0)].  These are checked before any step runs.
    A transition is built and range-checked when the control value changes;
    runs of one value share it, and an identity is yielded as None.
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

    def runs() -> Iterator[tuple[np.ndarray | None, int]]:
        eye = np.eye(spec.dim)
        key, step, i = None, None, 0
        while i < n:
            k = math.floor(((i + 0.5) * h - signal.t0) / signal.period) + (h > 0)
            j = min(n, math.ceil((signal.t0 + k * signal.period) / h - 0.5))
            u = signal.value_at((i + 0.5) * h)
            if u.tobytes() != key:
                if not spec.control_range.contains(u):
                    raise ValueError(f"control value {u.tolist()} lies outside the range")
                key, step = u.tobytes(), _rk4_step_matrix(spec.generator(u), h)
                step = None if np.array_equal(step, eye) else step
            yield step, j - i
            i = j

    return h, n, runs()


def integrate(spec: ControlSystemSpec, signal: ControlSignal, T: float) -> Trajectory:
    """Fixed-step RK4 flow of the right-invariant system, with determinant
    renormalization every ``renorm_cadence`` steps.

    ``T`` may be negative; see ``_propagate`` for the grid conditions.
    """
    h, n, runs = _propagate(spec, signal, T)
    d = spec.dim
    psi = np.eye(d)
    out = [psi]
    for i, step in enumerate(chain.from_iterable(repeat(*run) for run in runs)):
        if step is not None:
            psi = step @ psi
            if (i + 1) % spec.integrator.renorm_cadence == 0 or i == n - 1:
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
    *,
    n_checkpoints: int = 11,
) -> float:
    """Worst additivity defect over checkpoint pairs (t, s) with t + s <= T.

    Every term is recomputed from full transition matrices, so the identity
    is genuinely tested rather than telescoped.
    """
    if not flag.is_maximal:
        raise ValueError("cocycle identities are checked on maximal flags")
    traj = integrate(spec, signal, T)
    n = len(traj.times) - 1
    if n_checkpoints < 2 or n == 0:
        raise ValueError("need at least two checkpoints and a positive horizon")
    stride = max(1, n // (n_checkpoints - 1))
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


def time_reversal_residual(
    backward: Trajectory,
    flag: FlagPoint,
    *,
    n_samples: int = 10,
) -> float:
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
    stride = max(1, n // n_samples)
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
    *,
    tol: float = 1e-9,
) -> float:
    """Defect of cocycle invariance under a block rotation of the frame.

    ``beta`` (simple-root coordinates, exact rationals) must annihilate the
    dual vectors of the theta roots; ``k_block`` must be block diagonal for
    the theta block structure, orthogonal, of determinant +1.
    """
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
    if np.abs(k_block.T @ k_block - np.eye(d)).max() > tol:
        raise ValueError("rotation is not orthogonal")
    if abs(np.linalg.det(k_block) - 1.0) > max(tol, 1e-6):
        raise ValueError("rotation must have determinant +1")
    f = realize_functional(beta_q, d)
    moved = flag_point(flag.rep @ k_block, flag.blocks)
    return abs(f(a_cocycle(psi, moved)) - f(a_cocycle(psi, flag)))


# ---------------------------------------------------------------------------
# Functional realization


@dataclass(frozen=True)
class RealizedFunctional:
    """Linear functional on diagonal vectors, with exact coefficients."""

    coeffs: tuple[Fraction, ...]

    def __call__(self, h: Sequence[float]) -> float:
        return float(sum(float(c) * float(v) for c, v in zip(self.coeffs, h)))

    def exact(self, h: Sequence[Fraction | int]) -> Fraction:
        return sum((c * Fraction(v) for c, v in zip(self.coeffs, h)), Fraction(0))


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
    b = [Fraction(c) for c in coords]
    padded = [Fraction(0)] + b + [Fraction(0)]
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


def split_part(
    x: np.ndarray,
    *,
    gap_tol: float = 1e-6,
    cond_max: float = DEFAULT_COND_MAX,
) -> SplitPart:
    """Sorted real parts, degenerate simple roots, and an adapted real basis.

    Real parts are sorted descending; conjugate pairs contribute adjacent
    real-and-imaginary-part columns.  Gaps strictly between the zero
    threshold and ``gap_tol`` are rejected as ambiguous rather than
    silently grouped, and defective (non-diagonalizable) inputs are
    rejected through the basis condition number.
    """
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
    if not np.isfinite(cond) or cond > cond_max:
        raise ValueError(
            f"matrix is not numerically diagonalizable: eigenbasis condition "
            f"{cond:.3e} exceeds {cond_max:.1e}"
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


def permutation_matrix(w: WeylElement, d: int) -> np.ndarray:
    """The permutation matrix of a type A Weyl element on d letters."""
    if w.system.rank != d - 1:
        raise ValueError(f"Weyl element has rank {w.system.rank}, expected {d - 1}")
    p = np.eye(d)
    for i in w.reduced_word:
        p[:, [i, i + 1]] = p[:, [i + 1, i]]  # right multiplication by a transposition
    return p


def fixed_flags(x: np.ndarray | Drift, theta: Iterable[int], w: WeylElement) -> FlagPoint:
    """The invariant flag of the coset representative ``w`` for generator ``x``.

    Built by permuting the ordered eigenbasis columns and orthonormalizing;
    leading spans of eigenvector prefixes are invariant under the flow.
    """
    return _as_drift(x)._cell(theta, w)[0]


# ---------------------------------------------------------------------------
# Horizontal tangent model and derivatives


def _block_index(blocks: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(len(blocks)), blocks)


def _lower_index(blocks: tuple[int, ...]) -> np.ndarray:
    # row-major flat indices of the tangent coordinates' positions
    bid = _block_index(blocks)
    return np.flatnonzero(bid[:, None] > bid[None, :])


def _tangent_map(a: np.ndarray, a_inv: np.ndarray, blocks: tuple[int, ...]) -> np.ndarray:
    """The nnz x nnz matrix of X -> lower(a X a^-1) on tangent coordinates:
    row-major vec(a X b) = kron(a, b^T) vec(X), restricted to the positions."""
    idx = _lower_index(blocks)
    return np.kron(a, a_inv.T)[np.ix_(idx, idx)]


def _flow_tangent_map(psi: np.ndarray, x: FlagPoint) -> np.ndarray:
    # the derivative of the flag action of psi at x, in the frames of x and
    # of its image: the tangent map of the triangular factor of psi x.rep
    # (solve pivots on the diagonal of a triangular r: back substitution)
    _, r = _qr_pos(np.asarray(psi, dtype=float) @ x.rep)
    return _tangent_map(r, np.linalg.solve(r, np.eye(len(r))), x.blocks)


def _volume(tangent_map: np.ndarray, basis: np.ndarray) -> float:
    images = basis @ tangent_map.T
    return math.sqrt(max(float(np.linalg.det(images @ images.T)), 0.0))


def projective_derivative_det(
    psi: np.ndarray, x: FlagPoint, basis: np.ndarray, *, orth_tol: float = 1e-9
) -> float:
    """Unsigned volume distortion of the flag action on a tangent subspace.

    ``basis`` is a k x nnz array of orthonormal rows of tangent coordinates
    at ``x`` (see the module docstring).  The image volume is the Gram
    determinant of the transported rows; the empty basis gives 1.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.size == 0:
        return 1.0
    nnz = len(_lower_index(x.blocks))
    if basis.ndim != 2 or basis.shape[1] != nnz:
        raise ValueError(f"tangent coordinates at blocks {x.blocks} need {nnz} columns")
    if np.abs(basis @ basis.T - np.eye(len(basis))).max() > orth_tol:
        raise ValueError("tangent basis must be orthonormal")
    return _volume(_flow_tangent_map(psi, x), basis)


@dataclass(frozen=True, eq=False)
class RealizationSplit:
    """The three invariant subbundles at a fixed flag, with the predicted
    growth exponent multisets.

    Each subbundle is a read-only k x nnz array whose orthonormal rows are
    tangent coordinates in the row-major order of the module docstring.
    """

    stable: np.ndarray
    center: np.ndarray
    unstable: np.ndarray
    stable_exponents: tuple[float, ...]
    center_exponents: tuple[float, ...]
    unstable_exponents: tuple[float, ...]


def invariant_realizations(
    x: np.ndarray | Drift, theta: Iterable[int], w: WeylElement
) -> RealizationSplit:
    """Stable, center and unstable tangent realizations at the fixed flag of ``w``."""
    return _as_drift(x)._cell(theta, w)[1]


def _realize_cell(
    sp: SplitPart, theta: frozenset[int], w: WeylElement
) -> tuple[FlagPoint, RealizationSplit]:
    """Fixed flag and tangent realizations of the cell of ``w``.

    Position (i, j) grows at h_i - h_j in the permuted eigenbasis; its
    realization is the matching column of the tangent map of that basis's
    triangular factor.  Rejects arrangements that cut a complex conjugate
    pair across flag blocks: only whole pair planes are flow invariant, so
    such a cell has no fixed flag and no invariant tangent splitting.
    """
    d = len(sp.h)
    blocks = blocks_from_theta(theta, d)
    p = permutation_matrix(w, d)
    sigma = np.argmax(p, axis=0)  # flag position j holds eigen position sigma[j]
    bid = _block_index(blocks)[np.argsort(sigma)]  # block of each eigen position
    for a, b in sp.complex_pairs:
        if bid[a] != bid[b]:
            raise ValueError(
                f"cell of word {w.reduced_word} splits a complex eigenvalue pair "
                "across flag blocks; the generator fixes no flag there"
            )
    q, r = _qr_special(sp.basis @ p)
    rows, cols = np.divmod(_lower_index(blocks), d)
    hw = sp.h[sigma]
    gid = np.asarray(sp.group_ids)[sigma]
    lam = hw[rows] - hw[cols]
    center = gid[rows] == gid[cols]
    images = _tangent_map(r, np.linalg.solve(r, np.eye(d)), blocks)

    def subbundle(sel: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
        coords = np.linalg.qr(images[:, sel])[0].T
        coords.flags.writeable = False
        return coords, tuple(sorted(lam[sel].tolist()))

    (sv, se), (cv, ce), (uv, ue) = map(subbundle, (~center & (lam <= 0), center, ~center & (lam > 0)))
    return flag_point(q, blocks), RealizationSplit(sv, cv, uv, se, ce, ue)


# ---------------------------------------------------------------------------
# Verification against the exact classification


@dataclass(frozen=True, eq=False)
class Drift:
    """An autonomous generator with the data its per-record checks share.

    ``x`` is split once with ``gap_tol`` (see ``split_part``); ``frame`` is
    the attractor flag of its ordered eigenbasis.  exp(t x) is computed once
    per distinct t and the attractor-frame cocycle once per horizon.  Only
    the most recent Weyl cell's fixed flag and tangent realization are kept,
    so memory does not grow over a sweep of records.  Functions given a
    matrix in place of a Drift build one with the default ``gap_tol``.
    """

    x: np.ndarray
    gap_tol: float = 1e-6
    split: SplitPart = field(init=False)
    frame: FlagPoint = field(init=False)
    _memo: dict = field(init=False, default_factory=dict, repr=False)
    _cell_memo: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        x.flags.writeable = False
        sp = split_part(x, gap_tol=self.gap_tol)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "split", sp)
        object.__setattr__(self, "frame", flag_point(_qr_special(sp.basis)[0], (1,) * len(sp.h)))

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

    def _horizon_rates(self, T: float) -> tuple:
        """Roots outside the flow type, predicted and measured cocycle slopes
        over [0, T], and the smallest slope from time 1 on.  The cocycle is
        accumulated in steps of at most 0.5, so long horizons stay well
        conditioned."""

        def compute() -> tuple:
            rs = type_a_system(self.dim)
            central = span_subset(rs, self.split.theta)
            roots = [r.coords for r in rs.sorted_positive_roots() if r not in central]
            if not roots:
                raise ValueError(
                    f"flow type {sorted(self.split.theta)} covers every simple root: no "
                    "positive root lies outside it, so there is no rate to measure"
                )
            functionals = [realize_functional(c, self.dim) for c in roots]
            n_sub = max(1, int(math.ceil(T / 0.5)))
            dt_sub = T / n_sub
            stepm = self.expm(dt_sub)
            frame, acc = self.frame.rep, np.zeros(self.dim)
            curve = [(0.0, acc)]
            for k in range(1, n_sub + 1):
                trip = iwasawa(stepm @ frame)
                frame, acc = trip.k, acc + trip.a_vec
                curve.append((k * dt_sub, acc))
            mu = min(f(a) / tau for tau, a in curve if tau >= 1.0 - 1e-12 for f in functionals)
            predicted = tuple(f(self.split.h) for f in functionals)
            return tuple(roots), predicted, tuple(f(acc) / T for f in functionals), float(mu)

        return self._once(("rates", T), compute)

    def _cell(self, theta: Iterable[int], w: WeylElement) -> tuple[FlagPoint, RealizationSplit]:
        # keyed on the word: hashing a WeylElement builds its integer matrix
        key = (frozenset(theta), w.reduced_word)
        if key not in self._cell_memo:
            cell = _realize_cell(self.split, key[0], w)
            self._cell_memo.clear()
            self._cell_memo[key] = cell
        return self._cell_memo[key]


def _as_drift(x: np.ndarray | Drift) -> Drift:
    return x if isinstance(x, Drift) else Drift(x)


def _check_flow_type(drift: Drift, spec: FlagSpec) -> None:
    if drift.split.theta != spec.flag_type:
        raise ValueError(
            f"generator flow type {sorted(drift.split.theta)} disagrees with spec "
            f"{sorted(spec.flag_type)}"
        )


def determinant_formula_residuals(
    x: np.ndarray | Drift,
    rs: RootSystem,
    spec: FlagSpec,
    record: ChainControlSetRecord,
    t: float,
) -> tuple[float, float]:
    """Relative defects of the Jacobian determinant identity at time ``t``.

    Left side: Gram volume of the flow derivative on the unstable (stable)
    realization at the record's fixed flag.  Right side: exponential of the
    record's growth functional evaluated on the cocycle of the adapted
    frame.  Returns (unstable defect, stable defect).
    """
    if not record.hyperbolic:
        raise ValueError("the determinant identity requires a hyperbolic record")
    drift = _as_drift(x)
    _check_flow_type(drift, spec)
    psi = drift.expm(t)
    avec = drift._once(("a", t), lambda: a_cocycle(psi, drift.frame, cond_max=None))
    xw, real = drift._cell(spec.theta, record.rep)
    tangent_map = _flow_tangent_map(psi, xw)
    out = []
    for sig, basis in ((record.sigma_plus, real.unstable), (record.sigma_minus, real.stable)):
        lhs = _volume(tangent_map, basis)
        rhs = math.exp(realize_functional(sig, drift.dim)(avec))
        out.append(abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return out[0], out[1]


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
    x: np.ndarray | Drift,
    rs: RootSystem,
    spec: FlagSpec,
    record: ChainControlSetRecord,
    T: float,
    *,
    require_hyperbolic: bool = True,
    step: float = 0.25,
) -> RateReport:
    """Measure cocycle slopes and subbundle singular value exponents.

    The cocycle slopes come from the drift's attractor frame and do not
    depend on the record.  Subbundle derivatives are powers of a single
    short-time endomorphism at the fixed flag of the record.  Center
    realizations only appear on non-hyperbolic records, which must be
    enabled explicitly.
    """
    if T < 1.0:
        raise ValueError("need a horizon of at least 1")
    if not record.hyperbolic and require_hyperbolic:
        raise ValueError(
            "record is not hyperbolic; pass require_hyperbolic=False for "
            "center diagnostics"
        )
    drift = _as_drift(x)
    d = drift.dim
    if rs.family != "A" or rs.rank != d - 1:
        raise ValueError(f"root system {rs.lie_type} does not match SL({d})")
    _check_flow_type(drift, spec)
    roots, predicted, measured, mu = drift._horizon_rates(T)

    # subbundle exponents from singular values of powered short-time maps
    xw, real = drift._cell(spec.theta, record.rep)
    m_step = xw.rep.T @ drift.expm(step) @ xw.rep
    m_inv = xw.rep.T @ drift.expm(-step) @ xw.rep
    tangent_map = _tangent_map(m_step, m_inv, xw.blocks)
    n_pow = max(1, int(round(T / step)))
    horizon = n_pow * step

    def log_singular_values(powered: np.ndarray) -> np.ndarray:
        finite = np.isfinite(powered).all()
        sv = linalg.singular_values(powered) if finite else None
        if not finite or not (np.isfinite(sv).all() and sv.min() > 0):
            raise ValueError(
                f"record {record.rep.reduced_word}: the powered short-time map leaves "
                f"double range over horizon {horizon:g}; shorten --T"
            )
        return np.log(sv)

    def measured_exponents(basis: np.ndarray) -> tuple[float, ...]:
        if not len(basis):
            return ()
        powered = np.linalg.matrix_power(basis @ tangent_map @ basis.T, n_pow)
        return tuple(sorted((log_singular_values(powered) / horizon).tolist()))

    # an overflowing power is rejected as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        stable_meas = measured_exponents(real.stable)
        unstable_meas = measured_exponents(real.unstable)
        center_range: tuple[float, float] | None = None
        if len(real.center):
            powers = [real.center @ tangent_map @ real.center.T]
            for _ in range(n_pow - 1):
                powers.append(powers[0] @ powers[-1])
            logs = log_singular_values(np.stack(powers)) / (step * np.arange(1, n_pow + 1))[:, None]
            center_range = (float(logs.min()), float(logs.max()))

    pairs = zip(real.stable_exponents + real.unstable_exponents, stable_meas + unstable_meas)
    rel = max((abs(m - p) / max(abs(p), 1e-12) for p, m in pairs), default=0.0)

    return RateReport(
        positive_roots=roots,
        cocycle_predicted=predicted,
        cocycle_measured=measured,
        mu_estimate=mu,
        stable_predicted=real.stable_exponents,
        stable_measured=stable_meas,
        unstable_predicted=real.unstable_exponents,
        unstable_measured=unstable_meas,
        center_range=center_range,
        max_exponent_rel_error=float(rel),
    )


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
    would pass 1e4.  Each output row is that product times the frame; rows
    are factored ``_QR_BATCH`` at a time in one stacked QR, and by uniqueness
    of the positive QR a row's value is the refactors' summed log-diagonal
    plus its own.  A row with no transition since the last refactor is that
    sum exactly, so identity transitions contribute zero.  Grid conditions
    are those of ``integrate``.
    """
    if not flag.is_maximal:
        raise ValueError("the cocycle is sampled at maximal flags")
    if sample_every < 1:
        raise ValueError("sample stride must be at least 1")
    h, n, runs = _propagate(spec, signal, T)
    d = spec.dim
    frame, offset = flag.rep, np.zeros(d)
    times = [0.0]
    values = np.zeros((1 + -(-n // sample_every), d))
    batch, rows = np.empty((_QR_BATCH, d, d)), []
    held, prod, bound, i = False, None, 0.0, 0
    for step, count in runs:
        if step is not held:
            # cond(I + E) <= (1 + e) / (1 - e) for e = |E|_F < 1, without an SVD
            e = 0.0 if step is None else float(np.linalg.norm(step - np.eye(d)))
            held, powers, growth = step, {}, math.log1p(2 * e / (1 - e)) if e < 1 else math.inf
        while count:
            if prod is not None and bound + growth > _STRIDE_LOG_COND_MAX:
                frame, r = _qr_pos(prod @ frame)
                offset = offset + np.log(np.diag(r))
                prod, bound = None, 0.0
            m = min(count, sample_every - i % sample_every)
            if growth:
                m = min(m, max(1, int((_STRIDE_LOG_COND_MAX - bound) / growth)))
            if step is not None:
                if m not in powers:
                    powers[m] = np.linalg.matrix_power(step, m)
                prod = powers[m] if prod is None else powers[m] @ prod
                bound += m * growth
            i += m
            count -= m
            if i % sample_every == 0 or i == n:
                values[len(times)] = offset
                if prod is not None:
                    np.matmul(prod, frame, out=batch[len(rows)])
                    rows.append(len(times))
                if rows and (len(rows) == _QR_BATCH or i == n):
                    r = np.linalg.qr(batch[: len(rows)], mode="r")
                    values[rows] += np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
                    rows.clear()
                times.append(i * h)
    return CocycleSample(times=np.asarray(times), a_values=values)


def cocycle_to_csv(sample: CocycleSample) -> str:
    d = sample.dim
    row_format = "%.10g" + ",%.12g" * d
    lines = ["t," + ",".join(f"a{i + 1}" for i in range(d))]
    for t, row in zip(sample.times, sample.a_values):
        lines.append(row_format % (t, *row.tolist()))
    return "\n".join(lines) + "\n"


def flag_type_diagnostic(
    samples: Sequence[CocycleSample],
    *,
    window: float = 0.5,
    margin: float = 0.05,
) -> dict:
    """Estimate which simple slopes stay central over the sampled runs.

    A simple root index is reported when, over the trailing ``window``
    fraction of every run, its slope band [min, max] straddles zero within
    ``margin``.  This is a numerical indicator, not a certificate.
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
            sel = (np.abs(s.times) >= (1.0 - window) * t_end) & (s.times != 0)
            y = (s.a_values[sel, i] - s.a_values[sel, i + 1]) / s.times[sel]
            lo = min(lo, float(y.min()))
            hi = max(hi, float(y.max()))
        slopes.append((lo, hi))
        if lo <= margin and hi >= -margin:
            central.append(i)
    return {"slope_bands": slopes, "estimated_flag_type": central}


# ---------------------------------------------------------------------------
# Random sampling helpers


def random_traceless(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
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
