"""The flow layer on SL(d, R): flags as frames, control systems and their
signals, RK4 propagation of right-invariant flows, and the Iwasawa cocycle
sampled along them.

``simulate`` runs on this module alone; ``sldr`` builds its checks on it and
keeps every name here as an attribute of its own.  A flag is a special
orthogonal frame whose leading column blocks span the nested subspaces
(``FlagPoint``), and the cocycle of a transition at a frame is the log
diagonal of the sign-fixed QR of their product (``_qr_pos``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "FlagPoint",
    "Box",
    "Polytope",
    "ControlSignal",
    "IntegratorConfig",
    "ControlSystemSpec",
    "Trajectory",
    "CocycleSample",
    "blocks_from_theta",
    "standard_flag",
    "constant_signal",
    "random_signal",
    "control_system",
    "system_to_json",
    "system_from_json",
    "load_system",
    "integrate",
    "cocycle_sample",
    "cocycle_to_csv",
    "flag_type_diagnostic",
]

_STRIDE_LOG_COND_MAX = math.log(1e4)  # cocycle_sample's refactor bound
_QR_BATCH = 256  # cocycle_sample's output rows per stacked QR
_STEP_BLOCK = 256  # _propagate's control values per stack of RK4 transitions
_CSV_BLOCK = 256  # cocycle_to_csv's rows per % format
_RENORM_CADENCE = 10  # integrate's RK4 steps per determinant renormalization
# RK4 steps, or control values, that one run may take: about 1.4 s of propagation at
# 0.7 us a step, 40 times the 50,000 steps of a simulate run at T = 50
_MAX_STEPS = 2_000_000


class _Identity:
    # the value classes that hold arrays are tuples that compare and hash as objects do
    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _qr_pos(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # QR with the triangular factor's diagonal made positive, of a matrix or
    # of each matrix in a stack
    q, r = np.linalg.qr(g)
    s = np.sign(r.diagonal(0, -2, -1)).copy()
    s[s == 0] = 1.0
    return q * s[..., None, :], s[..., None] * r


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


class FlagPoint(_Identity, namedtuple("FlagPoint", "rep blocks")):
    """A flag as a special orthogonal frame plus nested block sizes."""

    __slots__ = ()

    @property
    def dim_ambient(self) -> int:
        return self.rep.shape[0]

    @property
    def is_maximal(self) -> bool:
        return all(b == 1 for b in self.blocks)


def standard_flag(d: int, theta: Iterable[int] = ()) -> FlagPoint:
    # special orthogonal as built; flag_point's rep.T @ rep, a BLAS syrk, would lift simulate's peak
    rep = np.eye(d)
    rep.flags.writeable = False
    return FlagPoint(rep=rep, blocks=blocks_from_theta(theta, d))


# ---------------------------------------------------------------------------
# Control systems and signals


class Box(namedtuple("Box", "bounds")):
    """Per-channel interval bounds; the empty box is the zero-channel range."""

    __slots__ = ()

    def __new__(cls, bounds: Iterable[tuple[float, float]]) -> Box:
        norm = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if not all(math.isfinite(x) for bound in norm for x in bound):
            raise ValueError("box bounds must be finite")
        if any(lo > hi for lo, hi in norm):
            raise ValueError("box bounds must satisfy lo <= hi")
        if not all(math.isfinite(hi - lo) for lo, hi in norm):
            raise ValueError("box widths hi - lo must be finite")
        return super().__new__(cls, norm)

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


class Polytope(_Identity, namedtuple("Polytope", "normals offsets")):
    """Half-space description {u : normals @ u <= offsets}."""

    __slots__ = ()

    def __new__(cls, normals: np.ndarray, offsets: np.ndarray) -> Polytope:
        if normals.ndim != 2 or offsets.shape != normals.shape[:1]:
            raise ValueError(
                f"polytope needs an (m, k) normal array and m offsets, got shapes "
                f"{normals.shape} and {offsets.shape}"
            )
        if not (np.isfinite(normals).all() and np.isfinite(offsets).all()):
            raise ValueError("polytope normals and offsets must be finite")
        return super().__new__(cls, normals, offsets)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains(self, u: np.ndarray) -> bool:
        return bool(np.all(self.normals @ u <= self.offsets + 1e-9))

    def zero_in_interior(self) -> bool:
        return bool(np.all(self.offsets > 0.0))


class ControlSignal(_Identity, namedtuple("ControlSignal", "values period t0")):
    """Sampled piecewise-constant control, held constant on each period."""

    __slots__ = ()

    def __new__(cls, values: np.ndarray, period: float, t0: float = 0.0) -> ControlSignal:
        if period <= 0:
            raise ValueError("sample period must be positive")
        if values.ndim != 2:
            raise ValueError("signal values must be a (samples, channels) array")
        return super().__new__(cls, values, period, t0)

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
    _check_count(abs(T) / period, "control values")
    n = max(1, int(math.ceil(abs(T) / period - 1e-9)))
    return ControlSignal(values=box.sample(rng, n), period=period, t0=min(T, 0.0))


class IntegratorConfig(namedtuple("IntegratorConfig", "dt")):
    __slots__ = ()

    def __new__(cls, dt: float = 1e-3) -> IntegratorConfig:
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        return super().__new__(cls, dt)


class ControlSystemSpec(
    _Identity, namedtuple("ControlSystemSpec", "drift controls control_range integrator")
):
    """Right-invariant bilinear system: drift plus control-weighted terms."""

    __slots__ = ()

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
    if d < 2:
        raise ValueError("SL(d) realization needs d >= 2")
    mats = [drift] + [np.array(m, dtype=float) for m in controls]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("all system matrices must share the drift's shape")
        if not np.isfinite(m).all():
            raise ValueError("system matrices must have finite entries")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(m))
        if not math.isfinite(norm):
            raise ValueError("system matrix norm exceeds double range")
        if abs(np.trace(m)) > 1e-12 * max(1.0, norm):
            raise ValueError(f"system matrix has nonzero trace {float(np.trace(m))}")
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


class Trajectory(_Identity, namedtuple("Trajectory", "times matrices")):
    """Flow solution sampled on the integrator grid."""

    __slots__ = ()

    def value(self, t: float) -> np.ndarray:
        step = self.times[1] - self.times[0] if len(self.times) > 1 else 1.0
        idx = int(round((t - self.times[0]) / step))
        if not (0 <= idx < len(self.times)) or abs(self.times[idx] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the trajectory grid")
        return self.matrices[idx]


def _check_count(count: float, what: str) -> None:
    # refuses a horizon's |T| / dt steps or |T| / period control values before they are made
    if count > _MAX_STEPS:
        raise ValueError(f"horizon needs {count:.4g} {what}, more than {_MAX_STEPS}")


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
    cover [min(T, 0), max(T, 0)].  These are checked, with the step count
    against ``_MAX_STEPS``, before any step runs.  A control value out of
    range raises once the walk has taken every run before it, and a block
    of transitions that leaves double range before its runs.
    """
    dt = spec.integrator.dt
    if signal.n_channels != spec.n_controls:
        raise ValueError("signal channel count does not match the system")
    _check_count(abs(T) / dt, "RK4 steps")
    ratio = signal.period / dt
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-6:
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
                with np.errstate(over="ignore", invalid="ignore"):
                    steps = _rk4_step_matrix(spec.generator(np.array(values)), h)
                if not np.isfinite(steps).all():
                    raise ValueError(f"an RK4 transition over dt={dt:g} leaves double range")
                identity = (steps == np.eye(spec.dim)).all(axis=(1, 2)).tolist()
                yield steps, [(None if identity[v] else v, count) for v, count in runs]
            if bad is not None:
                raise bad

    return h, n, blocks()


def integrate(spec: ControlSystemSpec, signal: ControlSignal, T: float) -> Trajectory:
    """Fixed-step RK4 flow of the right-invariant system, with determinant
    renormalization every ``_RENORM_CADENCE`` steps.

    The determinant checked and divided out is the product of the steps'
    determinants since the last renormalization, taken once per stack of
    transitions, which in exact arithmetic is det(psi): an LU determinant of
    psi itself errs by about cond(psi) eps, which a long horizon makes large.

    ``T`` may be negative; see ``_propagate`` for the grid conditions.
    """
    h, n, blocks = _propagate(spec, signal, T)
    d = spec.dim
    psi, det = np.eye(d), 1.0
    out = [psi]

    def steps() -> Iterator[tuple[np.ndarray, float] | None]:
        for stack, runs in blocks:
            dets = np.linalg.det(stack).tolist()
            for v, count in runs:
                yield from repeat(None if v is None else (stack[v], dets[v]), count)

    for i, step in enumerate(steps()):
        if step is not None:
            psi, det = step[0] @ psi, det * step[1]
            if (i + 1) % _RENORM_CADENCE == 0 or i == n - 1:
                if det <= 0.0 or abs(det - 1.0) > 1e-6:
                    raise ValueError(
                        f"determinant drift {det - 1.0:.3e} at step {i + 1}; reduce dt"
                    )
                psi, det = psi * det ** (-1.0 / d), 1.0
        out.append(psi)
    return Trajectory(times=h * np.arange(n + 1), matrices=np.stack(out))


# ---------------------------------------------------------------------------
# Cocycle sampling along simulated flows


class CocycleSample(_Identity, namedtuple("CocycleSample", "times a_values")):
    """Cocycle accumulated along a simulated trajectory at one flag."""

    __slots__ = ()

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
    product is one ``dot`` onto the last row's, and the rows are multiplied
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
    times = np.minimum(np.arange(n_rows) * min(stride, n), n) * h
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
                        powers[m].dot(prod, out=slot)  # np.matmul's BLAS gemm, dispatched faster
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
                    if m == stride and growth:
                        # the run's further whole strides, one dot per row, while the batch
                        # has room and the guard neither refactors nor splits a stride
                        power, gain, k = powers[m], m * growth, len(rows)
                        for _ in range(min(count // m, _QR_BATCH - k)):
                            if bound + growth > _STRIDE_LOG_COND_MAX or (
                                    _STRIDE_LOG_COND_MAX - bound) / growth < m:
                                break
                            prod = power.dot(prod, out=slots[len(rows)])
                            bound += gain
                            row += 1
                            rows.append(row)
                        i += (len(rows) - k) * m
                        count -= (len(rows) - k) * m
                    if rows and (len(rows) == _QR_BATCH or i == n):
                        np.matmul(prods[formed : len(rows)], frame, out=images[formed : len(rows)])
                        r = np.linalg.qr(images[: len(rows)], mode="r")
                        values[rows] += np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
                        rows, formed = [], 0
                    row += 1
    values[first:] += offset
    return CocycleSample(times=times, a_values=values)


def cocycle_to_csv(sample: CocycleSample, out: TextIO) -> None:
    """Write ``sample`` to ``out`` as CSV, a header and one row per time, each
    block of rows as it is formatted: one % per block, since a whole-table
    tolist() or the whole text would lift the peak RSS."""
    d = sample.dim
    row_format = "%.10g" + ",%.12g" * d + "\n"
    out.write("t," + ",".join(f"a{i + 1}" for i in range(d)) + "\n")
    for start in range(0, len(sample.times), _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        block = np.column_stack((sample.times[rows], sample.a_values[rows]))
        out.write(row_format * len(block) % tuple(block.ravel().tolist()))


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
