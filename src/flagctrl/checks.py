"""The checks of ``verify`` on a batch of Weyl cells at once, a few stacked numpy calls per
batch.  ``sldr.fixed_flags``, ``determinant_formula_residuals`` and ``verify_rates`` run them
through ``batch``, on one item or on a list; ``check_records`` hands them ``CHUNK`` records at a
time.  A stacked LAPACK, BLAS or Jacobi call treats each matrix as a call on it alone does, so a
record's numbers do not depend on its batch."""

from __future__ import annotations

# sldr before numpy: compiled from source before numpy loads, it does not raise verify's peak memory
from . import sldr
from .sldr import FlagPoint, RateReport, _block_index, _check_flow_type, _flag_distances
from .sldr import _lower_index, _qr_pos, _qr_special, a_cocycle
from .sldr import blocks_from_theta, realize_functional

import math
from collections import namedtuple
from itertools import accumulate, repeat
from typing import Iterator

import numpy as np

from . import linalg

CHUNK = 64  # records realized and checked together; a chunk's stacks set verify's peak memory
_STEP = 0.25  # time of the short-time map whose powers give the growth exponents

# Per cell: why it fixes no flag (or None), its frame, its sorted stable, center and unstable
# exponents; ``bundles[c]`` lists (cells, their k x nnz coordinates) per size k of subbundle c.
Cells = namedtuple("Cells", "blocks rows cols errors frames exponents bundles")


def value(entry):
    """A check's entry; an entry that holds an error raises it."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def batch(stage, drift, theta, items, *args):
    """``stage(drift, cells, items, *args)`` on a list of Weyl elements or records, realized as
    one batch: one entry per item, its value or the ValueError that stops it.  On one item, its
    value.  An error of the whole batch comes before a cell's, and a cell's before the stage's."""
    group = items if isinstance(items, (list, tuple)) else [items]
    cells = drift._cells(theta, [getattr(x, "rep", x) for x in group])  # a record's element
    try:
        entries = [err or v for err, v in zip(cells.errors, stage(drift, cells, group, *args))]
    except ValueError as exc:
        entries = [exc] * len(group)
    return entries if group is items else value(entries[0])


def _tangent_map(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # X -> lower(a X b), b = a^-1, for a stack of a: row-major vec(a X b) = kron(a, b^T) vec(X),
    # at the tangent positions (rows, cols)
    out = a[..., rows[:, None], rows[None, :]]  # a gather copies, so the product goes in place
    out *= b[..., cols[None, :], cols[:, None]]
    return out


def realize(drift: sldr.Drift, theta: frozenset[int], elements: list) -> Cells:
    """The cells of ``elements``: flag position j holds eigen position sigma[j], and (i, j),
    growing at h_i - h_j, is realized by the matching column of the tangent map of the permuted
    eigenbasis's triangular factor.  A cell cutting a complex pair across blocks fixes no flag."""
    sp, d = drift.split, drift.dim
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
    return Cells(blocks, rows, cols, errors, q, exponents, _subbundles(r, rows, cols, masks))


def _subbundles(r: np.ndarray, rows: np.ndarray, cols: np.ndarray, masks: tuple) -> list:
    # per mask, (cells, their k x nnz coordinates) per size k: one QR of the k masked columns
    # of the tangent maps of the triangular factors r of the cells with k of them
    images = _tangent_map(r, np.linalg.solve(r, np.eye(r.shape[-1])), rows, cols)
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


def _flags(drift: sldr.Drift, cells: Cells, elements: list) -> list:
    return [FlagPoint(rep=frame, blocks=cells.blocks) for frame in cells.frames]


def flag_drifts(drift: sldr.Drift, cells: Cells) -> list:
    """flag_distance(flag_act(exp(x / 2), x_w), x_w) at each cell's fixed flag x_w."""
    g = drift.expm(0.5) @ cells.frames
    distances = _flag_distances(_qr_pos(g)[0], cells.frames, cells.blocks)
    return [
        ValueError(f"matrix is not unimodular: det = {det!r}") if abs(det - 1.0) > 1e-8 else dist
        for det, dist in zip(np.linalg.det(g).tolist(), distances)
    ]


def _determinants(drift: sldr.Drift, cells: Cells, records: list, spec, t: float) -> list:
    # per record, the relative defects of the determinant identity on the unstable and the
    # stable subbundle, None if it is not hyperbolic: the flow derivative of psi = exp(t x) at
    # x_w is the tangent map of the triangular factor of psi x_w
    _check_flow_type(drift, spec)
    psi = drift.expm(t)
    avec = a_cocycle(psi, drift.frame, cond_max=None)
    r = _qr_pos(psi @ cells.frames)[1]
    flow = _tangent_map(r, np.linalg.solve(r, np.eye(len(psi))), cells.rows, cells.cols)
    gram = np.empty((len(records), 2))
    for side, c in enumerate((2, 0)):
        for pos, coords in cells.bundles[c]:
            images = coords @ np.swapaxes(flow[pos], 1, 2)
            gram[pos, side] = np.linalg.det(images @ np.swapaxes(images, 1, 2))
    out = []
    for rec, grams in zip(records, gram.tolist()):
        if not rec.hyperbolic:
            out.append(None)
            continue
        fs = [realize_functional(s, drift.dim) for s in (rec.sigma_plus, rec.sigma_minus)]
        sides = [(math.sqrt(max(v, 0.0)), math.exp(f(avec))) for f, v in zip(fs, grams)]
        out.append(tuple(abs(lhs - rhs) / max(abs(rhs), 1e-300) for lhs, rhs in sides))
    return out


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


def _rates(drift: sldr.Drift, cells: Cells, records: list, spec, T: float) -> list:
    # per record, its RateReport: growth exponents from singular values of powers of the
    # tangent map of exp(_STEP x) at x_w on each subbundle, and the center's slope band
    if T < 1.0:
        raise ValueError("need a horizon of at least 1")
    _check_flow_type(drift, spec)
    roots, predicted, measured, mu = drift._horizon_rates(T)
    n_pow = max(1, int(round(T / _STEP)))
    horizon, scale = n_pow * _STEP, (_STEP * np.arange(1, n_pow + 1))[:, None]
    back = np.swapaxes(cells.frames, 1, 2)
    ends = (back @ drift.expm(s) @ cells.frames for s in (_STEP, -_STEP))
    tangent = _tangent_map(*ends, cells.rows, cells.cols)
    maps = [
        (c, pos, coords @ tangent[pos] @ np.swapaxes(coords, 1, 2))
        for c, groups in enumerate(cells.bundles) for pos, coords in groups if coords.shape[1]
    ]
    del tangent  # the nnz x nnz stack, not the arithmetic, sets verify's peak memory
    found = [[(), (), ()] for _ in records]  # per record and subbundle; the center's is its band
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
    for rec, (se, _, ue), (stable, band, unstable) in zip(records, cells.exponents, found):
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


def check_records(drift: sldr.Drift, spec, records: list, T: float, det_times: list) -> Iterator:
    """Per record, through ``sldr``'s checks on ``CHUNK`` records at a time: why its cell fixes
    no flag (or None), that flag's drift under exp(x / 2), its determinant defects at each of
    ``det_times`` and its RateReport.  Entries that are errors are raised by ``value``, so the
    caller meets them in its own order."""
    for start in range(0, len(records), CHUNK):
        chunk = records[start : start + CHUNK]
        elements = [rec.rep for rec in chunk]
        flags = sldr.fixed_flags(drift, spec.theta, elements)
        skips = [x if isinstance(x, ValueError) else None for x in flags]
        drifts = flag_drifts(drift, drift._cells(spec.theta, elements))  # the cells just realized
        dets = [sldr.determinant_formula_residuals(drift, spec, chunk, t) for t in det_times]
        reports = sldr.verify_rates(drift, spec, chunk, T)
        drift._cells_memo.clear()  # the chunk's cells are done with
        yield from zip(skips, drifts, list(zip(*dets)) or [()] * len(chunk), reports)
