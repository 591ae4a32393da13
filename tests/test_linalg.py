"""The numpy matrix exponential and Jacobi SVD against scipy's."""

import math

import numpy as np
import pytest
import scipy.linalg

from flagctrl import linalg
from flagctrl.flagcalc import FlagSpec, enumerate_chain_control_sets
from flagctrl.sldr import Drift, random_special_orthogonal, verify_rates


def dgejsv_singular_values(m):
    sva, _, _, work, _, info = scipy.linalg.lapack.dgejsv(m, joba=2, jobu=3, jobv=3)
    assert info == 0
    return np.sort(sva * (work[1] / work[0]))[::-1]


def test_expm_matches_scipy():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for scale in (1e-3, 0.3, 1.0, 4.0, 20.0):
            a = rng.standard_normal((n, n)) * scale / math.sqrt(n)
            ref = scipy.linalg.expm(a)
            # at 1-norm 20, scipy's own error against a 50-digit exponential
            # reaches 1e-12 of the largest entry, ours 5e-15
            assert np.abs(linalg.expm(a) - ref).max() <= 1e-11 * np.abs(ref).max()


def test_expm_exact_on_symmetric_drifts():
    rng = np.random.default_rng(8)
    for d in (3, 4, 5):
        q = random_special_orthogonal(rng, d)
        x = q @ np.diag(np.linspace(2.0, -2.0, d)) @ q.T
        evals, evecs = np.linalg.eigh(x)
        for t in (0.25, 0.5, 1.0, 2.0):
            exact = (evecs * np.exp(t * evals)) @ evecs.T
            assert np.abs(linalg.expm(t * x) - exact).max() <= 1e-14 * np.abs(exact).max()


def test_singular_values_on_graded_products():
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for c in (0.5, 2.0, 5.0):
            q1 = random_special_orthogonal(rng, n)
            q2 = random_special_orthogonal(rng, n)
            # orthogonal factors mix the grading into every entry, so each
            # value is only as accurate as a backward error of eps*|m| allows
            m = q1 @ np.diag(np.exp(-c * np.arange(n))) @ q2
            ref = dgejsv_singular_values(m)
            err = np.abs(np.log(linalg.singular_values(m)) - np.log(ref))
            assert (err <= 1e-13 * ref[0] / ref).all()
            # row and column scalings keep the grading in the entries; there
            # every value is relatively accurate, where a bidiagonalizing SVD
            # loses the small ones
            g = np.exp(-c * rng.permutation(n))[:, None] * rng.standard_normal((n, n))
            g = g * np.exp(-c * rng.permutation(n))
            ref = dgejsv_singular_values(g)
            assert np.abs(np.log(linalg.singular_values(g)) - np.log(ref)).max() <= 1e-11


def test_singular_values_past_the_squared_range():
    # singular values spread past e^355, so their squares do not fit one
    # double range; the scaled columns keep every value
    rng = np.random.default_rng(12)
    for n in (5, 8):
        g = np.exp(-60.0 * rng.permutation(n))[:, None] * rng.standard_normal((n, n))
        g = g * np.exp(30.0 * rng.permutation(n))
        ref = dgejsv_singular_values(g)
        assert math.log(ref[0] / ref[-1]) > 355.0
        assert np.abs(np.log(linalg.singular_values(g)) - np.log(ref)).max() <= 1e-12


def test_singular_values_on_flat_and_rank_deficient_matrices():
    # odd sizes carry a zero pad column, many +-1 matrices are singular and
    # the last of each stack has a zero column; no ratio of scales may
    # overflow on the way, and the values hold to eps of the largest
    for n in (5, 7, 9):
        ms = np.random.default_rng(n).choice([-1.0, 1.0], size=(40, n, n))
        ms[-1, :, n // 2] = 0.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            stacked = linalg.singular_values(ms)
        for m, sv in zip(ms, stacked):
            ref = dgejsv_singular_values(m)
            assert np.abs(sv - ref).max() <= 4 * n * np.finfo(float).eps * ref[0]
        assert stacked[-1, -1] <= 4 * n * np.finfo(float).eps * stacked[-1, 0]


def test_singular_values_on_powered_subbundle_maps(w_a3, a3, monkeypatch):
    seen = []
    jacobi = linalg.singular_values

    def recorded(m):
        seen.append(np.array(m))
        return jacobi(m)

    monkeypatch.setattr(linalg, "singular_values", recorded)
    q = random_special_orthogonal(np.random.default_rng(44), 4)
    for spectrum, ftype in (((3.0, 1.0, -1.0, -3.0), ()), ((2.0, 2.0, -2.0, -2.0), (0, 2))):
        drift = Drift(q @ np.diag(spectrum) @ q.T)
        spec = FlagSpec(theta=frozenset(), flag_type=frozenset(ftype))
        for rec in enumerate_chain_control_sets(w_a3, spec):
            verify_rates(drift, a3, spec, rec, 10.0, require_hyperbolic=False)
    stacks = [m for m in seen if m.ndim == 3]
    assert stacks and all(len(m) == 40 for m in stacks)  # one call per center band
    span = 0.0
    for m in (m for ms in seen for m in ms.reshape((-1,) + ms.shape[-2:])):
        ref = dgejsv_singular_values(m)
        assert np.abs(np.log(jacobi(m)) - np.log(ref)).max() <= 1e-13
        span = max(span, math.log(ref[0] / ref[-1]))
    assert span > 40.0  # graded well past what a bidiagonalizing SVD resolves


def test_singular_values_stacked_equals_per_matrix():
    rng = np.random.default_rng(10)
    for n in (1, 2, 5, 6):
        ms = np.exp(-3.0 * rng.permutation(n))[:, None] * rng.standard_normal((7, n, n))
        stacked = linalg.singular_values(ms)
        assert stacked.shape == (7, n)
        for m, sv in zip(ms, stacked):
            assert np.array_equal(linalg.singular_values(m), sv)


def test_singular_values_refuses_to_stop_unconverged(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    m = np.random.default_rng(11).standard_normal((6, 6))
    with pytest.raises(ValueError, match="did not converge"):
        linalg.singular_values(m)
