import io
import math
import re

import numpy as np
import pytest
import scipy.linalg

import oracles
from flagctrl import flows, sldr
from flagctrl.flagcalc import FlagSpec, enumerate_chain_control_sets
from flagctrl.sldr import (
    Box,
    ControlSignal,
    Drift,
    IntegratorConfig,
    Polytope,
    a_cocycle,
    blocks_from_theta,
    cocycle_additivity_residual,
    cocycle_sample,
    cocycle_to_csv,
    constant_signal,
    control_system,
    determinant_formula_residuals,
    fixed_flags,
    flag_act,
    flag_distance,
    flag_point,
    flag_type_diagnostic,
    integrate,
    iwasawa,
    ktheta_invariance_residual,
    load_system,
    random_signal,
    random_special_orthogonal,
    random_traceless,
    random_unimodular,
    realize_functional,
    split_part,
    standard_flag,
    system_from_json,
    system_to_json,
    time_reversal_residual,
    type_a_system,
    verify_rates,
)
from flagctrl.weyl import generate

from fractions import Fraction


def word_element(group, word):
    return next(g for g in group.elements if g.reduced_word == tuple(word))


def csv_text(sample):
    out = io.StringIO()
    cocycle_to_csv(sample, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Iwasawa factorization


def test_iwasawa_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        g = random_unimodular(rng, d)
        trip = iwasawa(g)
        assert np.abs(trip.k.T @ trip.k - np.eye(d)).max() < 1e-12
        assert abs(np.linalg.det(trip.k) - 1.0) < 1e-10
        assert np.array_equal(np.diag(trip.n), np.ones(d))
        assert np.abs(np.tril(trip.n, -1)).max() == 0.0
        recon = trip.k @ np.diag(np.exp(trip.a_vec)) @ trip.n
        assert np.abs(recon - g).max() < 1e-12


def test_iwasawa_rejects_bad_input():
    with pytest.raises(ValueError, match="unimodular"):
        iwasawa(2.0 * np.eye(2))
    # a determinant past double range is named as that, not as det = inf
    too_large = "too ill-conditioned or too large for double range: its LU determinant is inf"
    with pytest.raises(ValueError, match=too_large):
        iwasawa(1e100 * np.eye(4))
    with pytest.raises(ValueError, match="square"):
        iwasawa(np.ones((2, 3)))
    spread = np.diag([1e9, 1e-9])
    with pytest.raises(ValueError, match="ill-conditioned"):
        iwasawa(spread)
    trip = iwasawa(spread, cond_max=None)
    assert np.allclose(trip.a_vec, [np.log(1e9), np.log(1e-9)])


# ---------------------------------------------------------------------------
# Flag points


def test_blocks_from_theta():
    assert blocks_from_theta((), 4) == (1, 1, 1, 1)
    assert blocks_from_theta({0}, 4) == (2, 1, 1)
    assert blocks_from_theta({1}, 4) == (1, 2, 1)
    assert blocks_from_theta({0, 1}, 4) == (3, 1)
    assert blocks_from_theta({0, 1, 2}, 4) == (4,)
    with pytest.raises(ValueError, match="out of range"):
        blocks_from_theta({3}, 4)


def test_flag_point_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        flag_point(np.array([[1.0, 0.5], [0.0, 1.0]]), (1, 1))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="determinant"):
        flag_point(swap, (1, 1))
    with pytest.raises(ValueError, match="partition"):
        flag_point(np.eye(3), (2, 2))
    x = standard_flag(3, theta={0})
    assert x.blocks == (2, 1)
    assert not x.is_maximal
    with pytest.raises(ValueError):
        x.rep[0, 0] = 5.0  # frames are frozen


def test_flag_act_and_distance():
    x = standard_flag(3)
    assert flag_distance(x, x) == 0.0
    psi = scipy.linalg.expm(0.3 * np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]]))
    y = flag_act(psi, x)
    assert y.blocks == x.blocks
    assert flag_distance(x, y) > 1e-3
    assert abs(flag_distance(x, y) - flag_distance(y, x)) < 1e-14
    with pytest.raises(ValueError, match="different manifolds"):
        flag_distance(x, standard_flag(3, theta={0}))


def test_a_cocycle_identity_and_diagonal():
    flag = standard_flag(4)
    zero = a_cocycle(np.eye(4), flag)
    assert np.array_equal(zero, np.zeros(4))
    h = np.array([2.0, -1.0, -1.0])
    a = a_cocycle(np.diag(np.exp(h)), standard_flag(3))
    assert np.abs(a - h).max() < 1e-12
    with pytest.raises(ValueError, match="maximal"):
        a_cocycle(np.eye(3), standard_flag(3, theta={0}))


# ---------------------------------------------------------------------------
# Control ranges, signals, systems


def test_box():
    with pytest.raises(ValueError, match="lo <= hi"):
        Box(((1.0, -1.0),))
    b = Box(((-1.0, 1.0), (0.5, 2.0)))
    assert b.dim == 2
    assert b.contains(np.array([0.0, 1.0]))
    assert not b.contains(np.array([0.0, 3.0]))
    assert not b.zero_in_interior()
    assert Box(((-1.0, 1.0),)).zero_in_interior()
    rng = np.random.default_rng(3)
    pts = b.sample(rng, 8)
    assert pts.shape == (8, 2)
    assert all(b.contains(p) for p in pts)
    assert Box(()).sample(rng, 5).shape == (5, 0)


def test_polytope():
    square = Polytope(
        normals=np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]),
        offsets=np.array([1.0, 1.0, 1.0, 1.0]),
    )
    assert square.dim == 2
    assert square.contains(np.array([0.5, -0.5]))
    assert not square.contains(np.array([2.0, 0.0]))
    assert square.zero_in_interior()
    touching = Polytope(normals=np.array([[1.0]]), offsets=np.array([0.0]))
    assert not touching.zero_in_interior()


def test_control_system_validation():
    good_drift = np.diag([1.0, -1.0])
    ctrl = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="trace"):
        control_system(np.eye(2), [], Box(()))
    with pytest.raises(ValueError, match="shape"):
        control_system(good_drift, [np.zeros((3, 3))], Box(((-1, 1),)))
    with pytest.raises(ValueError, match="does not match"):
        control_system(good_drift, [ctrl], Box(()))
    with pytest.raises(ValueError, match="interior"):
        control_system(good_drift, [ctrl], Box(((0.0, 1.0),)))
    spec = control_system(good_drift, [ctrl], Box(((-1.0, 1.0),)))
    assert spec.dim == 2 and spec.n_controls == 1
    gen = spec.generator(np.array([0.25]))
    assert np.abs(gen - (good_drift + 0.25 * ctrl)).max() == 0.0
    with pytest.raises(ValueError):
        spec.drift[0, 0] = 7.0  # matrices are frozen


def test_control_system_rejects_non_finite():
    good_drift = np.diag([1.0, -1.0])
    ctrl = np.array([[0.0, 1.0], [1.0, 0.0]])
    for bad in (math.nan, math.inf, -math.inf):
        spoiled = np.array([[0.0, bad], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            control_system(good_drift + spoiled, [ctrl], Box(((-1.0, 1.0),)))
        with pytest.raises(ValueError, match="finite"):
            control_system(good_drift, [ctrl + spoiled], Box(((-1.0, 1.0),)))
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(dt=bad)


def test_control_signal_lookup():
    with pytest.raises(ValueError, match="positive"):
        ControlSignal(values=np.zeros((1, 1)), period=0.0)
    with pytest.raises(ValueError, match="array"):
        ControlSignal(values=np.zeros(3), period=1.0)
    sig = ControlSignal(values=np.array([[0.0], [1.0], [2.0]]), period=0.5)
    assert sig.n_channels == 1
    assert sig.value_at(0.0) == 0.0
    assert sig.value_at(0.49) == 0.0
    assert sig.value_at(0.5) == 1.0
    assert sig.value_at(1.2) == 2.0
    assert sig.value_at(9.0) == 2.0  # clamped past the last sample
    assert sig.value_at(-3.0) == 0.0
    assert constant_signal([0.3, -0.2]).values.shape == (1, 2)


# ---------------------------------------------------------------------------
# Integration


def two_by_two_system():
    drift = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ctrl = np.array([[0.3, 0.0], [0.0, -0.3]])
    return control_system(drift, [ctrl], Box(((-1.0, 1.0),)))


def test_integrate_matches_expm():
    spec = two_by_two_system()
    sig = constant_signal([0.5])
    traj = integrate(spec, sig, 1.0)
    x = spec.generator(np.array([0.5]))
    assert np.abs(traj.value(1.0) - scipy.linalg.expm(x)).max() < 1e-10
    assert abs(np.linalg.det(traj.value(1.0)) - 1.0) < 1e-9


def test_integrate_negative_horizon():
    spec = two_by_two_system()
    sig = constant_signal([0.5])
    traj = integrate(spec, sig, -1.0)
    x = spec.generator(np.array([0.5]))
    assert traj.times[0] == 0.0 and traj.times[-1] == -1.0
    assert np.abs(traj.value(-1.0) - scipy.linalg.expm(-x)).max() < 1e-10


def test_integrate_grid_validation():
    spec = two_by_two_system()
    with pytest.raises(ValueError, match="integer multiple"):
        integrate(spec, constant_signal([0.5], period=0.0007), 1.0)
    with pytest.raises(ValueError, match="multiple of dt"):
        integrate(spec, constant_signal([0.5]), 0.0005)
    with pytest.raises(ValueError, match="channel count"):
        integrate(spec, constant_signal([0.5, 0.1]), 1.0)
    with pytest.raises(ValueError, match="outside the range"):
        integrate(spec, constant_signal([5.0]), 1.0)


def test_integrate_zero_system_is_exact_identity():
    spec = control_system(np.zeros((3, 3)), [], Box(()))
    traj = integrate(spec, constant_signal([]), 1.0)
    assert np.array_equal(traj.matrices[-1], np.eye(3))


def test_signal_must_cover_horizon():
    spec = two_by_two_system()
    sig = random_signal(np.random.default_rng(3), spec.control_range, 1.0, 0.1)
    for T, needed in ((2.0, r"\[0, 2\]"), (-1.0, r"\[-1, 0\]")):
        with pytest.raises(ValueError, match=r"covers \[0, 1\] .*" + needed):
            integrate(spec, sig, T)
        with pytest.raises(ValueError, match=r"covers \[0, 1\] .*" + needed):
            cocycle_sample(spec, sig, T, standard_flag(2))
    assert len(integrate(spec, sig, 1.0).times) == 1001
    # one value holds for any horizon
    for T in (-3.0, 5.0):
        sample = cocycle_sample(spec, constant_signal([0.5]), T, standard_flag(2))
        assert len(sample.times) == 1 + 100 * abs(T)


def test_trajectory_off_grid_time_rejected():
    spec = two_by_two_system()
    traj = integrate(spec, constant_signal([0.0]), 0.01)
    with pytest.raises(ValueError, match="grid"):
        traj.value(0.0005)


# ---------------------------------------------------------------------------
# Serialization


def test_system_json_round_trip():
    spec = two_by_two_system()
    doc = system_to_json(spec)
    back = system_from_json(doc)
    assert np.array_equal(back.drift, spec.drift)
    assert all(np.array_equal(a, b) for a, b in zip(back.controls, spec.controls))
    assert back.control_range.bounds == spec.control_range.bounds
    assert back.integrator == spec.integrator


def test_system_json_polytope_round_trip():
    tri = Polytope(
        normals=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        offsets=np.array([1.0, 1.0, 1.0]),
    )
    spec = control_system(
        np.diag([1.0, 0.0, -1.0]),
        [np.diag([0.2, -0.2, 0.0]), np.diag([0.0, 0.2, -0.2])],
        tri,
    )
    back = system_from_json(system_to_json(spec))
    assert isinstance(back.control_range, Polytope)
    assert np.array_equal(back.control_range.normals, tri.normals)


def test_system_json_malformed():
    with pytest.raises(ValueError, match="malformed"):
        system_from_json({"dim": 2})
    good = system_to_json(two_by_two_system())
    good["dim"] = 3
    with pytest.raises(ValueError, match="disagrees"):
        system_from_json(good)


def test_load_system(tmp_path):
    import json

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(two_by_two_system())))
    assert load_system(str(path)).dim == 2


# ---------------------------------------------------------------------------
# Cocycle identities


def three_by_three_system():
    drift = np.diag([0.4, -0.1, -0.3])
    ctrl = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return control_system(drift, [ctrl], Box(((-1.0, 1.0),)))


def test_cocycle_additivity():
    spec = three_by_three_system()
    rng = np.random.default_rng(5)
    sig = random_signal(rng, spec.control_range, 2.0, 0.1)
    res = cocycle_additivity_residual(spec, sig, 2.0, standard_flag(3))
    assert res < 1e-8
    with pytest.raises(ValueError, match="maximal"):
        cocycle_additivity_residual(spec, sig, 2.0, standard_flag(3, theta={0}))
    with pytest.raises(ValueError, match="positive horizon"):
        cocycle_additivity_residual(spec, constant_signal([0.5]), 0.0, standard_flag(3))


def test_time_reversal():
    spec = three_by_three_system()
    rng = np.random.default_rng(6)
    sig = random_signal(rng, spec.control_range, 2.0, 0.1)
    backward = integrate(spec, random_signal(rng, spec.control_range, -2.0, 0.1), -2.0)
    assert time_reversal_residual(backward, standard_flag(3)) < 1e-8
    forward = integrate(spec, sig, 2.0)
    with pytest.raises(ValueError, match="starting at time 0"):
        time_reversal_residual(forward, standard_flag(3))


def test_backward_random_signal_uses_every_value():
    spec = three_by_three_system()
    sig = random_signal(np.random.default_rng(8), spec.control_range, -1.0, 0.1)
    backward = integrate(spec, sig, -1.0)
    # over [-1, 0] the k-th value is held on [-1 + 0.1 k, -0.9 + 0.1 k]
    expected = np.eye(3)
    for u in sig.values:
        expected = expected @ scipy.linalg.expm(-0.1 * spec.generator(u))
    assert len(sig.values) == 10
    assert np.abs(backward.matrices[-1] - expected).max() < 1e-9
    assert time_reversal_residual(backward, standard_flag(3)) <= 1e-6


def test_cocycle_residuals_take_no_explicit_inverse(monkeypatch):
    rng = np.random.default_rng(12)
    drift = random_traceless(rng, 4, scale=0.3)
    ctrls = [random_traceless(rng, 4, scale=0.15) for _ in range(2)]
    spec = control_system(drift, ctrls, Box(((-1.0, 1.0), (-1.0, 1.0))))
    sig = random_signal(rng, spec.control_range, 2.0, 0.1)
    backward = integrate(spec, random_signal(rng, spec.control_range, -2.0, 0.1), -2.0)

    def refuse(a):
        raise AssertionError("explicit inverse")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert cocycle_additivity_residual(spec, sig, 2.0, standard_flag(4)) < 1e-8
    assert time_reversal_residual(backward, standard_flag(4)) < 1e-8


def test_ktheta_invariance():
    rng = np.random.default_rng(11)
    psi = random_unimodular(rng, 3)
    flag = standard_flag(3)
    c, s = math.cos(0.4), math.sin(0.4)
    k = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert ktheta_invariance_residual(psi, flag, {0}, (1, 2), k) < 1e-10
    with pytest.raises(ValueError, match="annihilate"):
        ktheta_invariance_residual(psi, flag, {0}, (1, 0), k)
    with pytest.raises(ValueError, match="coordinates"):
        ktheta_invariance_residual(psi, flag, {0}, (1,), k)
    k_wrong = np.array([[1.0, 0, 0], [0.0, c, -s], [0.0, s, c]])
    with pytest.raises(ValueError, match="block diagonal"):
        ktheta_invariance_residual(psi, flag, {0}, (1, 2), k_wrong)
    shear = np.array([[1.0, 0.1, 0], [0.0, 1.0, 0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="orthogonal"):
        ktheta_invariance_residual(psi, flag, {0}, (1, 2), shear)
    with pytest.raises(ValueError, match="maximal"):
        ktheta_invariance_residual(psi, standard_flag(3, theta={0}), {0}, (1, 2), k)


# ---------------------------------------------------------------------------
# Functional realization


def test_realize_functional():
    f = realize_functional((1, 0), 3)
    assert f.coeffs == (Fraction(1), Fraction(-1), Fraction(0))
    assert f([2.0, 0.0, -2.0]) == 2.0
    g = realize_functional((0, 1, 0), 4)
    assert g.coeffs == (0, 1, -1, 0)  # the middle simple slope
    with pytest.raises(ValueError):
        realize_functional((1, 0, 0), 3)
    with pytest.raises(ValueError):
        realize_functional((), 1)


# ---------------------------------------------------------------------------
# Split part, fixed flags, realizations


def rotation_pair_generator():
    # eigenvalues 1 +- 2i and -2
    return np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -2.0]])


def test_split_part_regular_diagonal():
    sp = split_part(np.diag([2.0, 0.0, -2.0]))
    assert np.array_equal(sp.h, [2.0, 0.0, -2.0])
    assert sp.theta == frozenset()
    assert sp.group_ids == (0, 1, 2)
    assert sp.complex_pairs == ()


def test_split_part_degenerate_snaps_exactly():
    sp = split_part(np.diag([1.0, 1.0, -2.0]))
    assert sp.theta == frozenset({0})
    assert sp.h[0] == sp.h[1]
    assert sp.group_ids == (0, 0, 1)


def test_split_part_complex_pair():
    sp = split_part(rotation_pair_generator())
    assert sp.theta == frozenset({0})
    assert sp.complex_pairs == ((0, 1),)
    assert np.allclose(sp.h, [1.0, 1.0, -2.0])
    plane = sp.basis[:, :2]
    image = rotation_pair_generator() @ plane
    _, resid, _, _ = np.linalg.lstsq(plane, image, rcond=None)
    assert float(np.abs(image - plane @ np.linalg.lstsq(plane, image, rcond=None)[0]).max()) < 1e-12


def test_split_part_rejections():
    with pytest.raises(ValueError, match=r"^matrix is not traceless: trace = 2\.0$"):
        split_part(np.eye(2))
    with pytest.raises(ValueError, match="ambiguous"):
        split_part(np.diag([1e-8, 0.0, -1e-8]))
    with pytest.raises(ValueError, match="diagonalizable"):
        split_part(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for gap_tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="gap_tol"):
            split_part(np.diag([2.0, 0.0, -2.0]), gap_tol=gap_tol)


def test_fixed_flags_are_invariant(w_a2):
    x = np.diag([2.0, 0.0, -2.0])
    drift = Drift(x)
    psi = scipy.linalg.expm(0.7 * x)
    for theta in (frozenset(), frozenset({0}), frozenset({1})):
        spec = FlagSpec(theta=theta, flag_type=frozenset())
        for rec in enumerate_chain_control_sets(w_a2, spec):
            flag = fixed_flags(drift, theta, rec.rep)
            assert flag_distance(flag_act(psi, flag), flag) < 1e-9


def test_fixed_flags_rejects_split_complex_pair(w_a2):
    x = Drift(rotation_pair_generator())
    flag = fixed_flags(x, {0}, w_a2.identity)  # pair sits inside the first block
    assert flag.blocks == (2, 1)
    with pytest.raises(ValueError, match="complex eigenvalue pair"):
        fixed_flags(x, {0}, word_element(w_a2, (1,)))
    with pytest.raises(ValueError, match="complex eigenvalue pair"):
        fixed_flags(x, (), w_a2.identity)  # maximal flags always cut the pair


def test_horizontal_basis_and_derivative_det():
    # tangent coordinates sit at (1, 0), (2, 0), (2, 1), row-major
    assert sldr._lower_index((1, 1, 1)).tolist() == [3, 6, 7]
    rows, cols = np.divmod(sldr._lower_index((1, 1)), 2)
    r = np.array([[[2.0, 0.7], [0.0, 0.5]]])  # the triangular factor of the flow at the standard flag
    tangent_map = sldr._tangent_maps(r, np.linalg.inv(r), rows, cols)
    assert tangent_map.shape == (1, 1, 1)
    assert abs(tangent_map[0, 0, 0] - 0.25) < 1e-12  # closed form 1/a^2 on the line
    # the gather is kron(a, a^-1 ^T) restricted to the tangent positions, bit for bit
    a = np.random.default_rng(13).standard_normal((6, 5, 5))
    a_inv = np.linalg.inv(a)
    for blocks in ((1, 1, 1, 1, 1), (2, 1, 2), (4, 1)):
        idx = sldr._lower_index(blocks)
        rows, cols = np.divmod(idx, 5)
        for m, m_inv, got in zip(a, a_inv, sldr._tangent_maps(a, a_inv, rows, cols)):
            assert np.array_equal(got, np.kron(m, m_inv.T)[np.ix_(idx, idx)])


def invariant_realizations(drift, theta, w):
    """The stable, center and unstable coordinate rows at the fixed flag of
    ``w``, and their sorted exponents, from a one-cell batch."""
    cells = sldr.realize(drift, theta, [w])
    assert cells.errors[0] is None
    return [groups[0][1][0] for groups in cells.bundles], cells.exponents[0]


def test_invariant_realizations_regular(w_a2):
    x = Drift(np.diag([2.0, 0.0, -2.0]))
    _, exponents = invariant_realizations(x, (), w_a2.identity)
    assert exponents == ((-4.0, -2.0, -2.0), (), ())
    (stable, _, unstable), exponents = invariant_realizations(x, (), word_element(w_a2, (0, 1, 0)))
    assert exponents == ((), (), (2.0, 2.0, 4.0))
    assert len(stable) == 0 and not unstable.flags.writeable
    gram = [[float(np.sum(a * b)) for b in unstable] for a in unstable]
    assert np.abs(np.array(gram) - np.eye(3)).max() < 1e-12


def test_invariant_realizations_center(w_a2):
    x = Drift(np.diag([1.0, 1.0, -2.0]))
    _, (stable_exponents, center_exponents, _) = invariant_realizations(x, (), w_a2.identity)
    assert center_exponents == (0.0,)
    assert stable_exponents == (-3.0, -3.0)
    mixed, _ = invariant_realizations(x, (), word_element(w_a2, (1,)))
    assert [len(coords) for coords in mixed] == [1, 1, 1]


def oracle_drifts(d):
    """Seeded SO(d) conjugates of a distinct spectrum, a repeated one and a
    complex pair with the top real part."""
    rng = np.random.default_rng(300 + d)
    h = np.linspace(1.5, -1.5, d)
    repeated = np.concatenate([[h[0]], h[:-1]])
    pair = np.diag(repeated - repeated.mean())
    pair[0, 1], pair[1, 0] = 0.7, -0.7
    for x in (np.diag(h), np.diag(repeated - repeated.mean()), pair):
        q = random_special_orthogonal(rng, d)
        yield q @ x @ q.T


# maximal flags up to d = 5; at d = 6, where W has 720 elements, two
# partial flags with a block of three
ORACLE_THETAS = {3: ((), (0,), (1,)), 4: ((), (0,), (2,)), 5: ((), (0,), (3,)), 6: ((0, 1), (3, 4))}


@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_realizations_match_position_oracle(d):
    group = generate(type_a_system(d))
    checked = set()
    for x in oracle_drifts(d):
        drift = Drift(x)
        for theta in map(frozenset, ORACLE_THETAS[d]):
            spec = FlagSpec(theta=theta, flag_type=drift.split.theta)
            blocks = blocks_from_theta(theta, d)
            records = enumerate_chain_control_sets(group, spec)
            cells = sldr.realize(drift, theta, [rec.rep for rec in records])
            for i, rec in enumerate(records):
                if cells.errors[i] is not None:
                    assert drift.split.complex_pairs  # a cell that splits the pair
                    continue
                # the numeric split of the cell is the record's exact one
                sizes = tuple(len(lams) for lams in cells.exponents[i])
                assert sizes == (rec.dim_stable, rec.dim_center, rec.dim_unstable)
                assert rec.hyperbolic == (not cells.exponents[i][1])
                xw, (bundles, exponents) = fixed_flags(drift, theta, rec.rep), invariant_realizations(drift, theta, rec.rep)
                assert np.array_equal(xw.rep, cells.frames[i])
                frame, expected = oracles.realization_by_positions(drift.split, blocks, rec.rep.reduced_word)
                assert np.abs(xw.rep - frame).max() < 1e-12
                mask = oracles.lower_mask(blocks)
                maps = [[m[pos == i][0] for pos, m in groups if i in pos] for groups in cells.maps]
                for coords, lams, (m,), (vecs, oracle_lams) in zip(bundles, exponents, maps, expected):
                    assert lams == oracle_lams
                    oracle_coords = np.array([v[mask] for v in vecs]).reshape(len(vecs), mask.sum())
                    assert np.abs(coords.T @ coords - oracle_coords.T @ oracle_coords).max() < 1e-12
                    # the determinant identity's left side, t / 0.25 powers of the short-time
                    # map, against the Gram volume of the flow derivative at time t
                    for t in (0.5, 1.0, 2.0):
                        log_vol = t / 0.25 * np.linalg.slogdet(m)[1]
                        oracle_vol = oracles.gram_volume(drift.expm(t), frame, blocks, vecs)
                        assert abs(log_vol - math.log(oracle_vol)) <= 1e-12
                checked.add(len(drift.split.complex_pairs))
    assert checked == {0, 1}  # real spectra, and a complex pair inside a block


@pytest.mark.parametrize("d", (3, 4, 5))
def test_batched_checks_equal_one_record_batches(d, monkeypatch):
    # chunks of 7 put chunk boundaries inside each sweep, with a short last
    # chunk; every output of a record is its one-record batch's, and the
    # one-record-at-a-time loop's of tests/oracles.py, bit for bit
    monkeypatch.setattr(sldr, "CHUNK", 7)
    group = generate(type_a_system(d))
    times = (0.5, 1.0, 2.0)
    seen = set()
    for x in oracle_drifts(d):
        drift = Drift(x)
        for theta in map(frozenset, ORACLE_THETAS[d]):
            spec = FlagSpec(theta=theta, flag_type=drift.split.theta)
            records = enumerate_chain_control_sets(group, spec)
            cells = sldr.realize(drift, theta, [rec.rep for rec in records])
            results = list(sldr.check_records(drift, spec, records, 3.0, times))
            flags = fixed_flags(drift, theta, cells)  # the batch form
            assert len(results) == len(flags) == len(records)
            for i, (rec, (skip, flag_drift, determinant, rates)) in enumerate(zip(records, results)):
                if skip is not None:
                    assert str(flags[i]) == str(skip)
                    with pytest.raises(ValueError, match="complex eigenvalue pair"):
                        fixed_flags(drift, theta, rec.rep)
                    seen.add("skipped")
                    continue
                xw = fixed_flags(drift, theta, rec.rep)
                assert np.array_equal(xw.rep, cells.frames[i]) and np.array_equal(flags[i].rep, xw.rep)
                one, exponents = invariant_realizations(drift, theta, rec.rep)
                for coords, groups in zip(one, cells.bundles):
                    (batched,) = [c[pos == i][0] for pos, c in groups if i in pos]
                    assert np.array_equal(coords, batched)
                assert exponents == cells.exponents[i]
                loop_frame, loop_bundles = oracles.loop_cell(drift, cells.blocks, rec.rep)
                assert np.array_equal(loop_frame, xw.rep)
                for coords, lams, (loop_coords, loop_lams) in zip(one, exponents, loop_bundles):
                    assert np.array_equal(coords, loop_coords) and lams == loop_lams
                # the fixed-flag check against the per-record flag functions
                assert flag_drift == flag_distance(flag_act(drift.expm(0.5), xw), xw)
                assert len(determinant) == len(times)
                if rec.hyperbolic:
                    assert determinant == tuple(
                        determinant_formula_residuals(drift, spec, rec, t) for t in times
                    )
                    assert determinant == tuple(
                        oracles.loop_determinant_residuals(drift, cells.blocks, rec, t) for t in times
                    )
                    seen.add("hyperbolic")
                assert rates._asdict() == verify_rates(drift, spec, rec, 3.0)._asdict()
                measured = (rates.stable_measured, rates.unstable_measured, rates.center_range)
                assert measured == oracles.loop_rate_exponents(drift, cells.blocks, rec, 3.0)
                if rates.center_range is not None:
                    seen.add("center band")
    assert seen == {"skipped", "hyperbolic", "center band"}


def test_determinant_formula_residuals(w_a2):
    x = Drift(np.diag([2.0, 0.0, -2.0]))
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset())
    for rec in enumerate_chain_control_sets(w_a2, spec):
        for t in (1.0, 2.0):
            ru, rs_ = determinant_formula_residuals(x, spec, rec, t)
            assert ru < 1e-8 and rs_ < 1e-8
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite"):
                determinant_formula_residuals(x, spec, rec, t)
    bad_spec = FlagSpec(theta=frozenset(), flag_type=frozenset({0}))
    recs = enumerate_chain_control_sets(w_a2, bad_spec)
    with pytest.raises(ValueError, match="hyperbolic"):
        determinant_formula_residuals(x, bad_spec, recs[0], 1.0)
    degenerate_spec = FlagSpec(theta=frozenset(), flag_type=frozenset({0}))
    good_rec = enumerate_chain_control_sets(w_a2, spec)[0]
    with pytest.raises(ValueError, match="disagrees"):
        determinant_formula_residuals(x, degenerate_spec, good_rec, 1.0)


def test_determinant_identity_on_a_wide_spectrum(w_a3):
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
    drift = Drift(q @ np.diag([9.0, 3.0, -3.0, -9.0]) @ q.T)
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset())
    records = enumerate_chain_control_sets(w_a3, spec)
    assert len(records) == 24 and all(rec.hyperbolic for rec in records)
    cells = sldr.realize(drift, (), records)
    for t in (0.5, 1.0, 2.0):
        residuals = determinant_formula_residuals(drift, spec, cells, t)
        assert max(max(pair) for pair in residuals) <= 1e-12


def test_verify_rates_regular(w_a2, w_a3, w_b2):
    x = Drift(np.diag([2.0, 0.0, -2.0]))
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset())
    recs = enumerate_chain_control_sets(w_a2, spec)
    for rec in recs:
        report = verify_rates(x, spec, rec, 3.0)
        assert report.max_exponent_rel_error < 1e-10
        assert report.mu_estimate > 1.9
        assert report.center_range is None
        for p, m in zip(report.cocycle_predicted, report.cocycle_measured):
            assert abs(p - m) < 1e-10
    with pytest.raises(ValueError, match="horizon"):
        verify_rates(x, spec, recs[0], 0.5)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            verify_rates(x, spec, recs[0], T)
    # a record of another group is refused, even where its word was just realized
    for group in (w_b2, w_a3):
        wrong = word_element(group, recs[-1].rep.reduced_word)
        with pytest.raises(ValueError, match="does not match SL"):
            verify_rates(x, spec, recs[-1]._replace(rep=wrong), 2.0)
        with pytest.raises(ValueError, match="does not match SL"):
            fixed_flags(x, (), wrong)
    bad = FlagSpec(theta=frozenset(), flag_type=frozenset({1}))
    bad_rec = enumerate_chain_control_sets(w_a2, bad)[0]
    with pytest.raises(ValueError, match="disagrees"):
        verify_rates(x, bad, bad_rec, 2.0)


def test_drift_keeps_one_chunk_and_shares_expm(w_a3, monkeypatch):
    # each chunk of records is realized once, and the drift keeps only its own data
    sizes = []
    realize = sldr.realize

    def recorded(drift, theta, elements):
        sizes.append(len(elements))
        return realize(drift, theta, elements)

    iwasawa_calls = []
    iwasawa = sldr.iwasawa

    def counted(g, **kwargs):
        iwasawa_calls.append(g)
        return iwasawa(g, **kwargs)

    monkeypatch.setattr(sldr, "realize", recorded)
    monkeypatch.setattr(sldr, "iwasawa", counted)
    monkeypatch.setattr(sldr, "CHUNK", 7)
    drift = Drift(np.diag([3.0, 1.0, -1.0, -3.0]))
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset())
    records = enumerate_chain_control_sets(w_a3, spec)
    results = list(sldr.check_records(drift, spec, records, 3.0, (0.5, 1.0)))
    assert len(results) == len(records) == 24
    assert sizes == [7, 7, 7, 3]  # each chunk is realized once, for all three checks
    assert {key[0] for key in drift._memo} == {"expm", "rates", "cocycle"}
    # one cocycle curve in steps of 0.5 serves the horizon and every determinant time of
    # every chunk: six steps reach T = 3, and each step is one factorization
    assert [key for key in drift._memo if key[0] == "cocycle"] == [("cocycle", 0.5)]
    assert len(iwasawa_calls) == 6
    curve = drift.cocycle(3.0)
    assert [tau for tau, _ in curve] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert drift.cocycle(0.5)[-1][1] is curve[1][1] and drift.cocycle(1.0)[-1][1] is curve[2][1]
    assert len(iwasawa_calls) == 6
    with pytest.raises(ValueError):
        curve[-1][1][0] = 1.0
    assert drift.expm(0.5) is drift.expm(0.5)
    with pytest.raises(ValueError):
        drift.expm(0.5)[0, 0] = 1.0


def test_drift_carries_gap_tol(w_a2):
    x = np.diag([1e-8, 0.0, -1e-8])
    with pytest.raises(ValueError, match="ambiguous"):
        Drift(x)
    drift = Drift(x, gap_tol=1e-9)
    assert drift.split.theta == frozenset()
    assert fixed_flags(drift, (), w_a2.identity).blocks == (1, 1, 1)


def test_verify_rates_center_band(w_a2):
    x = Drift(np.diag([1.0, 1.0, -2.0]))
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset({0}))
    recs = enumerate_chain_control_sets(w_a2, spec)
    middle = next(r for r in recs if r.dim_center == 1 and r.dim_stable == 1)
    report = verify_rates(x, spec, middle, 2.0)
    lo, hi = report.center_range
    assert lo <= 1e-8 and hi >= -1e-8 and hi - lo < 1e-8
    assert report.mu_estimate > 2.9  # only slopes outside the flow type count
    assert report.max_exponent_rel_error < 1e-10


# ---------------------------------------------------------------------------
# Sampling and diagnostics


def test_cocycle_sample_zero_system_exact():
    spec = control_system(np.zeros((3, 3)), [], Box(()))
    sample = cocycle_sample(spec, constant_signal([]), 1.0, standard_flag(3))
    assert np.array_equal(sample.a_values, np.zeros_like(sample.a_values))
    csv = csv_text(sample)
    lines = csv.splitlines()
    assert lines[0] == "t,a1,a2,a3"
    assert lines[1] == "0,0,0,0"
    assert csv.endswith("\n")


def test_cocycle_sample_diagonal_slope():
    spec = control_system(np.diag([2.0, 0.0, -2.0]), [], Box(()))
    sample = cocycle_sample(spec, constant_signal([]), 1.0, standard_flag(3))
    assert np.abs(sample.a_values[-1] - [2.0, 0.0, -2.0]).max() < 1e-8
    with pytest.raises(ValueError, match="maximal"):
        cocycle_sample(spec, constant_signal([]), 1.0, standard_flag(3, theta={0}))
    with pytest.raises(ValueError, match="stride"):
        cocycle_sample(spec, constant_signal([]), 1.0, standard_flag(3), sample_every=0)


def test_cocycle_sample_grid_validation():
    spec = two_by_two_system()
    flag = standard_flag(2)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        cocycle_sample(spec, constant_signal([0.5], period=0.0015), 1.0, flag)
    with pytest.raises(ValueError, match="integrator grid"):
        cocycle_sample(spec, ControlSignal(np.array([[0.5]]), period=0.1, t0=0.0005), 1.0, flag)


def seeded_system(d, seed, spectrum=None, dt=1e-3):
    # unit-norm random drift and two controls in [-1, 1]^2, as simulate's
    # benchmark systems; a given spectrum replaces the drift by an
    # SO(d)-conjugated diagonal
    rng = np.random.default_rng(seed)
    drift = random_traceless(rng, d)
    if spectrum is not None:
        q = random_special_orthogonal(rng, d)
        drift = q @ np.diag(spectrum) @ q.T
    ctrls = [random_traceless(rng, d) for _ in range(2)]
    return control_system(
        drift, ctrls, Box(((-1.0, 1.0), (-1.0, 1.0))), IntegratorConfig(dt=dt)
    )


# name: (T, control period, sample_every, dt); the guard case runs on the
# smallest and the largest d only, its stepwise oracle takes 20,000 QRs.
# With dt = 0.25 on the +-4 spectrum a step is too far from the identity for
# the condition bound, so each step is factored on its own.  many_chunks has
# 600 rows: two full stacked QRs and a partial one; guard_rows refactors the
# frame several times with rows in between.
STRIDE_CASES = {
    "period_off_stride": (1.0, 0.015, 10, 1e-3),
    "partial_last_stride": (1.007, 0.1, 10, 1e-3),
    "backward": (-1.0, 0.1, 10, 1e-3),
    "zero_system": (1.007, 0.015, 10, 1e-3),
    "guard": (20.0, 0.1, 20000, 1e-3),
    "coarse_steps": (5.0, 0.5, 4, 0.25),
    "many_chunks": (0.6, 0.1, 1, 1e-3),
    "guard_rows": (3.0, 0.1, 10, 1e-3),
}


@pytest.mark.parametrize(
    "d, case",
    [(d, c) for c in STRIDE_CASES for d in (3, 4, 5, 6) if c != "guard" or d in (3, 6)],
)
def test_cocycle_sample_matches_stepwise(d, case):
    T, period, every, dt = STRIDE_CASES[case]
    if case == "zero_system":
        spec = control_system(np.zeros((d, d)), [np.zeros((d, d))], Box(((-1.0, 1.0),)))
    else:
        ramp = case in ("guard", "coarse_steps", "guard_rows")
        spectrum = np.linspace(4.0, -4.0, d) if ramp else None
        spec = seeded_system(d, 100 + d, spectrum, dt)
    sig = random_signal(np.random.default_rng(d), spec.control_range, T, period)
    sample = cocycle_sample(spec, sig, T, standard_flag(d), sample_every=every)
    times, values = oracles.stepwise_cocycle(spec, sig, T, np.eye(d), every)
    assert np.array_equal(sample.times, times)
    assert np.abs(sample.a_values - values).max() < 1e-9
    if case == "zero_system":
        assert not sample.a_values.any()
    if case == "many_chunks":
        assert 2 * flows._QR_BATCH < len(times) - 1 < 3 * flows._QR_BATCH


def test_cocycle_sample_qr_calls(monkeypatch):
    refactors, stacked = [], []
    qr_pos, qr = flows._qr_pos, np.linalg.qr
    monkeypatch.setattr(flows, "_qr_pos", lambda g: refactors.append(g) or qr_pos(g))
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": stacked.append(a) or qr(a, mode))
    spec = seeded_system(4, 7)
    sig = random_signal(np.random.default_rng(7), spec.control_range, 1.0, 0.1)
    sample = cocycle_sample(spec, sig, 1.0, standard_flag(4))
    assert len(sample.times) == 101
    assert len(refactors) == 0
    assert len(stacked) == 1 and stacked[0].shape == (100, 4, 4)
    # a long run refactors only when the growth bound since the last
    # refactor would pass log 1e4
    spec = seeded_system(5, 105, np.linspace(4.0, -4.0, 5))
    sig = random_signal(np.random.default_rng(5), spec.control_range, 10.0, 0.1)
    total = 0.0
    for steps, runs in flows._propagate(spec, sig, 10.0)[2]:
        for v, count in runs:
            e = np.linalg.norm(steps[v] - np.eye(5))
            total += count * math.log1p(2 * e / (1 - e))
    refactors.clear()
    cocycle_sample(spec, sig, 10.0, standard_flag(5))
    assert 1 <= len(refactors) <= math.ceil(total / math.log(1e4))


def _benchmark_system(name: str):
    # a simulate benchmark system with its control signal, drawn as make_inputs(101) and
    # simulate --T 50 draw them
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "flagbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    systems, seeds = workloads.make_inputs(101)
    system = system_from_json(systems[name])
    rng = np.random.default_rng(seeds[name])
    return system, random_signal(rng, system.control_range, 50.0, 0.1), 50.0


def _seeded(d, T, period, spectrum=None):
    spec = seeded_system(d, 100 + d, spectrum)
    return spec, random_signal(np.random.default_rng(d), spec.control_range, T, period), T


def _zero_system():
    spec = control_system(np.zeros((3, 3)), [np.zeros((3, 3))], Box(((-1.0, 1.0),)))
    return spec, random_signal(np.random.default_rng(3), spec.control_range, 2.0, 0.1), 2.0


# name: (system, signal and horizon, output strides); the benchmark signals and
# many_blocks hold more than one block of _STEP_BLOCK control values, off_period has
# a horizon of 486.67 control periods
PROPAGATION_CASES = {
    "bench-d5": (lambda: _benchmark_system("simulate-d5"), (10,)),
    "bench-d6": (lambda: _benchmark_system("simulate-d6"), (10,)),
    "backward": (lambda: _seeded(4, -5.0, 0.1), (3, 10)),
    "strides": (lambda: _seeded(5, 12.0, 0.1), (1, 3, 7)),
    "off_period": (lambda: _seeded(6, 7.3, 0.015), (7,)),
    "short": (lambda: _seeded(3, 0.05, 0.1), (3, 10)),
    "zero_system": (_zero_system, (1, 7)),
    "refactors": (lambda: _seeded(5, 10.0, 0.1, np.linspace(4.0, -4.0, 5)), (3, 10)),
    "constant": (lambda: (seeded_system(3, 103), constant_signal([0.3, -0.2]), 4.0), (7, 10)),
    "many_blocks": (lambda: _seeded(3, 1.5, 0.002), (7,)),
}


def _integrated(run, *args):
    # times and matrices of a flow, or the message of the ValueError that stops it
    try:
        out = run(*args)
    except ValueError as exc:
        return str(exc)
    return (out.times, out.matrices) if isinstance(out, sldr.Trajectory) else out


def _same_flow(spec, sig, T):
    stacked, per_value = _integrated(integrate, spec, sig, T), _integrated(
        oracles.integrate_per_value, spec, sig, T)
    if isinstance(per_value, str):  # the error and its step, as the per-value walk met it
        return stacked == per_value
    return all(np.array_equal(a, b) for a, b in zip(stacked, per_value))


@pytest.mark.parametrize("case", sorted(PROPAGATION_CASES))
def test_stacked_propagation_matches_the_per_value_walk(case):
    make, strides = PROPAGATION_CASES[case]
    spec, sig, T = make()
    assert _same_flow(spec, sig, T)
    for every in strides:
        sample = cocycle_sample(spec, sig, T, standard_flag(spec.dim), sample_every=every)
        times, values = oracles.cocycle_sample_per_row(spec, sig, T, np.eye(spec.dim), every)
        assert np.array_equal(sample.times, times) and np.array_equal(sample.a_values, values)
        # the bytes too: array_equal does not tell 0.0 from -0.0
        assert csv_text(sample) == csv_text(sldr.CocycleSample(times, values))
    if case == "zero_system":
        assert not sample.a_values.any()
    if case in ("bench-d5", "many_blocks"):
        assert len(sig.values) > flows._STEP_BLOCK


@pytest.mark.parametrize("bad", [0, 255, 256, 300])
def test_out_of_range_control_raises_where_the_walk_reaches_it(bad):
    spec = seeded_system(3, 103)
    values = random_signal(np.random.default_rng(3), spec.control_range, 60.0, 0.1).values.copy()
    values[bad] = [1.5, 0.0]
    sig = ControlSignal(values, period=0.1)
    message = "control value [1.5, 0.0] lies outside the range"
    walked, expected = [], []
    with pytest.raises(ValueError) as stacked:
        for _, runs in flows._propagate(spec, sig, 60.0)[2]:
            walked += [count for _, count in runs]
    with pytest.raises(ValueError) as per_value:
        for _, count in oracles.propagate_per_value(spec, sig, 60.0)[2]:
            expected.append(count)
    assert str(stacked.value) == str(per_value.value) == message
    assert walked == expected and sum(walked) == 100 * bad
    # integrate meets the bad value too, as the per-value walk does
    assert _same_flow(spec, sig, 60.0)
    assert _integrated(integrate, spec, sig, 60.0) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        cocycle_sample(spec, sig, 60.0, standard_flag(3))


# flows whose psi grows so ill-conditioned (cond near 1e15 or more) that its own LU
# determinant strays from 1 by far more than 1e-6; integrate checked that determinant
# and raised "determinant drift" on each of them
ILL_CONDITIONED_FLOWS = {
    "bench-d6": lambda: _benchmark_system("simulate-d6"),
    "refactors": lambda: _seeded(5, 10.0, 0.1, np.linspace(4.0, -4.0, 5)),
    "d3": lambda: _seeded(3, 60.0, 0.1),
}


@pytest.mark.parametrize("case", sorted(ILL_CONDITIONED_FLOWS))
def test_integrate_renormalizes_by_the_determinant_of_its_window(case):
    spec, sig, T = ILL_CONDITIONED_FLOWS[case]()
    psi = integrate(spec, sig, T).matrices[-1]
    assert abs(np.linalg.det(psi) - 1.0) > 1e-6
    # the trajectory is still the flow: one exponential per control period
    expected = np.eye(spec.dim)
    for u in sig.values[: round(T / sig.period)]:
        expected = scipy.linalg.expm(sig.period * spec.generator(u)) @ expected
    assert np.abs(psi - expected).max() < 1e-9 * np.abs(expected).max()


def _identity_runs():
    # a zero drift and every other control value 0: runs of identity transitions
    # between runs of whole strides under one transition
    rng = np.random.default_rng(11)
    spec = control_system(np.zeros((3, 3)), [random_traceless(rng, 3)], Box(((-1.0, 1.0),)))
    values = rng.uniform(-1.0, 1.0, (30, 1))
    values[::2] = 0.0
    return spec, ControlSignal(values, period=0.1), 3.0


# name: (system, signal and horizon, output stride), for the whole-stride rows of
# cocycle_sample against the per-row walk
WHOLE_STRIDE_CASES = {
    # a control period of 0.015 is no multiple of stride * dt = 0.01: runs start and end
    # inside strides
    "period_off_stride": (lambda: _seeded(4, 3.0, 0.015), 10),
    # one transition held for the whole horizon, whose growth bound passes log 1e4 many
    # times: the guard refactors inside the run
    "refactor_in_run": (lambda: (seeded_system(4, 104, np.linspace(4.0, -4.0, 4)),
                                 constant_signal([0.5, -0.5]), 6.0), 10),
    "negative_T": (lambda: _seeded(5, -4.0, 0.1), 10),
    "identity_runs": (_identity_runs, 10),
}


@pytest.mark.parametrize("case", sorted(WHOLE_STRIDE_CASES))
def test_whole_stride_rows_match_the_per_row_walk(case, monkeypatch):
    make, every = WHOLE_STRIDE_CASES[case]
    spec, sig, T = make()
    refactors, qr_pos = [], flows._qr_pos
    monkeypatch.setattr(flows, "_qr_pos", lambda g: refactors.append(g) or qr_pos(g))
    sample = cocycle_sample(spec, sig, T, standard_flag(spec.dim), sample_every=every)
    monkeypatch.undo()
    times, values = oracles.cocycle_sample_per_row(spec, sig, T, np.eye(spec.dim), every)
    assert np.array_equal(sample.times, times) and np.array_equal(sample.a_values, values)
    assert csv_text(sample) == csv_text(sldr.CocycleSample(times, values))
    runs = [v for _, block in flows._propagate(spec, sig, T)[2] for v, _ in block]
    if case == "period_off_stride":
        assert not math.isclose(sig.period / (every * spec.integrator.dt) % 1, 0.0)
    if case == "refactor_in_run":
        assert set(runs) == {0} and len(refactors) >= 3
    if case == "negative_T":
        assert T < 0 and sample.times[-1] == T
    if case == "identity_runs":
        assert None in runs and len(set(runs)) > 2


def test_cocycle_to_csv_bytes():
    sample = sldr.CocycleSample(
        times=np.array([0.0, -0.001, -2.5, -1234.5678901234]),
        a_values=np.array(
            [
                [-0.0, 1e-300, 1e15],
                [1 / 3, -2 / 3, 1e-5],
                [-1e15, 123456789.123456789, -1e-300],
                [0.0, -1.5, 2.0],
            ]
        ),
    )
    assert csv_text(sample) == oracles.csv_per_row(sample)
    assert csv_text(sample).splitlines()[1] == "0,-0,1e-300,1e+15"


@pytest.mark.parametrize("rows", [1, 256, 257, 513])
def test_cocycle_to_csv_blocks_match_the_per_row_format(rows):
    # row counts at and past the 256-row blocks of one % format each
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    values[::7, 1] = -0.0
    sample = sldr.CocycleSample(times=-0.001 * np.arange(rows), a_values=values)
    csv = csv_text(sample)
    assert csv == oracles.csv_per_row(sample) and csv.count("\n") == rows + 1
    # written as formatted: the header, then one write per block
    class Writes(list):
        write = list.append

    writes = Writes()
    cocycle_to_csv(sample, writes)
    assert "".join(writes) == csv
    blocks = [min(256, rows - start) for start in range(0, rows, 256)]
    assert [w.count("\n") for w in writes] == [1, *blocks]


def test_flag_type_diagnostic():
    spec = control_system(np.diag([1.0, 1.0, -2.0]), [], Box(()))
    sample = cocycle_sample(spec, constant_signal([]), 2.0, standard_flag(3))
    out = flag_type_diagnostic([sample])
    assert out["estimated_flag_type"] == [0]
    lo, hi = out["slope_bands"][1]
    assert lo > 2.9 and hi < 3.1
    with pytest.raises(ValueError, match="at least one"):
        flag_type_diagnostic([])


# ---------------------------------------------------------------------------
# Random helpers


def test_random_helpers_deterministic():
    a = random_traceless(np.random.default_rng(7), 4, scale=2.5)
    b = random_traceless(np.random.default_rng(7), 4, scale=2.5)
    assert np.array_equal(a, b)
    assert abs(np.trace(a)) < 1e-12
    assert abs(np.linalg.norm(a) - 2.5) < 1e-12
    q = random_special_orthogonal(np.random.default_rng(8), 5)
    assert np.abs(q.T @ q - np.eye(5)).max() < 1e-12
    assert abs(np.linalg.det(q) - 1.0) < 1e-10
    g = random_unimodular(np.random.default_rng(9), 4)
    assert abs(np.linalg.det(g) - 1.0) < 1e-9


def test_type_a_system_cached():
    assert type_a_system(4) is type_a_system(4)
    assert type_a_system(4).lie_type == "A3"
