"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every check either reproduces an exact combinatorial statement through an
independent brute-force oracle or pits the floating-point pipeline against
the exact classification at stated tolerances.
"""

import math
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

from flagctrl.flagcalc import (
    FlagSpec,
    enumerate_chain_control_sets,
    evaluate_functional,
    flag_dim,
    is_hyperbolic,
    representative_invariance_check,
    subbundle_dims,
)
from flagctrl.rootsys import AVector, build_root_system
from flagctrl.sldr import (
    Box,
    ControlSignal,
    cocycle_additivity_residual,
    control_system,
    determinant_formula_residuals,
    integrate,
    iwasawa,
    ktheta_invariance_residual,
    random_signal,
    random_traceless,
    random_unimodular,
    standard_flag,
    time_reversal_residual,
    type_a_system,
    verify_rates,
)
from flagctrl.weyl import generate, subgroup

import oracles

_T0 = time.perf_counter()

GRID_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2))


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


def grid_groups():
    return [(fam, rank, generate(build_root_system(fam, rank))) for fam, rank in GRID_TYPES]


def test_01_weyl_orders():
    expected = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("G", 2): 12}
    ok = True
    slowest = 0.0
    for (fam, rank), order in expected.items():
        t0 = time.perf_counter()
        group = generate(build_root_system(fam, rank))
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        ok = ok and group.order == order and dt < 1.0
    report(1, "Weyl group orders exact and fast", ok, f"slowest {slowest:.3f}s")


def test_02_hyperbolicity_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    cells = 0
    for fam, rank, group in grid_groups():
        rs = group.system
        for theta in oracles.all_subsets(rank):
            for ftype in oracles.all_subsets(rank):
                spec = FlagSpec(theta=theta, flag_type=ftype)
                spans = oracles.brute_spans(rs, theta, ftype)
                for w in group.elements:
                    cells += 1
                    dims, center_empty, inclusion = oracles.brute_cell(
                        rs, theta, ftype, w, spans
                    )
                    lib = is_hyperbolic(rs, spec, w)
                    if not (lib == center_empty == inclusion):
                        mismatches += 1
                    if subbundle_dims(rs, spec, w) != dims:
                        mismatches += 1
    dt = time.perf_counter() - t0
    report(
        2,
        "hyperbolicity criterion matches the inclusion oracle",
        mismatches == 0 and dt < 10.0,
        f"{cells} cells, {dt:.2f}s",
    )


def test_03_dimension_conservation():
    bad = 0
    b2 = build_root_system("B", 2)
    doubled = build_root_system("B", 2, mult={r.coords: 2 for r in b2.roots})
    groups = [group for _, _, group in grid_groups()] + [generate(doubled)]
    for group in groups:
        rs = group.system
        for theta in oracles.all_subsets(rs.rank):
            total = flag_dim(rs, theta)
            for ftype in oracles.all_subsets(rs.rank):
                spec = FlagSpec(theta=theta, flag_type=ftype)
                for w in group.elements:
                    s, c, u = subbundle_dims(rs, spec, w)
                    if s + c + u != total:
                        bad += 1
    report(3, "stable+center+unstable always fills the flag dimension", bad == 0)


def test_04_sigma_annihilates_central_duals():
    bad = 0
    checked = 0
    for fam, rank, group in grid_groups():
        rs = group.system
        for theta in oracles.all_subsets(rank):
            theta_span = oracles.brute_span(rs, theta)
            for ftype in oracles.all_subsets(rank):
                spec = FlagSpec(theta=theta, flag_type=ftype)
                for rec in enumerate_chain_control_sets(group, spec):
                    if not rec.hyperbolic:
                        continue
                    image = {oracles.mat_vec(rec.rep.matrix, r.coords) for r in theta_span}
                    for i in sorted(ftype):
                        alpha = rs.simple_roots[i]
                        if alpha.coords not in image:
                            continue
                        dual = AVector.from_root(alpha)
                        for sig in (rec.sigma_plus, rec.sigma_minus):
                            checked += 1
                            if evaluate_functional(rs, sig, dual) != Fraction(0):
                                bad += 1
    report(4, "growth functionals annihilate central dual vectors exactly", bad == 0,
           f"{checked} exact zeros")


def test_05_representative_invariance():
    bad = 0
    checked = 0
    for fam, rank, group in grid_groups():
        rs = group.system
        for theta in oracles.all_subsets(rank):
            for ftype in oracles.all_subsets(rank):
                spec = FlagSpec(theta=theta, flag_type=ftype)
                left = sorted(subgroup(group, ftype), key=lambda g: g.reduced_word)
                right = sorted(subgroup(group, theta), key=lambda g: g.reduced_word)
                for rec in enumerate_chain_control_sets(group, spec):
                    if not rec.hyperbolic:
                        continue
                    for w1 in left:
                        for w2 in right:
                            checked += 1
                            if not representative_invariance_check(group, spec, rec.rep, w1, w2):
                                bad += 1
    report(5, "growth functionals are representative independent", bad == 0,
           f"{checked} triples")


def test_06_unique_attractor_and_repeller():
    bad = 0
    for fam, rank, group in grid_groups():
        for theta in oracles.all_subsets(rank):
            for ftype in oracles.all_subsets(rank):
                recs = enumerate_chain_control_sets(group, FlagSpec(theta=theta, flag_type=ftype))
                if sum(1 for r in recs if r.is_attractor) != 1:
                    bad += 1
                if sum(1 for r in recs if r.is_repeller) != 1:
                    bad += 1
    report(6, "exactly one attractor and one repeller per enumeration", bad == 0)


def test_07_regular_flows_fully_hyperbolic():
    bad = 0
    for fam, rank, group in grid_groups():
        for theta in oracles.all_subsets(rank):
            recs = enumerate_chain_control_sets(
                group, FlagSpec(theta=theta, flag_type=frozenset())
            )
            if not all(r.hyperbolic for r in recs):
                bad += 1
    report(7, "regular flow type makes every record hyperbolic", bad == 0)


def test_08_projective_space_counts():
    a2 = generate(build_root_system("A", 2))
    n_plane = len(enumerate_chain_control_sets(
        a2, FlagSpec(theta=frozenset({1}), flag_type=frozenset())
    ))
    ok = n_plane == 3
    counts = []
    for d in range(2, 6):
        group = generate(build_root_system("A", d - 1))
        theta = frozenset(range(1, d - 1))  # lines in d-space
        recs = enumerate_chain_control_sets(group, FlagSpec(theta=theta, flag_type=frozenset()))
        counts.append(len(recs))
        ok = ok and len(recs) == d
    report(8, "projective space carries d chain control sets", ok,
           f"plane 3, counts {counts}")


def test_09_iwasawa_reassembly():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g = random_unimodular(rng, 3)
        trip = iwasawa(g)
        recon = trip.k @ np.diag(np.exp(trip.a_vec)) @ trip.n
        worst = max(worst, float(np.abs(recon - g).max()))
    dt = time.perf_counter() - t0
    report(9, "Iwasawa factors reassemble 1000 random matrices", worst <= 1e-10 and dt < 1.0,
           f"worst {worst:.2e}, {dt:.2f}s")


def test_10_cocycle_identities_along_flows():
    rng = np.random.default_rng(42)
    flag = standard_flag(3)
    worst_add = worst_rev = 0.0
    for _ in range(20):
        drift = random_traceless(rng, 3, scale=0.3)
        ctrls = [random_traceless(rng, 3, scale=0.15) for _ in range(2)]
        spec = control_system(drift, ctrls, Box(((-1.0, 1.0), (-1.0, 1.0))))
        sig = random_signal(rng, spec.control_range, 10.0, 0.1)
        worst_add = max(worst_add, cocycle_additivity_residual(spec, sig, 10.0, flag))
        # drawn over [-10, 0], so the backward flow takes every value
        back = random_signal(rng, spec.control_range, -10.0, 0.1)
        worst_rev = max(
            worst_rev, time_reversal_residual(integrate(spec, back, -10.0), flag)
        )
    report(10, "additivity and time reversal hold along 20 controlled flows",
           worst_add <= 1e-6 and worst_rev <= 1e-6,
           f"additivity {worst_add:.2e}, reversal {worst_rev:.2e}")


def test_11_block_rotation_invariance():
    rng = np.random.default_rng(7)
    flag = standard_flag(3)
    worst = 0.0
    for _ in range(100):
        psi = random_unimodular(rng, 3)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        k = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        scale = int(rng.integers(1, 7))
        beta = (Fraction(scale), Fraction(2 * scale))  # annihilates the merged slope
        worst = max(worst, ktheta_invariance_residual(psi, flag, {0}, beta, k))
    report(11, "cocycle functionals ignore block rotations of the frame",
           worst <= 1e-8, f"worst {worst:.2e}")


def test_12_determinant_identity():
    x = np.diag([2.0, 0.0, -2.0])
    rs = type_a_system(3)
    group = generate(rs)
    worst = 0.0
    n_checks = 0
    for theta in (frozenset(), frozenset({0}), frozenset({1})):
        spec = FlagSpec(theta=theta, flag_type=frozenset())
        for rec in enumerate_chain_control_sets(group, spec):
            assert rec.hyperbolic
            for t in (0.5, 1.0, 2.0):
                ru, rs_def = determinant_formula_residuals(x, rs, spec, rec, t)
                worst = max(worst, ru, rs_def)
                n_checks += 2
    report(12, "Jacobian determinants match exponentiated functionals",
           worst <= 1e-6, f"{n_checks} checks, worst {worst:.2e}")


def test_13_rate_prediction():
    x = np.diag([2.0, 0.0, -2.0])
    rs = type_a_system(3)
    group = generate(rs)
    worst_rel = 0.0
    mu_min = math.inf
    for theta in (frozenset(), frozenset({0}), frozenset({1})):
        spec = FlagSpec(theta=theta, flag_type=frozenset())
        for rec in enumerate_chain_control_sets(group, spec):
            rep = verify_rates(x, rs, spec, rec, 20.0)
            worst_rel = max(worst_rel, rep.max_exponent_rel_error)
            mu_min = min(mu_min, rep.mu_estimate)
    report(13, "measured exponents match predictions with positive growth floor",
           worst_rel <= 0.01 and mu_min > 0.0,
           f"worst rel {worst_rel:.2e}, mu {mu_min:.3f}")


def test_14_autonomous_exponential_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        drift = random_traceless(rng, 3, scale=0.5)
        ctrl = random_traceless(rng, 3, scale=0.2)
        spec = control_system(drift, [ctrl], Box(((-1.0, 1.0),)))
        u = rng.uniform(-1.0, 1.0, size=1)
        sig = ControlSignal(values=np.repeat(u[None, :], 10, axis=0), period=0.1)
        traj = integrate(spec, sig, 1.0)
        target = scipy.linalg.expm(spec.generator(u))
        rel = float(np.abs(traj.value(1.0) - target).max() / np.abs(target).max())
        worst = max(worst, rel)
    report(14, "integrator reproduces the autonomous matrix exponential",
           worst <= 1e-8, f"worst rel {worst:.2e}")


def test_15_total_runtime_budget():
    elapsed = time.perf_counter() - _T0
    report(15, "acceptance suite fits the desk-scale budget", elapsed < 120.0,
           f"{elapsed:.1f}s")
