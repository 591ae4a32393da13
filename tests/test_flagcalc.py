from fractions import Fraction

import pytest

from flagctrl.flagcalc import (
    ConsistencyError,
    FlagSpec,
    classification_report,
    enumerate_chain_control_sets,
    evaluate_functional,
    flag_dim,
    is_hyperbolic,
    representative_invariance_check,
    sigma_functional,
    subbundle_dims,
    tangent_roots,
)
from flagctrl.rootsys import AVector, build_root_system, span_subset
from flagctrl.weyl import (
    WeylElement,
    WeylGroup,
    generate,
    length,
    longest_coset_rep,
    subgroup,
)

import oracles


def record_rows(group, theta, ftype):
    spec = FlagSpec(theta=theta, flag_type=ftype)
    return [
        (r.rep.reduced_word, r.dim_stable, r.dim_center, r.dim_unstable,
         r.hyperbolic, r.sigma_plus, r.sigma_minus, r.is_attractor, r.is_repeller)
        for r in enumerate_chain_control_sets(group, spec)
    ]


def test_a2_full_flag_regular(w_a2):
    assert record_rows(w_a2, frozenset(), frozenset()) == [
        ((), 3, 0, 0, True, (0, 0), (-2, -2), True, False),
        ((0,), 2, 0, 1, True, (1, 0), (-1, -2), False, False),
        ((1,), 2, 0, 1, True, (0, 1), (-2, -1), False, False),
        ((0, 1), 1, 0, 2, True, (2, 1), (0, -1), False, False),
        ((1, 0), 1, 0, 2, True, (1, 2), (-1, 0), False, False),
        ((0, 1, 0), 0, 0, 3, True, (2, 2), (0, 0), False, True),
    ]


def test_a2_full_flag_degenerate_system(w_a2):
    # one merged eigenvalue pair: three cells, none hyperbolic on the full flag
    assert record_rows(w_a2, frozenset(), frozenset({0})) == [
        ((), 2, 1, 0, False, None, None, True, False),
        ((1,), 1, 1, 1, False, None, None, False, False),
        ((1, 0), 0, 1, 2, False, None, None, False, True),
    ]


def test_a2_projective_plane_regular(w_a2):
    assert record_rows(w_a2, frozenset({0}), frozenset()) == [
        ((), 2, 0, 0, True, (0, 0), (-1, -2), True, False),
        ((1,), 1, 0, 1, True, (0, 1), (-1, 0), False, False),
        ((0, 1), 0, 0, 2, True, (2, 1), (0, 0), False, True),
    ]


def test_a2_partial_flag_mixed_hyperbolicity(w_a2):
    assert record_rows(w_a2, frozenset({0}), frozenset({0})) == [
        ((), 2, 0, 0, True, (0, 0), (-1, -2), True, False),
        ((1,), 0, 1, 1, False, None, None, False, True),
    ]
    assert record_rows(w_a2, frozenset({0}), frozenset({1})) == [
        ((), 1, 1, 0, False, None, None, True, False),
        ((0, 1), 0, 0, 2, True, (2, 1), (0, 0), False, True),
    ]


def test_a3_flag_type_one(w_a3):
    rows = record_rows(w_a3, frozenset(), frozenset({1}))
    assert len(rows) == 12
    assert all(not row[4] for row in rows)  # never hyperbolic on the full flag
    assert all(row[2] == 1 for row in rows)  # one central root throughout
    dims = sorted((row[1], row[3]) for row in rows)
    assert dims == [(0, 5), (1, 4), (1, 4), (2, 3), (2, 3), (2, 3),
                    (3, 2), (3, 2), (3, 2), (4, 1), (4, 1), (5, 0)]


def test_flag_dims(a3, b2):
    assert flag_dim(a3, frozenset()) == 6
    assert flag_dim(a3, frozenset({0})) == 5
    assert flag_dim(a3, frozenset({0, 1})) == 3
    assert flag_dim(a3, frozenset({0, 1, 2})) == 0
    rs = build_root_system("B", 2, mult={r.coords: 2 for r in b2.roots})
    assert flag_dim(rs, frozenset()) == 8


def test_flag_dim_matches_brute(a3, b2, g2):
    for rs in (a3, b2, g2):
        for theta in oracles.all_subsets(rs.rank):
            assert flag_dim(rs, theta) == oracles.brute_flag_dim(rs, theta)


def test_tangent_roots_partition(w_b2, b2):
    for theta in oracles.all_subsets(2):
        for ftype in oracles.all_subsets(2):
            spec = FlagSpec(theta=theta, flag_type=ftype)
            outside = [r for r in b2.positive_roots if r not in span_subset(b2, theta)]
            for w in w_b2.elements:
                split = tangent_roots(b2, spec, w)
                union = split.stable | split.center | split.unstable
                assert len(union) == len(split.stable) + len(split.center) + len(split.unstable)
                assert len(union) == len(outside)


# F4 has 256 (theta, flag type) pairs and 1152 elements, too many to sweep;
# these pairs cover full and partial flags, regular and degenerate flow
# types, and the flow type {0} that the benchmark classifies.
F4_PAIRS = (
    (frozenset(), frozenset()),
    (frozenset(), frozenset({0})),
    (frozenset({0}), frozenset({3})),
    (frozenset({1, 2}), frozenset({1, 2})),
    (frozenset({0, 1, 2}), frozenset({3})),
    (frozenset({3}), frozenset({0, 1, 2, 3})),
)


def cells(group, pairs=None, stride=1):
    """(rs, spec, spans, w) over the given (theta, flag type) pairs, all by
    default, with the oracle's spans built once per pair.

    With ``stride`` > 1 each pair takes the elements at one residue mod
    ``stride``, the residue cycling with the pair, so with at least
    ``stride`` pairs every element is met.
    """
    rank = group.system.rank
    if pairs is None:
        subsets = list(oracles.all_subsets(rank))
        pairs = [(theta, ftype) for theta in subsets for ftype in subsets]
    for n, (theta, ftype) in enumerate(pairs):
        spec = FlagSpec(theta=theta, flag_type=ftype)
        spans = oracles.brute_spans(group.system, theta, ftype)
        for w in group.elements[n % stride::stride]:
            yield group.system, spec, spans, w


@pytest.fixture(scope="module")
def oracle_cells(w_a2, w_b2, w_g2, w_a3, w_b3, w_c3, w_a4, w_d4, w_f4):
    """All (theta, flag type) pairs of the rank 2 groups and A3 with every
    element, of B3 and C3 with every 2nd and of A4 and D4 with every 8th;
    F4 on fixed pairs with every 16th element."""
    out = []
    for group, stride in ((w_a2, 1), (w_b2, 1), (w_g2, 1), (w_a3, 1), (w_b3, 2), (w_c3, 2),
                          (w_a4, 8), (w_d4, 8)):
        out += cells(group, stride=stride)
    out += cells(w_f4, F4_PAIRS, stride=16)
    return out


def test_dims_match_brute_exhaustive(oracle_cells):
    for rs, spec, spans, w in oracle_cells:
        dims, center_empty, inclusion = oracles.brute_cell(
            rs, spec.theta, spec.flag_type, w, spans
        )
        assert subbundle_dims(rs, spec, w) == dims
        assert is_hyperbolic(rs, spec, w) == center_empty == inclusion


def test_sigma_matches_brute(oracle_cells):
    for rs, spec, spans, w in oracle_cells:
        if not is_hyperbolic(rs, spec, w):
            continue
        for sign in (1, -1):
            expected = oracles.brute_sigma(rs, spec.theta, spec.flag_type, w, sign, spans)
            assert sigma_functional(rs, spec, w, sign) == expected


def test_sigma_rejects_bad_input(w_a2, a2):
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset({0}))
    w = w_a2.identity
    with pytest.raises(ValueError, match="hyperbolic"):
        sigma_functional(a2, spec, w, +1)
    with pytest.raises(ValueError):
        sigma_functional(a2, FlagSpec(theta=frozenset(), flag_type=frozenset()), w, 0)


def test_evaluate_functional_exact(a2):
    h = AVector((Fraction(1, 3), Fraction(-1, 6)))
    # (1,1) paired with h through [[2,-1],[-1,2]] gives exactly 1/6
    val = evaluate_functional(a2, (1, 1), h)
    assert val == Fraction(1, 6)
    assert isinstance(val, Fraction)
    assert evaluate_functional(a2, (2, 2), h) == Fraction(1, 3)


def test_representative_invariance_validation(w_a2):
    spec = FlagSpec(theta=frozenset({0}), flag_type=frozenset())
    w = w_a2.identity
    bad = next(g for g in w_a2.elements if length(g) == 3)
    with pytest.raises(ValueError):
        representative_invariance_check(w_a2, spec, w, bad, w_a2.identity)
    with pytest.raises(ValueError):
        representative_invariance_check(w_a2, spec, w, w_a2.identity, bad)


def test_representative_invariance_skips_the_element_list(monkeypatch, w_a2, a2):
    def refuse(group):
        raise AssertionError(f"element list of {group.system.lie_type}")

    monkeypatch.setattr(WeylGroup, "elements", property(refuse))
    e6 = build_root_system("E", 6)
    group = generate(e6)
    spec = FlagSpec(theta=frozenset({1, 2}), flag_type=frozenset({0, 3}))
    w1, w2 = WeylElement((0, 3, 0), e6), WeylElement((1, 2, 1), e6)
    for w in (WeylElement((), e6), longest_coset_rep(group, spec.flag_type, spec.theta)):
        assert representative_invariance_check(group, spec, w, w1, w2)
    # a word that is not reduced: (4, 4) is the identity, in every subgroup
    assert representative_invariance_check(group, spec, w1, WeylElement((4, 4), e6), w2)
    with pytest.raises(ValueError, match="flow-type"):
        representative_invariance_check(group, spec, w1, w2, w2)
    with pytest.raises(ValueError, match="theta"):
        representative_invariance_check(group, spec, w1, w1, w1)
    # the A2 cases of test_representative_invariance_validation
    spec = FlagSpec(theta=frozenset({0}), flag_type=frozenset())
    bad = WeylElement((0, 1, 0), a2)
    with pytest.raises(ValueError):
        representative_invariance_check(w_a2, spec, w_a2.identity, bad, w_a2.identity)
    with pytest.raises(ValueError):
        representative_invariance_check(w_a2, spec, w_a2.identity, w_a2.identity, bad)


def test_representative_invariance_holds(w_b2):
    rs = w_b2.system
    for theta in oracles.all_subsets(2):
        for ftype in oracles.all_subsets(2):
            spec = FlagSpec(theta=theta, flag_type=ftype)
            left = subgroup(w_b2, ftype)
            right = subgroup(w_b2, theta)
            for w in w_b2.elements:
                if not is_hyperbolic(rs, spec, w):
                    continue
                for w1 in left:
                    for w2 in right:
                        assert representative_invariance_check(w_b2, spec, w, w1, w2)


def test_flagspec_validation(a2):
    spec = FlagSpec(theta=frozenset({4}), flag_type=frozenset())
    with pytest.raises(ValueError):
        spec.validate(a2)
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset({-1}))
    with pytest.raises(ValueError):
        spec.validate(a2)
    ok = FlagSpec(theta=[0], flag_type=(1,))  # coerced to frozensets
    assert ok.theta == frozenset({0}) and ok.flag_type == frozenset({1})
    ok.validate(a2)


def test_records_sorted_and_unique_extremes(w_a3):
    for theta in oracles.all_subsets(3):
        for ftype in oracles.all_subsets(3):
            spec = FlagSpec(theta=theta, flag_type=ftype)
            recs = enumerate_chain_control_sets(w_a3, spec)
            keys = [(length(r.rep), r.rep.reduced_word) for r in recs]
            assert keys == sorted(keys)
            assert sum(1 for r in recs if r.is_attractor) == 1
            assert sum(1 for r in recs if r.is_repeller) == 1


def test_classification_report_shape(w_a2):
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset({0}))
    doc = classification_report(w_a2, spec)
    assert doc["lie_type"] == "A2"
    assert doc["theta"] == [] and doc["flag_type"] == [0]
    assert len(doc["records"]) == 3
    assert doc == classification_report(w_a2, spec)
