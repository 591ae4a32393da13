from fractions import Fraction

import pytest

from flagctrl import flagcalc, rootsys, weyl
from flagctrl.flagcalc import (
    ConsistencyError,
    FlagSpec,
    enumerate_chain_control_sets,
    flag_dim,
    is_hyperbolic,
    representative_invariance_check,
    sigma_functional,
    subbundle_dims,
    tangent_roots,
)
from flagctrl.rootsys import AVector, build_root_system, form_value, span_subset
from flagctrl.weyl import (
    WeylElement,
    WeylGroup,
    generate,
    longest_coset_rep,
    parabolic_order,
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


def test_tangent_roots_match_the_matrix_oracle(w_b2, w_a3, w_f4):
    # the root sets themselves, the sign of each center root included
    pairs = {w_f4: F4_PAIRS}
    for group in (w_b2, w_a3, w_f4):
        subsets = list(oracles.all_subsets(group.system.rank))
        for theta, ftype in pairs.get(group) or [(t, f) for t in subsets for f in subsets]:
            spec = FlagSpec(theta=theta, flag_type=ftype)
            spans = oracles.brute_spans(group.system, theta, ftype)
            for w in group.elements:
                expected = oracles.brute_tangent_roots(group.system, theta, ftype, w, spans)
                assert tuple(tangent_roots(group.system, spec, w)) == expected


def _lane_edge_groups():
    # A1 (one positive root), G2 (length ratio 3), the long-1/short-2
    # multiplicity systems, and E7 and E8 on one parabolic pair each, E8
    # with 16-bit lanes
    for family, rank in (("A", 1), ("G", 2)):
        yield generate(build_root_system(family, rank)), None
    for family, rank in (("B", 2), ("G", 2), ("B", 3)):
        yield long_one_short_two(family, rank), None
    for rank, subset in ((7, frozenset(range(5))), (8, frozenset(range(1, 8)))):
        rs = build_root_system("E", rank)
        yield WeylGroup(rs, parabolic_order(rs, range(rank))), [(subset, subset)]


def test_records_match_the_per_root_loop_at_lane_edges():
    lanes = {}
    for group, pairs in _lane_edge_groups():
        rs = group.system
        lanes[rs.lie_type, max(rs.index.mult)] = rs.index.lane
        subsets = list(oracles.all_subsets(rs.rank))
        for theta, ftype in pairs or [(t, f) for t in subsets for f in subsets]:
            for record in enumerate_chain_control_sets(group, FlagSpec(theta, ftype)):
                dims, hyperbolic, plus, minus = oracles.loop_split(
                    rs, theta, ftype, record.coset.point
                )
                assert (record.dim_stable, record.dim_center, record.dim_unstable) == dims
                assert record.hyperbolic == hyperbolic
                assert (record.sigma_plus, record.sigma_minus) == (
                    (plus, minus) if hyperbolic else (None, None)
                )
    assert lanes == {("A1", 1): 8, ("G2", 1): 8, ("B2", 2): 8, ("G2", 2): 8, ("B3", 2): 8,
                     ("E7", 1): 8, ("E8", 1): 16}


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


def long_one_short_two(family, rank):
    """The group of a system with multiplicity 1 on long roots, 2 on short ones."""
    plain = build_root_system(family, rank)
    rs = build_root_system(
        family, rank, mult=lambda r: 1 if form_value(plain, r.coords, r.coords) == 2 else 2
    )
    assert set(rs.index.mult) == {1, 2}
    return generate(rs)


@pytest.fixture(scope="module")
def oracle_cells(w_a2, w_b2, w_g2, w_a3, w_b3, w_c3, w_a4, w_d4, w_f4):
    """All (theta, flag type) pairs of the rank 2 groups and A3 with every
    element, of B3 and C3 with every 2nd and of A4 and D4 with every 8th;
    F4 on fixed pairs with every 16th element.  B2, G2 and B3 also come
    with mixed multiplicities, 1 on long roots and 2 on short ones."""
    out = []
    for group, stride in ((w_a2, 1), (w_b2, 1), (w_g2, 1), (w_a3, 1), (w_b3, 2), (w_c3, 2),
                          (w_a4, 8), (w_d4, 8)):
        out += cells(group, stride=stride)
    out += cells(w_f4, F4_PAIRS, stride=16)
    for family, rank, stride in (("B", 2, 1), ("G", 2, 1), ("B", 3, 2)):
        out += cells(long_one_short_two(family, rank), stride=stride)
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


def test_enumeration_validates_the_spec_once(w_d4, monkeypatch):
    calls = []
    real = FlagSpec.validate
    monkeypatch.setattr(FlagSpec, "validate", lambda spec, rs: calls.append(rs) or real(spec, rs))
    records = enumerate_chain_control_sets(w_d4, FlagSpec(theta=frozenset(), flag_type=frozenset()))
    assert len(records) == 192 and len(calls) == 1


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
    val = form_value(a2, (1, 1), h.coords)
    assert val == Fraction(1, 6)
    assert isinstance(val, Fraction)
    assert form_value(a2, (2, 2), h.coords) == Fraction(1, 3)


def test_representative_invariance_validation(w_a2):
    spec = FlagSpec(theta=frozenset({0}), flag_type=frozenset())
    w = w_a2.identity
    bad = next(g for g in w_a2.elements if len(g.reduced_word) == 3)
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


def test_consistency_checks_raise_when_broken(w_a2, a2, monkeypatch):
    # each cross-check raises, never returns, when its two sides disagree:
    # splits of A2's identity at rho with a field broken, then enumerations
    # with a wrong longest element, with every coset twice and with a wrong
    # group order; a class of a split is its (dimension, coordinate sum)
    spec = FlagSpec(theta=frozenset(), flag_type=frozenset({0}))
    rho = sum(a2.index.columns, a2.index.bias)  # the packed word of (1, 1)
    split = flagcalc._split(a2, spec, (1, 1), rho)
    with pytest.raises(ConsistencyError, match="criteria disagree"):
        flagcalc._hyperbolic(spec, w_a2.identity, split._replace(point=(0, 1)))
    with pytest.raises(ConsistencyError, match="misses flag_dim"):
        flagcalc._dims(spec, split._replace(stable=(0,)), 3)
    alpha1 = (1, *a2.simple_roots[1].coords)
    with pytest.raises(ConsistencyError, match="fails to annihilate"):
        flagcalc._sigma(a2, spec, split._replace(unstable=alpha1, point=(0, 1)), +1)
    cosets = list(weyl._cosets(w_a2, spec.flag_type, spec.theta))
    monkeypatch.setattr(weyl, "longest_coset_rep", lambda *args: w_a2.identity)
    with pytest.raises(ConsistencyError, match="longest element"):
        enumerate_chain_control_sets(w_a2, spec)
    monkeypatch.undo()
    monkeypatch.setattr(weyl, "_cosets", lambda *args: cosets * 2)
    with pytest.raises(ConsistencyError, match="unique attractor"):
        enumerate_chain_control_sets(w_a2, spec)
    monkeypatch.undo()
    # a group of the wrong order: the coset sizes no longer sum to it
    with pytest.raises(AssertionError, match="do not partition the group"):
        enumerate_chain_control_sets(weyl.WeylGroup(a2, w_a2.order + 1), spec)


def test_records_sorted_and_unique_extremes(w_a3):
    for theta in oracles.all_subsets(3):
        for ftype in oracles.all_subsets(3):
            spec = FlagSpec(theta=theta, flag_type=ftype)
            recs = enumerate_chain_control_sets(w_a3, spec)
            keys = [(len(r.rep.reduced_word), r.rep.reduced_word) for r in recs]
            assert keys == sorted(keys)
            assert sum(1 for r in recs if r.is_attractor) == 1
            assert sum(1 for r in recs if r.is_repeller) == 1


def _bruhat_pairs(rs):
    # a few (flow type I, theta J) per root system, those whose orbit W / W_J has at most
    # 3,000 points: full flags, single nodes against their complements, and interleavings
    every, r = frozenset(range(rs.rank)), rs.rank
    pairs = [
        (frozenset(), frozenset()),
        (frozenset({0}), every - {0}),
        (frozenset({r - 1}), every - {r - 1}),
        (every - {0}, every - {r - 1}),
        (every - {r - 1}, every - {0}),
        (frozenset(range(0, r, 2)), frozenset(range(1, r, 2))),
        (frozenset(range(1, r, 2)), frozenset(range(0, r, 2))),
    ]
    order = parabolic_order(rs, every)
    return [(i, j) for i, j in pairs if order // parabolic_order(rs, j) <= 3000]


@pytest.mark.parametrize(
    "family,rank",
    [(f, r) for f, (low, high) in rootsys._RANKS.items() for r in range(low, high + 1)],
)
def test_records_satisfy_the_bruhat_cell_identity(family, rank):
    # W(t) / W_J(t) = sum over records of t^s W_I(t) / W_K(t) on every root system the CLI
    # builds, past the order cap too: it weighs the whole (s, c) distribution, which
    # s + c + u = dim cannot, so a record with s and u swapped fails it
    rs = build_root_system(family, rank)
    group = WeylGroup(rs, parabolic_order(rs, range(rank)))
    pairs = _bruhat_pairs(rs)
    if (family, rank) == ("E", 7):
        pairs.append((frozenset(range(5)), frozenset(range(5))))
    if (family, rank) == ("E", 8):
        pairs.append((frozenset(range(1, 8)), frozenset(range(1, 8))))
    assert len(pairs) >= 4
    for left, right in pairs:
        records = enumerate_chain_control_sets(group, FlagSpec(theta=right, flag_type=left))
        cosets = weyl.double_cosets(group, left, right)
        lhs, rhs = oracles.bruhat_cell_sums(rs, left, right, records, cosets)
        assert lhs == rhs, (sorted(left), sorted(right))
        assert sum(lhs) == group.order // parabolic_order(rs, right)
