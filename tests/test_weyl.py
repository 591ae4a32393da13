import ast
import os
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from flagctrl.rootsys import AVector, a_theta_basis, build_root_system, pairing_value
from flagctrl.weyl import (
    WeylGroup,
    act,
    act_avector,
    compose,
    coset_table_json,
    double_cosets,
    generate,
    inverse,
    length,
    parabolic_order,
    subgroup,
)

import oracles

KNOWN_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("C", 3): 48,
    ("D", 4): 192, ("F", 4): 1152, ("G", 2): 12,
}
# the types checked against the oracle walk
WALKED = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
)


@pytest.mark.parametrize("key,order", sorted(KNOWN_ORDERS.items()))
def test_orders(key, order):
    group = generate(build_root_system(*key))
    assert group.order == order


def test_order_cap(a3):
    with pytest.raises(ValueError, match="at least"):
        generate(a3, order_cap=10)


def test_longest_element(w_b2, b2):
    w0 = w_b2.longest
    assert length(w0) == len(b2.positive_roots)
    assert compose(w_b2, w0, w0).is_identity
    for r in b2.positive_roots:
        assert not act(w0, r).is_positive


@pytest.mark.parametrize(
    "family,rank", [k for k, order in sorted(KNOWN_ORDERS.items()) if order <= 10**5] + [("E", 6)]
)
def test_longest_element_is_unique_and_negates_simple_roots(family, rank):
    rs = build_root_system(family, rank)
    group = generate(rs)
    w0 = group.longest
    assert length(w0) == len(rs.positive_roots)
    assert {act(w0, a) for a in rs.simple_roots} == {-a for a in rs.simple_roots}
    lengths = [length(w) for w in group.elements]
    assert lengths.count(max(lengths)) == 1
    assert group.elements[-1] == w0


@pytest.mark.parametrize("family,rank", WALKED)
def test_elements_match_walk(family, rank):
    rs = build_root_system(family, rank)
    group = generate(rs)
    walked = oracles.walk(rs)
    assert [w.reduced_word for w in group.elements] == [w.reduced_word for w in walked.values()]
    assert [w.matrix for w in group.elements] == list(walked)
    assert group.longest.reduced_word == next(reversed(walked.values())).reduced_word


@pytest.mark.parametrize("family,rank", WALKED)
def test_compose_inverse_match_walk(family, rank):
    rs = build_root_system(family, rank)
    group = generate(rs)
    walked = oracles.walk(rs)
    members = list(walked.values())
    gens = oracles.reflection_matrices(rs)
    ident = next(iter(walked))
    rng = random.Random(14)
    for _ in range(300):
        a, b = rng.choice(members), rng.choice(members)
        ab = walked[oracles.mat_mul(a.matrix, b.matrix)]
        assert compose(group, a, b).reduced_word == ab.reduced_word
        # the inverse spells the word backwards
        back = reduce(oracles.mat_mul, (gens[i] for i in reversed(a.reduced_word)), ident)
        assert inverse(group, a).reduced_word == walked[back].reduced_word


def test_reduced_words_lex_least_a2(w_a2):
    words = sorted(w.reduced_word for w in w_a2.elements)
    assert words == [(), (0,), (0, 1), (0, 1, 0), (1,), (1, 0)]


def test_identity_and_reflections(w_a3, a3):
    assert w_a3.identity.is_identity
    for i, s in enumerate(w_a3.simple_reflections):
        assert length(s) == 1
        assert act(s, a3.simple_roots[i]) == -a3.simple_roots[i]
        assert compose(w_a3, s, s).is_identity


def test_length_equals_inversion_count(w_b2, w_a3):
    for group in (w_b2, w_a3):
        for w in group.elements:
            assert length(w) == len(oracles.inversion_set(group, w))


def test_action_preserves_roots_and_form(w_g2, g2):
    for w in w_g2.elements:
        for r in g2.roots:
            assert act(w, r) in g2.roots
        for a in g2.simple_roots:
            for b in g2.simple_roots:
                assert pairing_value(g2, act(w, a), act(w, b)) == pairing_value(g2, a, b)


def test_avector_action_matches_root_action(w_a3, a3):
    # duals transform exactly like their roots
    for w in w_a3.elements:
        for r in a3.roots:
            assert act_avector(w, AVector.from_root(r)) == AVector.from_root(act(w, r))


@given(st.integers(0, 23), st.integers(0, 23))
def test_compose_inverse_group_laws(i, j):
    group = generate(build_root_system("A", 3))
    a = group.elements[i]
    b = group.elements[j]
    ab = compose(group, a, b)
    assert compose(group, ab, inverse(group, b)) == a
    assert compose(group, inverse(group, a), ab) == b


def test_inverse_properties(w_b2):
    for w in w_b2.elements:
        wi = inverse(w_b2, w)
        assert compose(w_b2, w, wi).is_identity
        assert length(wi) == length(w)


def test_subgroup_sizes(w_a3):
    assert len(subgroup(w_a3, frozenset())) == 1
    assert len(subgroup(w_a3, frozenset({0}))) == 2
    assert len(subgroup(w_a3, frozenset({0, 1}))) == 6
    assert len(subgroup(w_a3, frozenset({0, 2}))) == 4
    assert len(subgroup(w_a3, frozenset({0, 1, 2}))) == 24
    with pytest.raises(ValueError):
        subgroup(w_a3, frozenset({5}))


def test_subgroup_matches_brute_force():
    for family, rank in WALKED:
        if rank > 4:
            continue
        rs = build_root_system(family, rank)
        group = generate(rs)
        for theta in oracles.all_subsets(rank):
            members = subgroup(group, theta)
            expected = oracles.subgroup_elements(group, theta)
            assert {w.reduced_word for w in members} == {w.reduced_word for w in expected}
            assert members == expected
            # every member fixes the annihilator of theta pointwise
            fixed = a_theta_basis(rs, theta)
            assert all(act_avector(w, h) == h for w in members for h in fixed)


def test_oracles_do_not_use_the_orbit_code():
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    banned = {
        "double_cosets", "longest_coset_rep", "_canonical", "compose", "inverse", "subgroup",
        "elements", "longest",
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & banned


# D4 and F4 have 256 (left, right) pairs each; these cover the empty and
# full sets, single nodes, the D4 branch node and the F4 parabolics of the
# benchmark's `cosets` op.
D4_F4_PAIRS = tuple(
    (frozenset(left), frozenset(right))
    for left, right in (
        ((), ()), ((), (0, 1, 2, 3)), ((0, 1, 2, 3), (0, 1, 2, 3)), ((0,), (3,)),
        ((1,), (1,)), ((0, 2, 3), (1,)), ((1, 2, 3), (0, 1, 2)), ((0, 1), (2, 3)),
    )
)


def shortlex(w):
    return (length(w), w.reduced_word)


def test_double_cosets_partition(w_a3, w_g2, w_b3, w_c3, w_a4, w_d4, w_f4):
    def all_pairs(group):
        subsets = list(oracles.all_subsets(group.system.rank))
        return [(left, right) for left in subsets for right in subsets]

    for group, pairs in (
        *((g, all_pairs(g)) for g in (w_a3, w_g2, w_b3, w_c3, w_a4)),
        (w_d4, D4_F4_PAIRS),
        (w_f4, D4_F4_PAIRS),
    ):
        for left, right in pairs:
            partition = sorted(
                oracles.double_coset_partition(group, left, right),
                key=lambda members: min(map(shortlex, members)),
            )
            cosets = double_cosets(group, left, right)
            assert len(cosets) == len(partition)
            seen = set()
            for c, members in zip(cosets, partition):
                assert c.rep in members
                assert c.size == len(members)
                # representative is minimal in its coset
                assert all(shortlex(c.rep) <= shortlex(m) for m in members)
                assert not (seen & members)
                seen |= members
            assert len(seen) == group.order


def test_double_coset_counts(w_a2):
    assert len(double_cosets(w_a2, frozenset({0}), frozenset())) == 3
    assert len(double_cosets(w_a2, frozenset(), frozenset())) == 6
    assert len(double_cosets(w_a2, frozenset({0}), frozenset({1}))) == 2
    assert len(double_cosets(w_a2, frozenset({0, 1}), frozenset())) == 1


def test_coset_table_json(w_b2):
    doc = coset_table_json(w_b2, frozenset({0}), frozenset({1}))
    assert doc["lie_type"] == "B2"
    assert doc["order"] == 8
    assert sum(c["size"] for c in doc["cosets"]) == 8
    words = [tuple(c["rep_word"]) for c in doc["cosets"]]
    assert words == sorted(words, key=lambda t: (len(t), t))


def test_mult_invariance_flag():
    long_orbit = {(1, 0), (-1, 0), (1, 2), (-1, -2)}
    rs = build_root_system(
        "B", 2,
        mult={r.coords: (1 if r.coords in long_orbit else 2)
              for r in build_root_system("B", 2).roots},
    )
    group = generate(rs)
    assert oracles.mult_is_invariant(group)
    # mult constant on each orbit but distinct across orbits still validates
    assert {rs.mult[r] for r in rs.roots} == {1, 2}


def coset_words_and_sizes(group, left, right):
    return [(c.rep.reduced_word, c.size) for c in double_cosets(group, left, right)]


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
     ("C", 4), ("D", 4), ("G", 2), ("F", 4)],
)
def test_orbit_double_cosets_match_filter_every_pair(family, rank):
    group = generate(build_root_system(family, rank))
    subsets = list(oracles.all_subsets(rank))
    for left in subsets:
        for right in subsets:
            expected = oracles.filtered_double_cosets(group, left, right)
            assert coset_words_and_sizes(group, left, right) == expected, (left, right)


@pytest.mark.parametrize("family", ["A", "D"])
def test_orbit_double_cosets_match_filter_rank5_sample(family):
    group = generate(build_root_system(family, 5))
    rng = random.Random(5)
    for _ in range(300):
        left, right = (frozenset(i for i in range(5) if rng.random() < 0.5) for _ in "IJ")
        expected = oracles.filtered_double_cosets(group, left, right)
        assert coset_words_and_sizes(group, left, right) == expected, (left, right)


@pytest.mark.parametrize("rank,order", [(6, 51_840), (7, 2_903_040), (8, 696_729_600)])
def test_exceptional_orders(rank, order):
    assert parabolic_order(build_root_system("E", rank), range(rank)) == order


@pytest.mark.parametrize("rank,count", [(7, 4), (8, 5)])
def test_exceptional_parabolic_cosets_partition(rank, count):
    # W_I \ W / W_I for I all but the last node (E6 in E7, E7 in E8): the
    # orbits of W_I on the 56 minuscule weights and on the 240 roots
    rs = build_root_system("E", rank)
    group = WeylGroup(rs, parabolic_order(rs, range(rank)))
    theta = frozenset(range(rank - 1))
    cosets = double_cosets(group, theta, theta)
    assert len(cosets) == count
    assert sum(c.size for c in cosets) == group.order
