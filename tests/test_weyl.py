import ast
import os
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from flagctrl.rootsys import Root, build_root_system
from flagctrl.weyl import (
    WeylElement,
    WeylGroup,
    compose,
    double_cosets,
    generate,
    longest_coset_rep,
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
# the types whose Weyl action is checked against the oracle's matrices
ACTED = (("A", 3), ("B", 3), ("G", 2), ("D", 4), ("F", 4))


def image(w, root):
    return Root(oracles.mat_vec(oracles.matrix(w), root.coords))


@pytest.mark.parametrize("key,order", sorted(KNOWN_ORDERS.items()))
def test_orders(key, order):
    group = generate(build_root_system(*key))
    assert group.order == order


def test_order_cap(a3):
    with pytest.raises(ValueError, match="at least"):
        generate(a3, order_cap=10)


def test_longest_element(w_b2, b2):
    w0 = w_b2.longest
    assert len(w0.reduced_word) == len(b2.positive_roots)
    assert compose(w_b2, w0, w0).is_identity
    for r in b2.positive_roots:
        assert not image(w0, r).is_positive


@pytest.mark.parametrize(
    "family,rank", [k for k, order in sorted(KNOWN_ORDERS.items()) if order <= 10**5] + [("E", 6)]
)
def test_longest_element_is_unique_and_negates_simple_roots(family, rank):
    rs = build_root_system(family, rank)
    group = generate(rs)
    w0 = group.longest
    assert len(w0.reduced_word) == len(rs.positive_roots)
    assert {image(w0, a) for a in rs.simple_roots} == {-a for a in rs.simple_roots}
    lengths = [len(w.reduced_word) for w in group.elements]
    assert lengths.count(max(lengths)) == 1
    assert group.elements[-1] == w0


@pytest.mark.parametrize("family,rank", WALKED)
def test_elements_match_walk(family, rank):
    rs = build_root_system(family, rank)
    group = generate(rs)
    walked = oracles.walk(rs)
    assert [w.reduced_word for w in group.elements] == [w.reduced_word for w in walked.values()]
    assert [oracles.matrix(w) for w in group.elements] == list(walked)
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
        ab = walked[oracles.mat_mul(oracles.matrix(a), oracles.matrix(b))]
        assert compose(group, a, b).reduced_word == ab.reduced_word
        # the word spelled backwards, stripped to the inverse's least word
        back = reduce(oracles.mat_mul, (gens[i] for i in reversed(a.reduced_word)), ident)
        inv = compose(group, WeylElement(a.reduced_word[::-1], rs), group.identity)
        assert inv.reduced_word == walked[back].reduced_word


@pytest.mark.parametrize("family,rank", ACTED)
def test_equality_is_matrix_equality(family, rank):
    # any word, reduced or not, equals and hashes as the walked element of its
    # matrix, and no other
    rs = build_root_system(family, rank)
    walked = oracles.walk(rs)
    members = list(walked.values())
    rng = random.Random(17)
    for _ in range(200):
        w = WeylElement(tuple(rng.randrange(rank) for _ in range(rng.randrange(12))), rs)
        same = walked[oracles.matrix(w)]
        other = rng.choice(members)
        assert w == same and hash(w) == hash(same)
        assert (w == other) == (other is same)
    # elements of two systems are equal only under one Cartan matrix
    twin = build_root_system("C" if family == "B" else family, rank)
    assert (WeylElement((0,), rs) == WeylElement((0,), twin)) == (twin.cartan == rs.cartan)


def test_reduced_words_lex_least_a2(w_a2):
    words = sorted(w.reduced_word for w in w_a2.elements)
    assert words == [(), (0,), (0, 1), (0, 1, 0), (1,), (1, 0)]


def test_identity_and_reflections(w_a3, a3):
    assert w_a3.identity.is_identity
    for i, a in enumerate(a3.simple_roots):
        s = WeylElement((i,), a3)
        assert image(s, a) == -a
        assert compose(w_a3, s, s).is_identity


def test_length_equals_inversion_count(w_b2, w_a3):
    for group in (w_b2, w_a3):
        for w in group.elements:
            assert len(w.reduced_word) == len(oracles.inversion_set(group, w))


def fraction_solve(a, b):
    """x with a x = b, over the rationals, by Gauss-Jordan elimination."""
    n = len(b)
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


@pytest.mark.parametrize("family,rank", ACTED)
def test_coset_points_are_matrix_images_of_lambda(family, rank):
    # each coset's point is rep(lambda_J), lambda_J moved to simple-root
    # coordinates (mu_i = sum_k x_k cartan[i][k]), acted on by the oracle's
    # matrix and read back on the fundamental weights
    rs = build_root_system(family, rank)
    group = generate(rs)
    subsets = list(oracles.all_subsets(rank))
    for left, right in [(left, right) for left in subsets for right in subsets][::3]:
        lam = [int(j not in right) for j in range(rank)]
        x = fraction_solve(rs.cartan, lam)
        for c in double_cosets(group, left, right):
            y = oracles.mat_vec(oracles.matrix(c.rep), x)
            assert c.point == tuple(sum(row[k] * y[k] for k in range(rank)) for row in rs.cartan)


@given(st.integers(0, 23), st.integers(0, 23))
def test_compose_inverse_group_laws(i, j):
    group = generate(build_root_system("A", 3))
    a = group.elements[i]
    b = group.elements[j]
    ab = compose(group, a, b)
    # a reduced word spelled backwards is one of the inverse
    a_inv, b_inv = (WeylElement(w.reduced_word[::-1], group.system) for w in (a, b))
    assert compose(group, ab, b_inv) == a
    assert compose(group, a_inv, ab) == b


def test_inverse_properties(w_b2):
    elements = set(w_b2.elements)
    for w in w_b2.elements:
        wi = WeylElement(w.reduced_word[::-1], w_b2.system)
        # the backward word equals, and hashes as, the group's element
        canonical = compose(w_b2, wi, w_b2.identity)
        assert wi == canonical and hash(wi) == hash(canonical) and wi in elements
        assert compose(w_b2, w, wi).is_identity
        assert len(canonical.reduced_word) == len(w.reduced_word)


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
            assert {w.reduced_word for w in members} == expected
            assert len(members) == len(expected)


def test_oracles_do_not_use_the_orbit_code():
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    banned = {
        "double_cosets", "longest_coset_rep", "_canonical", "compose", "inverse", "subgroup",
        "elements", "longest", "rho_image", "weight_image", "point",
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


def shortlex(word):
    return (len(word), word)


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
                assert c.rep.reduced_word in members
                assert c.size == len(members)
                # representative is minimal in its coset
                assert all(shortlex(c.rep.reduced_word) <= shortlex(m) for m in members)
                assert not (seen & members)
                seen |= members
            assert len(seen) == group.order


def test_double_coset_counts(w_a2):
    assert len(double_cosets(w_a2, frozenset({0}), frozenset())) == 3
    assert len(double_cosets(w_a2, frozenset(), frozenset())) == 6
    assert len(double_cosets(w_a2, frozenset({0}), frozenset({1}))) == 2
    assert len(double_cosets(w_a2, frozenset({0, 1}), frozenset())) == 1


@pytest.mark.parametrize(
    "left,right,bad", [((5,), (), 5), ((-1,), (), -1), ((), (7,), 7), ((), (-2,), -2)]
)
def test_longest_coset_rep_refuses_what_double_cosets_refuses(w_a3, left, right, bad):
    # an index past the rank, or a negative one, would index past mu or wrap to its end
    message = f"simple-root indices [{bad}] out of range for rank 3"
    for fn in (double_cosets, longest_coset_rep):
        with pytest.raises(ValueError) as refusal:
            fn(w_a3, left, right)
        assert str(refusal.value) == message, fn


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


def walk_table(cosets):
    return [(c.rep.reduced_word, c.size, c.point) for c in cosets]


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
     ("D", 4), ("G", 2)],
)
def test_reverse_search_matches_the_breadth_first_walk_every_pair(family, rank):
    # (word, size, point) of each coset, in order, against the walk that
    # reached each orbit point from every lower neighbour and sorted at the end
    rs = build_root_system(family, rank)
    group = generate(rs)
    subsets = list(oracles.all_subsets(rank))
    for left in subsets:
        for right in subsets:
            expected = walk_table(oracles.bfs_double_cosets(group, left, right))
            assert walk_table(double_cosets(group, left, right)) == expected, (left, right)
        assert parabolic_order(rs, left) == oracles.bfs_parabolic_order(rs.cartan, left)


def test_reverse_search_matches_the_breadth_first_walk_samples():
    from test_flagcalc import F4_PAIRS

    cases = [(generate(build_root_system("F", 4)), pair) for theta, ftype in F4_PAIRS
             for pair in ((ftype, theta), (theta, ftype))]
    d5, rng = generate(build_root_system("D", 5)), random.Random(5)
    for _ in range(300):  # the rank-5 sample pairs
        pair = tuple(frozenset(i for i in range(5) if rng.random() < 0.5) for _ in "IJ")
        cases.append((d5, pair))
    cases.append((generate(build_root_system("E", 6)), (frozenset({0}), frozenset())))
    for rank, subset in ((7, range(5)), (8, range(1, 8))):
        rs = build_root_system("E", rank)
        group = WeylGroup(rs, parabolic_order(rs, range(rank)))
        cases.append((group, (frozenset(subset), frozenset(subset))))
        assert group.order == oracles.bfs_parabolic_order(rs.cartan, frozenset(range(rank)))
    for group, (left, right) in cases:
        expected = walk_table(oracles.bfs_double_cosets(group, left, right))
        assert walk_table(double_cosets(group, left, right)) == expected, (left, right)


@pytest.mark.parametrize("family,rank", WALKED + (("E", 6),))
def test_reverse_search_visits_each_orbit_point_once(family, rank):
    # with I empty every orbit point of lambda_J is a coset: |W|/|W_J| of
    # them, no point and no word twice, which a wrong parent rule would break
    # with a duplicate or a gap
    rs = build_root_system(family, rank)
    group = generate(rs)
    for right in ((), (0,), tuple(range(1, rank))):
        cosets = double_cosets(group, (), right)
        size = oracles.bfs_parabolic_order(rs.cartan, frozenset(range(rank)))
        size //= oracles.bfs_parabolic_order(rs.cartan, frozenset(right))
        assert len(cosets) == size
        assert len({c.point for c in cosets}) == len({c.rep.reduced_word for c in cosets}) == size
