from fractions import Fraction
from functools import partial

import pytest

import oracles
from flagctrl import rootsys
from flagctrl.rootsys import (
    FAMILIES,
    MAX_RANK,
    AVector,
    Root,
    build_root_system,
    cartan_matrix,
    form_value,
    span_subset,
)

ALL_TYPES = [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("A", 4, 20), ("A", 8, 72),
    ("B", 2, 8), ("B", 3, 18), ("B", 4, 32),
    ("C", 3, 18), ("C", 4, 32),
    ("D", 4, 24), ("D", 5, 40), ("D", 8, 112),
    ("E", 6, 72), ("E", 7, 126), ("E", 8, 240),
    ("F", 4, 48), ("G", 2, 12),
]


@pytest.mark.parametrize("family,rank,count", ALL_TYPES)
def test_root_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == count
    assert 2 * len(rs.positive_roots) == count


def test_invalid_types_rejected():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5),
                         ("E", 9), ("F", 3), ("G", 3), ("H", 2), ("A", 9)]:
        with pytest.raises(ValueError):
            build_root_system(family, rank)


def test_cartan_literals():
    assert cartan_matrix("G", 2) == ((2, -1), (-3, 2))
    assert cartan_matrix("F", 4) == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    assert cartan_matrix("B", 3) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan_matrix("C", 3) == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


@pytest.mark.parametrize("family,rank,_", ALL_TYPES)
def test_pairing_symmetric_positive_diagonal(family, rank, _):
    rs = build_root_system(family, rank)
    p = rs.pairing
    for i in range(rank):
        assert p[i][i] > 0
        for j in range(rank):
            assert p[i][j] == p[j][i]
    # long-root normalization: largest squared length is 2
    lengths = {form_value(rs, r.coords, r.coords) for r in rs.roots}
    assert max(lengths) == 2


def pairing_rows(index):
    """Per positive root, its lanes of the pairing columns."""
    lane = (1 << index.lane) - 1
    return tuple(
        tuple(column >> index.lane * j & lane for column in index.columns)
        for j in range(len(index.roots))
    )


def _is_valid(family, rank):
    try:
        cartan_matrix(family, rank)
    except ValueError:
        return False
    return True


VALID_TYPES = [(f, n) for f in FAMILIES for n in range(1, MAX_RANK + 1) if _is_valid(f, n)]


@pytest.mark.parametrize("family,rank", VALID_TYPES)
def test_lengths_pairing_and_form_match_the_rational_symmetrizer(family, rank):
    # the integer root lengths, the rational pairing and form_value against a
    # Fraction symmetrizer computed apart from the library
    rs = build_root_system(family, rank)
    d = oracles.symmetrizer(rs.cartan)
    lengths = tuple(x / min(d) for x in d)
    assert set(lengths) <= {1, 2, 3} and min(lengths) == 1
    # lane j of the pairing columns holds c_i (a_i, a_i) / s for positive
    # root j = sum(c_i a_i)
    positive = rs.index.roots
    assert pairing_rows(rs.index) == tuple(
        tuple(c * n for c, n in zip(r.coords, lengths)) for r in positive
    )
    assert rs.pairing == tuple(
        tuple(d[i] * rs.cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    assert all(type(x) is Fraction for row in rs.pairing for x in row)
    vectors = [a.coords for a in rs.simple_roots] + [positive[-1].coords]
    vectors.append(tuple(Fraction(i + 1, 3) * (-1) ** i for i in range(rank)))
    for a in vectors:
        for b in vectors:
            value = form_value(rs, a, b)
            assert type(value) is Fraction and value == oracles.form(rs.cartan, a, b)


def test_root_container():
    r = Root((1, -1))
    assert (-r).coords == (-1, 1)
    assert Root((1, 0)).is_positive and not Root((-1, 0)).is_positive
    with pytest.raises(ValueError):
        Root((0, 0))


def test_sign_coherence(b2, g2):
    for rs in (b2, g2):
        for r in rs.roots:
            signs = {x > 0 for x in r.coords if x != 0}
            assert len(signs) == 1


def test_reflect_closure_and_involution(g2):
    # the simple reflections on coordinates: involutions of the roots that send
    # a to -a, each the reflection beta - 2 (beta, a) / (a, a) a through its simple root
    coords = {r.coords for r in g2.roots}
    for i, a in enumerate(g2.simple_roots):
        reflect = partial(rootsys._simple_reflect_coords, g2.cartan, i)
        assert reflect(a.coords) == (-a).coords
        for beta in g2.roots:
            image = reflect(beta.coords)
            assert image in coords and reflect(image) == beta.coords
            c = 2 * form_value(g2, beta.coords, a.coords) / form_value(g2, a.coords, a.coords)
            assert image == tuple(b - c * x for b, x in zip(beta.coords, a.coords))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)])
def test_pairing_rows_pair_as_the_form(family, rank):
    # a simple root a_j, as a weight, has coordinates cartan[i][j]: each
    # positive root's row pairs with it to 2 (beta, a_j) / s, s the squared
    # length of a short root, in integers
    rs = build_root_system(family, rank)
    short = min(form_value(rs, a.coords, a.coords) for a in rs.simple_roots)
    rows = pairing_rows(rs.index)
    assert len(rows) == len(rs.positive_roots)
    for beta, row in zip(rs.index.roots, rows):
        assert all(isinstance(x, int) for x in row)
        for j, a in enumerate(rs.simple_roots):
            mu = [rs.cartan[i][j] for i in range(rank)]
            expected = 2 * form_value(rs, beta.coords, a.coords) / short
            assert sum(x * m for x, m in zip(row, mu)) == expected


def test_span_subset(a3):
    assert span_subset(a3, frozenset()) == frozenset()
    full = span_subset(a3, frozenset({0, 1, 2}))
    assert full == a3.roots
    part = span_subset(a3, frozenset({0, 2}))
    assert len(part) == 4
    for r in part:
        assert {i for i, c in enumerate(r.coords) if c} <= {0, 2}
    with pytest.raises(ValueError):
        span_subset(a3, frozenset({3}))


def test_positive_root_dual_sum_is_regular(a3):
    # 2 rho, the sum of the positive roots, pairs with a_i as (a_i, a_i)
    two_rho = tuple(map(sum, zip(*(r.coords for r in a3.positive_roots))))
    h = AVector.from_root(Root(two_rho))
    for a in a3.simple_roots:
        assert form_value(a3, a.coords, h.coords) == form_value(a3, a.coords, a.coords) > 0


def test_form_exactness(g2):
    a0, a1 = g2.simple_roots
    assert form_value(g2, a0.coords, a0.coords) == 2
    assert form_value(g2, a1.coords, a1.coords) == Fraction(2, 3)
    assert form_value(g2, a0.coords, a1.coords) == -1
    # a root and its dual vector share coordinates
    assert form_value(g2, a0.coords, AVector.from_root(a1).coords) == -1


def test_form_value_length_mismatch(a2):
    with pytest.raises(ValueError):
        form_value(a2, (1,), (1, 0))


def test_multiplicity_validation(b2):
    flat = {r.coords: 2 for r in b2.roots}
    rs = build_root_system("B", 2, mult=flat)
    assert all(rs.mult[r] == 2 for r in rs.roots)
    bad = dict(flat)
    bad[(1, 0)] = 5  # breaks reflection invariance
    message = r"not reflection-invariant: mult\(-1, 0\) = 2 but mult\(1, 0\) = 5$"
    with pytest.raises(ValueError, match=message):
        build_root_system("B", 2, mult=bad)
    with pytest.raises(ValueError):
        build_root_system("B", 2, mult={r.coords: 0 for r in b2.roots})
    # the lane tables hold every sum of multiplicities in at most 64 bits
    wide = build_root_system("A", 1, mult=lambda r: 2**62)
    assert wide.index.lane == 64
    assert wide.index.sums(wide.index.bias) == (2**62, 2**62)
    with pytest.raises(ValueError, match="64-bit lanes"):
        build_root_system("A", 1, mult=lambda r: 2**63)
