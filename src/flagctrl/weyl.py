"""Weyl groups as exact integer matrix groups acting on simple-root coordinates.

Elements are generated breadth first from the simple reflections, so each
element carries the lexicographically least reduced word of minimal length
and enumeration order is deterministic: by length, then by word.  Equality
and hashing go through the matrix alone.  The same matrix acts on root
coordinates and on dual-basis coordinates of the Cartan subspace, because
the two bases are matched through the invariant form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .rootsys import AVector, Root, RootSystem, a_theta_basis

__all__ = [
    "WeylElement",
    "WeylGroup",
    "DoubleCoset",
    "generate",
    "act",
    "act_avector",
    "root_permutation",
    "length",
    "compose",
    "inverse",
    "subgroup",
    "double_cosets",
    "coset_table_json",
    "DEFAULT_ORDER_CAP",
    "HARD_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 100_000
HARD_ORDER_CAP = 1_000_000

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WeylElement:
    """Group element: integer matrix plus its canonical reduced word."""

    matrix: Matrix
    reduced_word: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    @property
    def is_identity(self) -> bool:
        return not self.reduced_word


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _mat_vec(m: Matrix, v: tuple) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def simple_reflection_matrix(rs: RootSystem, i: int) -> Matrix:
    """Matrix of the i-th simple reflection on simple-root coordinates."""
    n = rs.rank
    return tuple(
        tuple((1 if k == j else 0) - (rs.cartan[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """The full group, enumerated by length then lexicographic reduced word."""

    system: RootSystem
    elements: tuple[WeylElement, ...]
    simple_reflections: tuple[WeylElement, ...]
    longest: WeylElement
    _index: dict = field(repr=False)
    _subgroups: dict = field(repr=False, default_factory=dict)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    def lookup(self, matrix: Matrix) -> WeylElement:
        return self._index[matrix]


def generate(rs: RootSystem, order_cap: int | None = None) -> WeylGroup:
    """Generate the Weyl group by breadth-first closure of the reflections.

    Aborts with the partial count once the element count passes
    ``order_cap`` (default 10**5, hard ceiling 10**6).
    """
    cap = min(order_cap if order_cap is not None else DEFAULT_ORDER_CAP, HARD_ORDER_CAP)
    n = rs.rank
    gens = [simple_reflection_matrix(rs, i) for i in range(n)]

    ident = WeylElement(_identity_matrix(n), ())
    index: dict[Matrix, WeylElement] = {ident.matrix: ident}
    order: list[WeylElement] = [ident]
    frontier = [ident]
    while frontier:
        nxt: list[WeylElement] = []
        for w in frontier:
            for i in range(n):
                m = _mat_mul(w.matrix, gens[i])
                if m not in index:
                    e = WeylElement(m, w.reduced_word + (i,))
                    index[m] = e
                    order.append(e)
                    nxt.append(e)
                    if len(order) > cap:
                        raise ValueError(
                            f"Weyl group of {rs.lie_type} exceeds the order cap {cap} "
                            f"(at least {len(order)} elements generated)"
                        )
        frontier = nxt

    longest = order[-1]
    max_len = len(longest.reduced_word)
    if sum(1 for w in order if len(w.reduced_word) == max_len) != 1:
        raise AssertionError("longest element is not unique")
    if max_len != len(rs.positive_roots):
        raise AssertionError("longest length differs from the positive root count")
    neg_simple = {-s for s in rs.simple_roots}
    if {act(longest, s) for s in rs.simple_roots} != neg_simple:
        raise AssertionError("longest element does not negate the simple system")

    group = WeylGroup(
        system=rs,
        elements=tuple(order),
        simple_reflections=tuple(index[g] for g in gens),
        longest=longest,
        _index=index,
    )
    # build_root_system checked the multiplicities against the generators
    return group


def act(w: WeylElement, root: Root) -> Root:
    return Root(_mat_vec(w.matrix, root.coords))


def root_permutation(rs: RootSystem, w: WeylElement) -> tuple[int, ...]:
    """``w`` as a permutation of root positions in ``rs.index``.

    ``perm[k]`` is the position of ``w`` applied to root ``k``, composed
    from the simple-reflection permutations along the reduced word.
    """
    perm: Sequence[int] = range(len(rs.index.roots))
    for i in w.reduced_word:
        perm = [perm[k] for k in rs.index.reflections[i]]
    return tuple(perm)


def act_avector(w: WeylElement, h: AVector) -> AVector:
    # same matrix: dual-basis coordinates transform like root coordinates
    return AVector(_mat_vec(w.matrix, h.coords))


def length(w: WeylElement) -> int:
    return len(w.reduced_word)


def compose(group: WeylGroup, a: WeylElement, b: WeylElement) -> WeylElement:
    """Product a*b resolved to the canonical stored element."""
    return group.lookup(_mat_mul(a.matrix, b.matrix))


def inverse(group: WeylGroup, w: WeylElement) -> WeylElement:
    m = _identity_matrix(group.system.rank)
    for i in reversed(w.reduced_word):
        m = _mat_mul(m, group.simple_reflections[i].matrix)
    return group.lookup(m)


def _sort_key(w: WeylElement) -> tuple[int, tuple[int, ...]]:
    return (len(w.reduced_word), w.reduced_word)


def subgroup(group: WeylGroup, theta: Iterable[int]) -> frozenset[WeylElement]:
    """Parabolic subgroup generated by the chosen simple reflections.

    By Tits' word property its members are the elements whose reduced word
    uses only letters of theta.  Every member fixes the annihilator
    subspace of theta pointwise; this is verified on a basis of it at first
    construction.
    """
    theta = frozenset(theta)
    if theta in group._subgroups:
        return group._subgroups[theta]
    rs = group.system
    bad = [i for i in theta if not (0 <= i < rs.rank)]
    if bad:
        raise ValueError(f"simple-root indices {sorted(bad)} out of range for rank {rs.rank}")
    members = frozenset(w for w in group.elements if theta.issuperset(w.reduced_word))
    # the basis scaled to integer coordinates, so the test is integer exact
    fixed = [
        tuple(int(x * lcm(*(y.denominator for y in h.coords))) for x in h.coords)
        for h in a_theta_basis(rs, theta)
    ]
    for w in members:
        for h in fixed:
            if _mat_vec(w.matrix, h) != h:
                raise AssertionError(
                    f"subgroup member {w.reduced_word} moves a vector it must fix"
                )
    group._subgroups[theta] = members
    return members


class DoubleCoset(NamedTuple):
    """One double coset: its minimal-length representative and its size."""

    rep: WeylElement
    size: int


def double_cosets(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> tuple[DoubleCoset, ...]:
    """Double cosets of two parabolic subgroups, in canonical order.

    The representative of each coset is its unique member of minimal
    length: the element with no left descent in ``left`` and no right
    descent in ``right``.  Its coset has |W_I|*|W_J|/|W_K| members, where
    W_I meets w W_J w^{-1} in the parabolic W_K, K being the i in ``left``
    with w(a_j) = a_i for some j in ``right`` (Kilmoyer).  The returned
    tuple is sorted by length, then reduced word.
    """
    left, right = frozenset(left), frozenset(right)
    left_order = len(subgroup(group, left))
    right_order = len(subgroup(group, right))
    left_gens = [group.simple_reflections[i].matrix for i in left]
    cosets = []
    for w in group.elements:
        m = w.matrix
        # w(a_j) is column j; a right descent sends it negative
        if any(row[j] < 0 for j in right for row in m):
            continue
        n = len(w.reduced_word)
        if any(len(group.lookup(_mat_mul(s, m)).reduced_word) < n for s in left_gens):
            continue
        # a positive root of height 1 is the simple root at its one 1
        images = (tuple(row[j] for row in m) for j in right)
        meet = left.intersection(col.index(1) for col in images if sum(col) == 1)
        cosets.append(DoubleCoset(w, left_order * right_order // len(subgroup(group, meet))))
    if sum(c.size for c in cosets) != group.order:
        raise AssertionError("double cosets do not partition the group")
    return tuple(sorted(cosets, key=lambda c: _sort_key(c.rep)))


def coset_table_json(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> dict:
    left = sorted(frozenset(left))
    right = sorted(frozenset(right))
    table = double_cosets(group, left, right)
    return {
        "lie_type": group.system.lie_type,
        "order": group.order,
        "left": left,
        "right": right,
        "cosets": [
            {"rep_word": list(c.rep.reduced_word), "size": c.size} for c in table
        ],
    }
