"""Weyl groups worked on weight orbits, with exact integer arithmetic.

A weight is held by its coordinates mu_i = <mu, a_i^v> on the fundamental
weights, so a_i has coordinates ``cartan[k][i]`` and s_i sends mu to
mu - mu_i a_i.  The orbit of lambda_J, the sum of the fundamental weights
outside J, is walked breadth first, lowering by s_i where mu_i > 0
(Stembridge, MSJ Memoirs 11, 2001); its points with mu_i >= 0 on I are the
double cosets W_I\\W/W_J (Humphreys, Reflection Groups and Coxeter Groups,
1.12).  Group and parabolic orders come by orbit-stabilizer.

Elements carry their lexicographically least reduced word; their integer
matrix on simple-root (and, through the invariant form, dual-basis)
coordinates is built from it when first read, and equality and hashing go
through it.  With J empty, lambda_J is rho and its orbit is the group, so a
``WeylGroup`` reads its element list, by length then word, off the orbit of
rho on first use; products and inverses are words applied to rho and
stripped back to their least reduced word.  No matrix walk exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

from .rootsys import AVector, Root, RootSystem, _check_subset

__all__ = [
    "WeylElement",
    "WeylGroup",
    "DoubleCoset",
    "generate",
    "parabolic_order",
    "act",
    "act_avector",
    "root_permutation",
    "length",
    "compose",
    "inverse",
    "subgroup",
    "double_cosets",
    "longest_coset_rep",
    "coset_table_json",
    "DEFAULT_ORDER_CAP",
    "HARD_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 100_000
HARD_ORDER_CAP = 1_000_000

Matrix = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class WeylElement:
    """Group element: its canonical reduced word, acting through its matrix."""

    reduced_word: tuple[int, ...]
    system: RootSystem = field(repr=False)

    @cached_property
    def matrix(self) -> Matrix:
        gens = (simple_reflection_matrix(self.system, i) for i in self.reduced_word)
        return reduce(_mat_mul, gens, _identity_matrix(self.system.rank))

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


def _reflect(cartan: Matrix, mu: Weight, i: int) -> Weight:
    c = mu[i]
    return tuple(m - c * row[i] for m, row in zip(mu, cartan))


def _levels(cartan: Matrix, mu: Weight, subset: Sequence[int]) -> Iterator[set[Weight]]:
    # the W_S-orbit of an S-dominant weight by length of the representative:
    # lowering by s_i where mu_i > 0 adds one to it, so no level recurs
    level = {mu}
    while level:
        yield level
        level = {_reflect(cartan, v, i) for v in level for i in subset if v[i] > 0}


@lru_cache(maxsize=None)
def _parabolic_order(cartan: Matrix, subset: frozenset[int]) -> int:
    # W_S moves the fundamental weight of k = max S with stabilizer W_{S\k}
    if not subset:
        return 1
    k = max(subset)
    orbit = _levels(cartan, tuple(int(i == k) for i in range(len(cartan))), sorted(subset))
    return sum(map(len, orbit)) * _parabolic_order(cartan, subset - {k})


def parabolic_order(rs: RootSystem, subset: Iterable[int]) -> int:
    """Order of the parabolic subgroup W_S, by orbit-stabilizer."""
    subset = frozenset(subset)
    _check_subset(rs, subset)
    return _parabolic_order(rs.cartan, subset)


@dataclass(frozen=True, eq=False)
class WeylGroup:
    """The group of ``system`` and its order; its elements, by length then
    lexicographic reduced word, are read off the orbit of rho on first use."""

    system: RootSystem
    order: int

    @cached_property
    def elements(self) -> tuple[WeylElement, ...]:
        return tuple(c.rep for c in double_cosets(self, (), ()))

    @property
    def identity(self) -> WeylElement:
        return WeylElement((), self.system)

    @property
    def simple_reflections(self) -> tuple[WeylElement, ...]:
        return tuple(WeylElement((i,), self.system) for i in range(self.system.rank))

    @cached_property
    def longest(self) -> WeylElement:
        return longest_coset_rep(self, (), ())


def generate(rs: RootSystem, order_cap: int | None = None) -> WeylGroup:
    """The Weyl group of ``rs``, its order found by orbit-stabilizer.

    Refuses an order above ``order_cap`` (default 10**5, hard ceiling
    10**6) with ValueError.
    """
    cap = min(order_cap if order_cap is not None else DEFAULT_ORDER_CAP, HARD_ORDER_CAP)
    order = parabolic_order(rs, range(rs.rank))
    if order > cap:
        raise ValueError(
            f"Weyl group of {rs.lie_type} exceeds the order cap {cap} "
            f"(at least {cap + 1} elements: its order is {order})"
        )
    # build_root_system checked the multiplicities against the generators
    return WeylGroup(system=rs, order=order)


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


def _strip(cartan: Matrix, mu: Weight) -> tuple[int, ...]:
    # the least descent, again and again, until mu is dominant: the
    # lex-least reduced word of the shortest w with w(lambda) = mu
    word = []
    while (i := next((i for i, c in enumerate(mu) if c < 0), None)) is not None:
        word.append(i)
        mu = _reflect(cartan, mu, i)
    return tuple(word)


def _canonical(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """The element spelled by ``word``, any word, with its lex-least reduced
    word: rho, whose stabilizer is trivial, moved by the word and stripped."""
    mu = (1,) * rs.rank
    for i in reversed(word):
        mu = _reflect(rs.cartan, mu, i)
    return WeylElement(_strip(rs.cartan, mu), rs)


def compose(group: WeylGroup, a: WeylElement, b: WeylElement) -> WeylElement:
    """Product a*b with its lex-least reduced word."""
    return _canonical(group.system, a.reduced_word + b.reduced_word)


def inverse(group: WeylGroup, w: WeylElement) -> WeylElement:
    return _canonical(group.system, w.reduced_word[::-1])


def subgroup(group: WeylGroup, theta: Iterable[int]) -> frozenset[WeylElement]:
    """Parabolic subgroup generated by the chosen simple reflections: by
    Tits' word property, the elements whose reduced word uses only letters
    of theta."""
    theta = frozenset(theta)
    _check_subset(group.system, theta)
    return frozenset(w for w in group.elements if theta.issuperset(w.reduced_word))


class DoubleCoset(NamedTuple):
    """One double coset: its minimal-length representative and its size."""

    rep: WeylElement
    size: int


def double_cosets(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> tuple[DoubleCoset, ...]:
    """Double cosets of two parabolic subgroups, in canonical order.

    One per point mu of the orbit of lambda_J (J = ``right``) with
    mu_i >= 0 for every i in I = ``left``; its representative is the
    coset's unique member of minimal length.  The coset has
    |W_I|*|W_J|/|W_K| members, W_K = W_I meeting w W_J w^{-1} being the
    stabilizer of mu in W_I: K is the i in I with mu_i = 0 (Kilmoyer).
    The returned tuple is sorted by length, then reduced word.
    """
    left, right = frozenset(left), frozenset(right)
    rs = group.system
    product = parabolic_order(rs, left) * parabolic_order(rs, right)
    cosets, above = [], {}
    lam = tuple(int(j not in right) for j in range(rs.rank))  # stabilizer W_J
    for level in _levels(rs.cartan, lam, range(rs.rank)):
        words = {}
        for mu in level:
            # lex-least word: the least i with mu_i < 0, then the word one level up
            i = next((i for i, c in enumerate(mu) if c < 0), None)
            words[mu] = () if i is None else (i,) + above[_reflect(rs.cartan, mu, i)]
            if all(mu[i] >= 0 for i in left):
                meet = frozenset(i for i in left if mu[i] == 0)
                rep = WeylElement(words[mu], rs)
                cosets.append(DoubleCoset(rep, product // _parabolic_order(rs.cartan, meet)))
        above = words
    if sum(c.size for c in cosets) != group.order:
        raise AssertionError("double cosets do not partition the group")
    return tuple(sorted(cosets, key=lambda c: (len(c.rep.reduced_word), c.rep.reduced_word)))


def longest_coset_rep(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> WeylElement:
    """Minimal representative of the double coset of the longest element,
    apart from the coset filter: lambda_J lowered to its antidominant point
    w0(lambda_J), then raised by s_i, i in I, while mu_i < 0."""
    rs, left, right = group.system, sorted(frozenset(left)), frozenset(right)
    mu = tuple(int(j not in right) for j in range(rs.rank))
    while (i := next((i for i, c in enumerate(mu) if c > 0), None)) is not None:
        mu = _reflect(rs.cartan, mu, i)
    while (i := next((i for i in left if mu[i] < 0), None)) is not None:
        mu = _reflect(rs.cartan, mu, i)
    return WeylElement(_strip(rs.cartan, mu), rs)


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
