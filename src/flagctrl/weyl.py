"""Weyl groups worked on weight orbits, with exact integer arithmetic.

A weight is held by its coordinates mu_i = <mu, a_i^v> on the fundamental
weights, so a_i has coordinates ``cartan[k][i]`` and s_i sends mu to
mu - mu_i a_i.  The orbit of lambda_J, the sum of the fundamental weights
outside J, is walked breadth first, lowering by s_i where mu_i > 0
(Stembridge, MSJ Memoirs 11, 2001); its points with mu_i >= 0 on I are the
double cosets W_I\\W/W_J (Humphreys, Reflection Groups and Coxeter Groups,
1.12).  Group and parabolic orders come by orbit-stabilizer.

Elements carry their lexicographically least reduced word.  Since rho has
trivial stabilizer, w(rho) names w: equality and hashing go through it, and
products are words applied to rho and stripped back to their least reduced
word.  With J empty, lambda_J is rho and its orbit is the group, so a
``WeylGroup`` reads its element list, by length then word, off the orbit of
rho on first use.  Each double coset carries its orbit point mu =
w(lambda_J), from which ``flagcalc`` reads the action of w on roots; no
integer matrix or root permutation of an element is built.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .rootsys import RootSystem, _bind, _check_subset, _Frozen

__all__ = [
    "WeylElement",
    "WeylGroup",
    "DoubleCoset",
    "generate",
    "parabolic_order",
    "compose",
    "subgroup",
    "double_cosets",
    "longest_coset_rep",
    "coset_table_json",
    "DEFAULT_ORDER_CAP",
    "HARD_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 100_000
HARD_ORDER_CAP = 1_000_000

Cartan = tuple[tuple[int, ...], ...]
Weight = tuple[int, ...]


class WeylElement(_Frozen):
    """Group element: its canonical reduced word, named by its image of rho."""

    __slots__ = ("reduced_word", "system", "_rho")

    def __init__(self, reduced_word: tuple[int, ...], system: RootSystem) -> None:
        _bind(self, "reduced_word", reduced_word)
        _bind(self, "system", system)

    def __repr__(self) -> str:
        return f"WeylElement(reduced_word={self.reduced_word!r})"

    def __reduce__(self) -> tuple:
        # copies rebuild through __init__, past the frozen __setattr__
        return WeylElement, (self.reduced_word, self.system)

    @property
    def rho_image(self) -> Weight:
        """w(rho) on the fundamental weights, walked on first use."""
        try:
            return self._rho
        except AttributeError:
            _bind(self, "_rho", self.weight_image((1,) * self.system.rank))
            return self._rho

    def weight_image(self, mu: Weight) -> Weight:
        """w(mu) on the fundamental weights, walked along the word, which
        need not be reduced."""
        for i in reversed(self.reduced_word):
            mu = _reflect(self.system.cartan, mu, i)
        return mu

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system.cartan == other.system.cartan and self.rho_image == other.rho_image

    def __hash__(self) -> int:
        return hash((self.system.cartan, self.rho_image))

    @property
    def is_identity(self) -> bool:
        return not self.reduced_word


def _reflect(cartan: Cartan, mu: Weight, i: int) -> Weight:
    c = mu[i]
    return tuple(m - c * row[i] for m, row in zip(mu, cartan))


def _levels(cartan: Cartan, mu: Weight, subset: Sequence[int]) -> Iterator[set[Weight]]:
    # the W_S-orbit of an S-dominant weight by length of the representative:
    # lowering by s_i where mu_i > 0 adds one to it, so no level recurs
    level = {mu}
    while level:
        yield level
        level = {_reflect(cartan, v, i) for v in level for i in subset if v[i] > 0}


@lru_cache(maxsize=None)
def _parabolic_order(cartan: Cartan, subset: frozenset[int]) -> int:
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


class WeylGroup(_Frozen):
    """The group of ``system`` and its order, compared by identity; its
    elements, by length then lexicographic reduced word, are read off the
    orbit of rho on first use."""

    system: RootSystem
    order: int

    @cached_property
    def elements(self) -> tuple[WeylElement, ...]:
        return tuple(c.rep for c in double_cosets(self, (), ()))

    @property
    def identity(self) -> WeylElement:
        return WeylElement((), self.system)

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


def _strip(cartan: Cartan, mu: Weight) -> tuple[int, ...]:
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
    return WeylElement(_strip(rs.cartan, WeylElement(tuple(word), rs).rho_image), rs)


def compose(group: WeylGroup, a: WeylElement, b: WeylElement) -> WeylElement:
    """Product a*b with its lex-least reduced word."""
    return _canonical(group.system, a.reduced_word + b.reduced_word)


def subgroup(group: WeylGroup, theta: Iterable[int]) -> frozenset[WeylElement]:
    """Parabolic subgroup generated by the chosen simple reflections: by
    Tits' word property, the elements whose reduced word uses only letters
    of theta."""
    theta = frozenset(theta)
    _check_subset(group.system, theta)
    return frozenset(w for w in group.elements if theta.issuperset(w.reduced_word))


class DoubleCoset(NamedTuple):
    """One double coset: its minimal-length representative, its size, and
    its orbit point rep(lambda_J) on the fundamental weights."""

    rep: WeylElement
    size: int
    point: Weight


def double_cosets(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> tuple[DoubleCoset, ...]:
    """Double cosets of two parabolic subgroups, in canonical order.

    One per point mu of the orbit of lambda_J (J = ``right``) with
    mu_i >= 0 for every i in I = ``left``, carried as ``point``; its
    representative is the coset's unique member of minimal length.  The
    coset has |W_I|*|W_J|/|W_K| members, W_K = W_I meeting w W_J w^{-1}
    being the stabilizer of mu in W_I: K is the i in I with mu_i = 0
    (Kilmoyer).  The returned tuple is sorted by length, then reduced word.
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
                cosets.append(DoubleCoset(rep, product // _parabolic_order(rs.cartan, meet), mu))
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
