"""Weyl groups worked on weight orbits, with exact integer arithmetic.

A weight is held by its coordinates mu_i = <mu, a_i^v> on the fundamental
weights, so a_i has coordinates ``cartan[k][i]`` and s_i sends mu to
mu - mu_i a_i.  The double cosets W_I\\W/W_J are the points mu of the
orbit of lambda_J, the sum of the fundamental weights outside J, with
mu_i >= 0 on I (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
The orbit is walked by reverse search (Avis and Fukuda, Discrete Appl.
Math. 65, 1996) on its graph (Stembridge, MSJ Memoirs 11, 2001): mu is
reached only from s_i mu, i its least coordinate with mu_i < 0, so each
point comes once, through its lexicographically least word, and each
level in word order.  A point is carried as its packed pairing word (see
``rootsys.RootIndex``), on which s_i is one subtraction.  Group orders are
products over the positive roots.

Elements carry their lexicographically least reduced word.  Since rho has
trivial stabilizer, w(rho) names w: equality and hashing go through it, and
products are words applied to rho and stripped back to their least reduced
word.  With J empty, lambda_J is rho and its orbit is the group, so a
``WeylGroup`` reads its element list, by length then word, off the orbit of
rho on first use.  Each double coset carries its orbit point mu =
w(lambda_J), and ``flagcalc`` its packed word, from which it reads the
action of w on roots; no integer matrix or root permutation of an element
is built.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
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


def parabolic_order(rs: RootSystem, subset: Iterable[int]) -> int:
    """Order of the parabolic subgroup W_S: the product of (ht + 1) / ht
    over its positive roots (Macdonald, "The Poincare series of a Coxeter
    group", Math. Ann. 199, 1972)."""
    subset = frozenset(subset)
    _check_subset(rs, subset)
    num = den = 1
    for root in rs.index.members(rs.index.lanes(subset)):
        height = sum(root.coords)
        num, den = num * (height + 1), den * height
    return num // den


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
    """The Weyl group of ``rs`` and its order.

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


def _cosets(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> Iterator[tuple[DoubleCoset, int]]:
    """``double_cosets``, each with the packed pairing word of its point, as
    the walk reaches it; the check that their sizes sum to |W| runs after the
    last one."""
    left, right = frozenset(left), frozenset(right)
    rs = group.system
    product = parabolic_order(rs, left) * parabolic_order(rs, right)
    index, w, lanes = rs.index, rs.index.lane, []
    half, mask, ones = 1 << w - 1, (1 << w) - 1, index.bias >> w - 1
    # per simple root a_i: the shift of its lane, which holds 2^(W-1) plus mu_i
    # (a_i, a_i) / s; that ratio; and <beta, a_i^v> in the lane of each beta,
    # which s_i takes off P as many times as the lane exceeds 2^(W-1)
    for root, column, values in zip(rs.simple_roots, zip(*rs.cartan), index.columns):
        shift = w * index.roots.index(root)
        length = values >> shift & mask
        lanes.append((shift, length, sum(map(mul, column, index.columns)) // length))
    keep = sum(half << lanes[i][0] for i in left)
    # lambda_J, whose stabilizer is W_J
    level = [((), sum((c for j, c in enumerate(index.columns) if j not in right), index.bias))]
    total, sizes = 0, {}
    while level:
        for word, p in level:
            if p & keep == keep:  # mu_i >= 0 on I
                # W_K, K the i in I with mu_i = 0, is the stabilizer of mu in W_I
                meet = keep & ~(p - ones)
                if meet not in sizes:
                    k = (i for i in left if meet >> lanes[i][0] & half)
                    sizes[meet] = product // parabolic_order(rs, k)
                total += sizes[meet]
                point = tuple(((p >> s & mask) - half) // n for s, n, _ in lanes)
                yield DoubleCoset(WeylElement(word, rs), sizes[meet], point), p
        # the children s_i p, mu_i > 0, with no lane below i negative: by i,
        # then by parent, so that the next level is in word order too
        children, low = [], 0
        for i, (shift, _, down) in enumerate(lanes):
            for word, p in level:
                c = (p >> shift & mask) - half
                if c > 0:
                    q = p - c * down
                    if q & low == low:
                        children.append(((i,) + word, q))
            low |= half << shift
        level = children
    if total != group.order:
        raise AssertionError("double cosets do not partition the group")


def double_cosets(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> tuple[DoubleCoset, ...]:
    """Double cosets of two parabolic subgroups, in canonical order.

    One per point mu of the orbit of lambda_J (J = ``right``) with
    mu_i >= 0 for every i in I = ``left``, carried as ``point``; its
    representative is the coset's unique member of minimal length, with
    its lexicographically least reduced word.  The coset has
    |W_I|*|W_J|/|W_K| members, W_K = W_I meeting w W_J w^{-1} being the
    stabilizer of mu in W_I: K is the i in I with mu_i = 0 (Kilmoyer).
    The orbit is walked by reverse search, each point once, level by level
    in word order, so the tuple comes out sorted by length, then reduced
    word.
    """
    return tuple(c for c, _ in _cosets(group, left, right))


def longest_coset_rep(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> WeylElement:
    """Minimal representative of the double coset of the longest element,
    apart from the coset filter: lambda_J lowered to its antidominant point
    w0(lambda_J), then raised by s_i, i in I, while mu_i < 0."""
    rs, left, right = group.system, sorted(frozenset(left)), frozenset(right)
    _check_subset(rs, left)
    _check_subset(rs, right)
    mu = tuple(int(j not in right) for j in range(rs.rank))
    while (i := next((i for i, c in enumerate(mu) if c > 0), None)) is not None:
        mu = _reflect(rs.cartan, mu, i)
    while (i := next((i for i in left if mu[i] < 0), None)) is not None:
        mu = _reflect(rs.cartan, mu, i)
    return WeylElement(_strip(rs.cartan, mu), rs)
