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
from typing import Iterable, Sequence

from .rootsys import AVector, Root, RootSystem, a_theta_basis, evaluate

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
    "mult_is_invariant",
    "inversion_set",
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

    Every member fixes the annihilator subspace of theta pointwise; this is
    verified on a rational basis at first construction.
    """
    theta = frozenset(theta)
    if theta in group._subgroups:
        return group._subgroups[theta]
    rs = group.system
    bad = [i for i in theta if not (0 <= i < rs.rank)]
    if bad:
        raise ValueError(f"simple-root indices {sorted(bad)} out of range for rank {rs.rank}")
    gens = [group.simple_reflections[i] for i in sorted(theta)]
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                e = compose(group, w, g)
                if e not in members:
                    members.add(e)
                    nxt.append(e)
        frontier = nxt
    fixed = a_theta_basis(rs, theta)
    for w in members:
        for h in fixed:
            if act_avector(w, h) != h:
                raise AssertionError(
                    f"subgroup member {w.reduced_word} moves a vector it must fix"
                )
    result = frozenset(members)
    group._subgroups[theta] = result
    return result


@dataclass(frozen=True, eq=False)
class DoubleCoset:
    """One double coset with its canonical minimal-length representative."""

    rep: WeylElement
    members: frozenset[WeylElement]

    @property
    def size(self) -> int:
        return len(self.members)


def double_cosets(
    group: WeylGroup, left: Iterable[int], right: Iterable[int]
) -> tuple[DoubleCoset, ...]:
    """Double cosets of two parabolic subgroups, in canonical order.

    The representative of each coset is the unique member of minimal
    length, ties broken lexicographically on reduced words; the returned
    tuple is sorted by that key, so the output is independent of
    enumeration order.
    """
    left_elems = sorted(subgroup(group, left), key=_sort_key)
    right_elems = sorted(subgroup(group, right), key=_sort_key)
    seen: set[WeylElement] = set()
    cosets = []
    for w in group.elements:
        if w in seen:
            continue
        members = set()
        for l in left_elems:
            lw = _mat_mul(l.matrix, w.matrix)
            for r in right_elems:
                members.add(group.lookup(_mat_mul(lw, r.matrix)))
        seen |= members
        rep = min(members, key=_sort_key)
        cosets.append(DoubleCoset(rep=rep, members=frozenset(members)))
    total = sum(c.size for c in cosets)
    if total != group.order:
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


def mult_is_invariant(group: WeylGroup) -> bool:
    """Check the root multiplicity map against the whole generated group.

    ``build_root_system`` already checks it against the simple reflections,
    which suffices; this whole-group pass is kept as an independent oracle.
    """
    rs = group.system
    return all(
        rs.mult[act(w, r)] == rs.mult[r] for w in group.elements for r in rs.roots
    )


def inversion_set(group: WeylGroup, w: WeylElement) -> frozenset[Root]:
    """Positive roots sent negative by ``w``; its size equals the length."""
    rs = group.system
    return frozenset(r for r in rs.positive_roots if not act(w, r).is_positive)
