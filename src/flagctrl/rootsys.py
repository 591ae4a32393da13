"""Exact root systems for the finite Dynkin families A through G.

Roots are integer vectors in the simple-root basis.  Vectors in the Cartan
subspace carry rational coordinates in the basis of pairing-duals of the
simple roots, so a root and its dual vector share coordinates.  The single
bridge between the two sides is the symmetrized Cartan matrix ``pairing``,
through which ``form_value`` evaluates exactly over the rationals: no
floats anywhere.  The rational side (``pairing``, ``AVector``,
``form_value``) loads ``fractions`` on first use; the classification itself
runs on the integer root lengths.

Normalization: long roots have squared length 2.  Everything computed
downstream (zero tests, sign tests, subset inclusions) is invariant under a
global rescaling of the form, so callers needing a trace-form or
Killing-form scale can multiply through without changing any predicate.

Each system carries a ``RootIndex``: its positive roots as positions with
their multiplicities, and three lane-packed integers over them.  A set of
positive roots is a lane mask.  The pairings (beta, mu) of every positive
root with a weight are one integer with one W-bit lane per root, so their
signs are a few big-integer operations; the multiplicity-weighted size and
coordinate sum of a set of positive roots are one product of its lane mask
with a reversed table (Lamport, "Multiple byte processing with full-word
instructions", CACM 18(8), 1975).

All values are immutable after construction and safe to share between
threads; the lane-mask cache of a ``RootIndex`` and the lazy ``pairing``
only ever gain entries, and every thread would compute the same ones.  A
``RootSystem`` pickles and copies as the arguments that build it.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cached_property, total_ordering
from itertools import compress, count
from operator import mul, neg
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Root",
    "AVector",
    "RootIndex",
    "RootSystem",
    "FAMILIES",
    "MAX_RANK",
    "cartan_matrix",
    "build_root_system",
    "span_subset",
    "form_value",
]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
MAX_RANK = 8

# number of roots per family, used as an independent cross-check on closure
_ROOT_COUNT: dict[str, Callable[[int], int]] = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


_bind = object.__setattr__

# memoryview formats of the lane widths a RootIndex can take
_LANE_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _Frozen:
    """Base of the immutable classes that are not tuples.

    ``__init__`` binds the fields that the class annotates, each once, by
    position or keyword, as ``cached_property`` binds its value; nothing
    rebinds them, and ``repr`` lists them.  A slotted subclass binds its own
    through ``_bind``.
    """

    __slots__ = ()

    def __init__(self, *values: object, **fields: object) -> None:
        names = type(self).__annotations__
        fields.update(zip(names, values))
        if len(values) > len(names) or fields.keys() != names.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        vars(self).update(fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Root(namedtuple("Root", "coords")):
    """A root as an integer coordinate vector over the simple roots,
    ordered, equal and hashed as the tuple ``(coords,)``."""

    __slots__ = ()

    def __new__(cls, coords: tuple[int, ...]) -> Root:
        if not any(coords):
            raise ValueError("a root must be a nonzero coordinate vector")
        return super().__new__(cls, coords)

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coords))

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)


@total_ordering
class AVector(_Frozen):
    """A Cartan-subspace vector in the dual basis of the simple roots.

    Coordinates are exact rationals, compared and ordered as a tuple; not a
    tuple itself, so that ``+`` is no concatenation.  The dual vector of a
    root has the same coordinates as the root itself, which makes
    ``from_root`` the whole dictionary between the two sides.
    """

    coords: tuple[Fraction, ...]

    def __eq__(self, other: object) -> bool:
        return self.coords == other.coords if type(other) is AVector else NotImplemented

    def __lt__(self, other: AVector) -> bool:
        return self.coords < other.coords if type(other) is AVector else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    @staticmethod
    def from_root(root: Root) -> AVector:
        from fractions import Fraction

        return AVector(tuple(map(Fraction, root.coords)))


class RootIndex(_Frozen):
    """Positive roots as positions in sorted order, one table entry each.

    ``mult[k]`` is the multiplicity of root ``k``.  Indices compare by
    identity.

    The N positive roots own one W-bit lane each (W = ``lane``), root j the
    bits from W j up, and a set of them is a lane mask: the top bit of each
    of its lanes, as ``bias`` is of all of them.  Lane j of ``columns[i]``
    holds c_i (a_i, a_i) / s for root j = sum(c_i a_i), s the squared length
    of a short root, so the packed pairing word of mu, ``bias`` plus
    sum(mu_i * columns[i]), holds 2^(W-1) + 2 (beta_j, mu) / s in lane j:
    its top bit is clear iff the pairing is negative, and stays set after
    one is taken off iff it is positive.  ``table`` holds field f of root j
    (its multiplicity for f = 0, else coordinate f - 1 times it) in lane
    N f + N - 1 - j, one bit up, so lane N (f + 1) of a mask times
    ``table`` sums field f over the mask (``sums``); the other lanes hold
    partial sums of fields f and f + 1.

    W is the least of 8, 16, 32, 64 with room for both.  The pairings fit
    when 2^(W-1) exceeds the sum of every positive root's column entries: mu
    is w(lambda) with lambda on 0/1 coordinates, so (beta, mu) is +-(gamma,
    lambda) for a positive root gamma.  No lane of a product carries when
    every two adjacent field totals sum below 2^W.  That gives 8 bits
    through E7 and 16 for E8.
    """

    roots: tuple[Root, ...]
    mult: tuple[int, ...]
    lane: int
    columns: tuple[int, ...]
    bias: int
    table: int

    @cached_property
    def _lanes(self) -> dict[frozenset[int], int]:
        return {}

    @cached_property
    def _layout(self) -> tuple[int, int, int, str, tuple[int, ...], int, int]:
        # N; a one in every lane; the byte length, lane format and
        # empty-mask sums of a mask-by-table product; field 0 of ``table``
        # and the bit where a product with it holds its sum
        n, w, fields = len(self.roots), self.lane, len(self.columns) + 1
        nbytes, head = w * n * (fields + 1) // 8, self.table & (1 << w * n + 1) - 1
        return n, self.bias >> w - 1, nbytes, _LANE_FORMAT[w], (0,) * fields, head, w * n

    def lanes(self, subset: frozenset[int]) -> int:
        """Lane mask of the positive roots supported on the simple roots in
        ``subset``, whose indices the caller has checked."""
        mask = self._lanes.get(subset)
        if mask is None:
            w, mask = self.lane, 0
            for j, r in enumerate(self.roots):
                if subset.issuperset(compress(count(), r.coords)):  # its support
                    mask += 1 << w * j + w - 1
            self._lanes[subset] = mask
        return mask

    def sums(self, mask: int) -> tuple[int, ...]:
        """Multiplicity-weighted size and coordinate sum of the positive
        roots in a lane mask, read off its product with ``table``."""
        n, _, nbytes, fmt, zero, _, _ = self._layout
        if not mask:
            return zero
        product = (mask * self.table).to_bytes(nbytes, sys.byteorder)
        return tuple(memoryview(product).cast(fmt)[n::n])

    def size(self, mask: int) -> int:
        """Field 0 of ``sums``, off the product with field 0 of ``table``."""
        *_, head, shift = self._layout
        return mask * head >> shift & (1 << self.lane) - 1

    def members(self, mask: int) -> frozenset[Root]:
        """The positive roots in a lane mask."""
        w = self.lane
        return frozenset(r for j, r in enumerate(self.roots) if mask >> w * j + w - 1 & 1)


class RootSystem(_Frozen):
    """An irreducible finite root system with exact pairing data, compared
    by identity.

    ``cartan[i][j]`` is ``2 (a_i, a_j) / (a_i, a_i)`` for simple roots
    ``a_i``, so the i-th simple reflection subtracts ``cartan[i][j]``
    copies of ``a_i`` from ``a_j``.  ``pairing`` is the symmetrized form
    ``diag(d) @ cartan`` with ``max d = 1``, in ``Fraction``s, built on
    first use.  Pickles and copies rebuild the system from its type and
    multiplicities.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    simple_roots: tuple[Root, ...]
    roots: frozenset[Root]
    positive_roots: frozenset[Root]
    mult: Mapping[Root, int]
    index: RootIndex

    @cached_property
    def pairing(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction

        # d_i = (a_i, a_i) / (long root length)
        lengths = _root_lengths(self.cartan)
        top = max(lengths)
        return tuple(
            tuple(Fraction(n * c, top) for c in row) for n, row in zip(lengths, self.cartan)
        )

    def __reduce__(self) -> tuple:
        # mult is a mappingproxy, which neither pickles nor copies
        return build_root_system, (self.family, self.rank, dict(self.mult).__getitem__)

    @property
    def lie_type(self) -> str:
        return f"{self.family}{self.rank}"


# the least and greatest rank of each family
_RANKS = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (3, 8), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _validate_type(family: str, rank: int) -> None:
    low, high = _RANKS[family] if family in FAMILIES else (1, 0)
    if not low <= rank <= high:
        raise ValueError(f"invalid Dynkin type ({family!r}, {rank})")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type, rows indexed by reflecting root."""
    _validate_type(family, rank)
    n = rank
    edges = [(i, i + 1) for i in range(n - 1)]  # a chain, but in D and E
    if family == "D":
        edges[-1] = (n - 3, n - 1)
    elif family == "E":
        edges[:2] = [(0, 2), (1, 3)]
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    # the multiple edge, as (row, column, entry): in B the last simple root is
    # short, in C long; in F the edge 1-2 and in G the edge 0-1 go long to short
    multiple = {"B": (n - 1, n - 2, -2), "C": (n - 2, n - 1, -2), "F": (2, 1, -2), "G": (1, 0, -3)}
    if family in multiple:
        i, j, entry = multiple[family]
        m[i][j] = entry
    return tuple(map(tuple, m))


def _root_lengths(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    # (a_i, a_i) / s, s the squared length of a short root: 1, 2 or 3.  Solve
    # d_i c_ij = d_j c_ji on the Dynkin graph in integers from d_0 = 6: each
    # edge scales by 1, 2, 3 or their inverse, and an irreducible diagram has
    # at most one multiple edge, so every division is exact
    n = len(cartan)
    d: list[int | None] = [None] * n
    d[0] = 6
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] // cartan[j][i]
                todo.append(j)
    if None in d:
        raise ValueError("Cartan matrix has a disconnected Dynkin graph")
    short = min(d)  # type: ignore[type-var]
    return tuple(x // short for x in d)  # type: ignore[operator]


def _simple_reflect_coords(
    cartan: tuple[tuple[int, ...], ...], i: int, coords: tuple[int, ...]
) -> tuple[int, ...]:
    return coords[:i] + (coords[i] - sum(map(mul, coords, cartan[i])),) + coords[i + 1 :]


def build_root_system(
    family: str,
    rank: int,
    mult: Mapping[tuple[int, ...], int] | Callable[[Root], int] | None = None,
) -> RootSystem:
    """Build the root system by closing the simple roots under reflections.

    ``mult`` optionally assigns a positive integer to every root (keyed by
    coordinate tuple, or a callable on roots); it must be invariant under
    the simple reflections, which generate the full Weyl action.  The
    default is the constant map 1.
    """
    cartan = cartan_matrix(family, rank)
    lengths = _root_lengths(cartan)
    simple = tuple(Root(tuple(int(j == i) for j in range(rank))) for i in range(rank))

    found = [r.coords for r in simple]
    seen = set(found)
    for coords in found:  # read while it grows, so every image gets reflected
        for i in range(rank):
            image = _simple_reflect_coords(cartan, i, coords)
            if image not in seen:
                seen.add(image)
                found.append(image)

    roots = frozenset(Root(c) for c in seen)
    expected = _ROOT_COUNT[family](rank)
    if len(roots) != expected:
        raise AssertionError(
            f"closure produced {len(roots)} roots for {family}{rank}, expected {expected}"
        )
    positive = frozenset(r for r in roots if r.is_positive)
    for r in roots:
        if not (r.is_positive or (-r).is_positive):
            raise AssertionError(f"root with mixed coordinate signs: {r.coords}")
    if 2 * len(positive) != len(roots):
        raise AssertionError("positive roots do not cover half the system")

    ordered = tuple(sorted(roots))
    if mult is None:
        mults = (1,) * len(ordered)
    else:
        getter = mult if callable(mult) else (lambda r: mult[r.coords])
        mults = tuple(getter(r) for r in ordered)
        for r, value in zip(ordered, mults):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"multiplicity of {r.coords} must be a positive integer")
        # invariance under the generators is invariance under the whole group
        by_coords = {r.coords: m for r, m in zip(ordered, mults)}
        for i in range(rank):
            for r, m in zip(ordered, mults):
                image = _simple_reflect_coords(cartan, i, r.coords)
                if m != by_coords[image]:
                    raise ValueError(
                        "multiplicity map is not reflection-invariant: "
                        f"mult{r.coords} = {m} but mult{image} = {by_coords[image]}"
                    )
    # sorted order puts every negative root before every positive one
    positive_roots, positive_mults = ordered[len(positive) :], mults[len(positive) :]
    index = RootIndex(
        roots=positive_roots,
        mult=positive_mults,
        **_lane_tables(positive_roots, positive_mults, lengths),
    )

    return RootSystem(
        family=family,
        rank=rank,
        cartan=cartan,
        simple_roots=simple,
        roots=roots,
        positive_roots=positive,
        mult=MappingProxyType(dict(zip(ordered, mults))),
        index=index,
    )


def _lane_tables(
    positive: Sequence[Root], mults: Sequence[int], lengths: Sequence[int]
) -> dict[str, int | tuple[int, ...]]:
    # the lane width, pairing columns, bias and reversed table of RootIndex;
    # a field of root j: its multiplicity, then its coordinates times it
    rows, fields = [], []
    for r, m in zip(positive, mults):
        rows.append(list(map(mul, r.coords, lengths)))
        fields.append([m, *map(m.__mul__, r.coords)])
    totals = list(map(sum, zip(*fields)))
    bound, adjacent = max(map(sum, rows)), max(map(sum, zip(totals, totals[1:])))
    w = 8
    while 1 << w - 1 <= bound or 1 << w <= adjacent:
        w *= 2
    if w not in _LANE_FORMAT:
        raise ValueError(f"multiplicities too large for {max(_LANE_FORMAT)}-bit lanes")
    n, columns, bias, table = len(positive), [0] * len(lengths), 0, 0
    for j, (row, field) in enumerate(zip(rows, fields)):
        bias += 1 << w * j + w - 1
        for i, x in enumerate(row):
            columns[i] += x << w * j
        for f, v in enumerate(field):
            table += v << w * (n * f + n - 1 - j) + 1
    return {"lane": w, "columns": tuple(columns), "bias": bias, "table": table}


def form_value(
    rs: RootSystem,
    a: Sequence[int | Fraction],
    b: Sequence[int | Fraction],
) -> Fraction:
    """Exact bilinear form of two coordinate vectors through ``pairing``."""
    from fractions import Fraction

    if len(a) != rs.rank or len(b) != rs.rank:
        raise ValueError(f"coordinate length must equal rank {rs.rank}")
    total = Fraction(0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = rs.pairing[i]
        total += Fraction(ai) * sum(Fraction(bj) * row[j] for j, bj in enumerate(b) if bj != 0)
    return total


def span_subset(rs: RootSystem, theta: Iterable[int]) -> frozenset[Root]:
    """Roots that are integer combinations of the chosen simple roots.

    For a subset of the simple system this is exactly the set of roots
    supported on ``theta``.
    """
    theta = frozenset(theta)
    _check_subset(rs, theta)
    positive = rs.index.members(rs.index.lanes(theta))
    return positive | frozenset(map(neg, positive))


def _check_subset(rs: RootSystem, theta: frozenset[int], name: str = "simple-root") -> None:
    bad = [i for i in theta if not (0 <= i < rs.rank)]
    if bad:
        raise ValueError(f"{name} indices {sorted(bad)} out of range for rank {rs.rank}")
