"""Exact root systems for the finite Dynkin families A through G.

Roots are integer vectors in the simple-root basis.  Vectors in the Cartan
subspace carry rational coordinates in the basis of pairing-duals of the
simple roots, so a root and its dual vector share coordinates.  The single
bridge between the two sides is the symmetrized Cartan matrix ``pairing``,
and every evaluation is an exact rational bilinear form: no floats anywhere.

Normalization: long roots have squared length 2.  Everything computed
downstream (zero tests, sign tests, subset inclusions) is invariant under a
global rescaling of the form, so callers needing a trace-form or
Killing-form scale can multiply through without changing any predicate.

Each system carries a ``RootIndex``: its roots as positions 0..N-1 with
tables for negation, sign, multiplicity, support and the simple
reflections, so the Weyl action is a permutation of positions and a set of
roots is an int bitmask.

All values are immutable after construction and safe to share between
threads; the span cache of a ``RootIndex`` only ever gains entries, and
every thread would compute the same ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Root",
    "AVector",
    "RootIndex",
    "RootSystem",
    "FAMILIES",
    "MAX_RANK",
    "cartan_matrix",
    "build_root_system",
    "reflect",
    "span_subset",
    "subset_mask",
    "positions",
    "evaluate",
    "form_value",
    "pairing_value",
    "characteristic_subset",
    "chamber_vector",
    "a_theta_basis",
    "root_system_json",
    "root_system_to_text",
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


@dataclass(frozen=True, order=True)
class Root:
    """A root as an integer coordinate vector over the simple roots."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords or all(c == 0 for c in self.coords):
            raise ValueError("a root must be a nonzero coordinate vector")

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords) if c != 0)


@dataclass(frozen=True, order=True)
class AVector:
    """A Cartan-subspace vector in the dual basis of the simple roots.

    Coordinates are exact rationals.  The dual vector of a root has the
    same coordinates as the root itself, which makes ``from_root`` the
    whole dictionary between the two sides.
    """

    coords: tuple[Fraction, ...]

    @staticmethod
    def from_root(root: Root) -> "AVector":
        return AVector(tuple(Fraction(c) for c in root.coords))

    @staticmethod
    def zero(rank: int) -> "AVector":
        return AVector((Fraction(0),) * rank)

    def __add__(self, other: "AVector") -> "AVector":
        return AVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, q: Fraction | int) -> "AVector":
        q = Fraction(q)
        return AVector(tuple(q * c for c in self.coords))


@dataclass(frozen=True, eq=False)
class RootIndex:
    """Roots as positions in sorted order, with one table entry per position.

    A set of roots is an int bitmask over positions, and a subset of the
    simple roots is an int bitmask over simple-root indices.  ``neg[k]`` is
    the position of the negated root, ``sign[k]`` is +1 or -1, ``support[k]``
    is the bitmask of simple roots with a nonzero coordinate, and
    ``reflections[i][k]`` is the position of the i-th simple reflection of
    root ``k``.  Spans of simple-root subsets are computed once per subset.
    """

    roots: tuple[Root, ...]
    position: Mapping[tuple[int, ...], int]
    neg: tuple[int, ...]
    sign: tuple[int, ...]
    mult: tuple[int, ...]
    support: tuple[int, ...]
    reflections: tuple[tuple[int, ...], ...]
    _spans: dict = field(repr=False, default_factory=dict)

    @property
    def positive_positions(self) -> range:
        # sorted order puts every negative root before every positive one
        return range(len(self.roots) // 2, len(self.roots))

    def span(self, subset: int) -> int:
        """Bitmask of the roots supported on the simple roots in ``subset``."""
        mask = self._spans.get(subset)
        if mask is None:
            outside = ~subset
            mask = sum(1 << k for k, supp in enumerate(self.support) if not supp & outside)
            self._spans[subset] = mask
        return mask

    def members(self, mask: int) -> frozenset[Root]:
        return frozenset(self.roots[k] for k in positions(mask))


def positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class RootSystem:
    """An irreducible finite root system with exact pairing data.

    ``cartan[i][j]`` is ``2 (a_i, a_j) / (a_i, a_i)`` for simple roots
    ``a_i``, so the i-th simple reflection subtracts ``cartan[i][j]``
    copies of ``a_i`` from ``a_j``.  ``pairing`` is the symmetrized form
    ``diag(d) @ cartan`` with ``max d = 1``.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    pairing: tuple[tuple[Fraction, ...], ...]
    simple_roots: tuple[Root, ...]
    roots: frozenset[Root]
    positive_roots: frozenset[Root]
    mult: Mapping[Root, int]
    index: RootIndex

    @property
    def lie_type(self) -> str:
        return f"{self.family}{self.rank}"

    def sorted_roots(self) -> tuple[Root, ...]:
        return self.index.roots

    def sorted_positive_roots(self) -> tuple[Root, ...]:
        return self.index.roots[self.index.positive_positions.start :]


def _validate_type(family: str, rank: int) -> None:
    ok = (
        family in FAMILIES
        and 1 <= rank <= MAX_RANK
        and {
            "A": rank >= 1,
            "B": rank >= 2,
            "C": rank >= 2,
            "D": rank >= 3,
            "E": rank in (6, 7, 8),
            "F": rank == 4,
            "G": rank == 2,
        }[family]
    )
    if not ok:
        raise ValueError(f"invalid Dynkin type ({family!r}, {rank})")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type, rows indexed by reflecting root."""
    _validate_type(family, rank)
    n = rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, down: int = -1, up: int = -1) -> None:
        m[i][j] = down
        m[j][i] = up

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if family == "B" and n >= 2:
            m[n - 1][n - 2] = -2  # last simple root short
        if family == "C" and n >= 2:
            m[n - 2][n - 1] = -2  # last simple root long
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif family == "E":
        for i, j in ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
            if i < n and j < n:
                link(i, j)
    elif family == "F":
        link(0, 1)
        link(1, 2, down=-1, up=-2)  # long-short edge
        link(2, 3)
    elif family == "G":
        link(0, 1, down=-1, up=-3)  # first root long, second short
    return tuple(tuple(row) for row in m)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    # solve d_i c_ij = d_j c_ji on the Dynkin graph, normalize max d = 1
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    if any(x is None for x in d):
        raise ValueError("Cartan matrix has a disconnected Dynkin graph")
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[operator]


def _simple_reflect_coords(
    cartan: tuple[tuple[int, ...], ...], i: int, coords: tuple[int, ...]
) -> tuple[int, ...]:
    c = sum(coords[j] * cartan[i][j] for j in range(len(coords)))
    return tuple(x - c if j == i else x for j, x in enumerate(coords))


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
    dvec = _symmetrizer(cartan)
    pairing = tuple(
        tuple(dvec[i] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    simple = tuple(
        Root(tuple(1 if j == i else 0 for j in range(rank))) for i in range(rank)
    )

    seen: set[tuple[int, ...]] = {r.coords for r in simple}
    frontier = [r.coords for r in simple]
    while frontier:
        nxt = []
        for coords in frontier:
            for i in range(rank):
                image = _simple_reflect_coords(cartan, i, coords)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt

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
    position = {r.coords: k for k, r in enumerate(ordered)}
    reflections = tuple(
        tuple(position[_simple_reflect_coords(cartan, i, r.coords)] for r in ordered)
        for i in range(rank)
    )
    if mult is None:
        mults = (1,) * len(ordered)
    else:
        getter = mult if callable(mult) else (lambda r: mult[r.coords])
        mults = tuple(getter(r) for r in ordered)
        for r, value in zip(ordered, mults):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"multiplicity of {r.coords} must be a positive integer")
        # invariance under the generators is invariance under the whole group
        for perm in reflections:
            for k, image in enumerate(perm):
                if mults[k] != mults[image]:
                    raise ValueError(
                        "multiplicity map is not reflection-invariant: "
                        f"mult{ordered[k].coords} = {mults[k]} but "
                        f"mult{ordered[image].coords} = {mults[image]}"
                    )
    index = RootIndex(
        roots=ordered,
        position=MappingProxyType(position),
        neg=tuple(position[(-r).coords] for r in ordered),
        sign=tuple(1 if r.is_positive else -1 for r in ordered),
        mult=mults,
        support=tuple(sum(1 << i for i, c in enumerate(r.coords) if c) for r in ordered),
        reflections=reflections,
    )

    return RootSystem(
        family=family,
        rank=rank,
        cartan=cartan,
        pairing=pairing,
        simple_roots=simple,
        roots=roots,
        positive_roots=positive,
        mult=MappingProxyType(dict(zip(ordered, mults))),
        index=index,
    )


def form_value(
    rs: RootSystem,
    a: Sequence[int | Fraction],
    b: Sequence[int | Fraction],
) -> Fraction:
    """Exact bilinear form of two coordinate vectors through ``pairing``."""
    if len(a) != rs.rank or len(b) != rs.rank:
        raise ValueError(f"coordinate length must equal rank {rs.rank}")
    total = Fraction(0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = rs.pairing[i]
        total += Fraction(ai) * sum(Fraction(bj) * row[j] for j, bj in enumerate(b) if bj != 0)
    return total


def pairing_value(rs: RootSystem, a: Root, b: Root) -> Fraction:
    return form_value(rs, a.coords, b.coords)


def evaluate(rs: RootSystem, alpha: Root, h: AVector) -> Fraction:
    """Evaluate the root ``alpha``, as a functional, on the vector ``h``.

    With ``h = AVector.from_root(beta)`` this returns the pairing
    ``(alpha, beta)``.
    """
    return form_value(rs, alpha.coords, h.coords)


def reflect(rs: RootSystem, beta: Root, alpha: Root) -> Root:
    """Reflection of ``alpha`` through the hyperplane of ``beta``."""
    if beta not in rs.roots:
        raise ValueError(f"{beta.coords} is not a root of {rs.lie_type}")
    if alpha not in rs.roots:
        raise ValueError(f"{alpha.coords} is not a root of {rs.lie_type}")
    coeff = 2 * pairing_value(rs, alpha, beta) / pairing_value(rs, beta, beta)
    if coeff.denominator != 1:
        raise AssertionError("non-integer Cartan coefficient")
    c = int(coeff)
    image = Root(tuple(a - c * b for a, b in zip(alpha.coords, beta.coords)))
    if image not in rs.roots:
        raise AssertionError("reflection left the root system")
    return image


def span_subset(rs: RootSystem, theta: Iterable[int]) -> frozenset[Root]:
    """Roots that are integer combinations of the chosen simple roots.

    For a subset of the simple system this is exactly the set of roots
    supported on ``theta``.
    """
    return rs.index.members(rs.index.span(subset_mask(rs, theta)))


def subset_mask(rs: RootSystem, theta: Iterable[int]) -> int:
    """Bitmask of a subset of the simple roots, checked against the rank."""
    theta = frozenset(theta)
    _check_subset(rs, theta)
    return sum(1 << i for i in theta)


def _check_subset(rs: RootSystem, theta: frozenset[int]) -> None:
    bad = [i for i in theta if not (0 <= i < rs.rank)]
    if bad:
        raise ValueError(f"simple-root indices {sorted(bad)} out of range for rank {rs.rank}")


def characteristic_subset(rs: RootSystem, h: AVector) -> frozenset[int]:
    """Simple roots vanishing on ``h``; requires ``h`` in the closed positive chamber."""
    values = [evaluate(rs, alpha, h) for alpha in rs.simple_roots]
    for i, v in enumerate(values):
        if v < 0:
            raise ValueError(
                f"vector lies outside the closed positive chamber: simple root {i} "
                f"evaluates to {v}"
            )
    return frozenset(i for i, v in enumerate(values) if v == 0)


def chamber_vector(rs: RootSystem, values: Sequence[Fraction | int]) -> AVector:
    """The vector on which simple root ``i`` evaluates to ``values[i]``.

    All values must be nonnegative, so the result lies in the closed
    positive chamber; solved exactly over the rationals.
    """
    if len(values) != rs.rank:
        raise ValueError(f"need {rs.rank} values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    if any(v < 0 for v in vals):
        raise ValueError("chamber values must be nonnegative")
    n = rs.rank
    aug = [[Fraction(rs.pairing[i][j]) for j in range(n)] + [vals[i]] for i in range(n)]
    for col in range(n):
        piv = next(k for k in range(col, n) if aug[k][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for k in range(n):
            if k != col and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[col])]
    return AVector(tuple(aug[i][n] for i in range(n)))


def a_theta_basis(rs: RootSystem, theta: Iterable[int]) -> tuple[AVector, ...]:
    """Rational basis of the annihilator subspace of the chosen simple roots.

    Returns vectors ``h`` with ``evaluate(a_i, h) = 0`` for every ``i`` in
    ``theta``; for the empty set this is the full dual basis.
    """
    theta = sorted(frozenset(theta))
    _check_subset(rs, frozenset(theta))
    n = rs.rank
    # row-reduce the theta rows of the pairing over the rationals
    rows = [[Fraction(rs.pairing[i][j]) for j in range(n)] for i in theta]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * n
        vec[j] = Fraction(1)
        for k, col in enumerate(pivots):
            vec[col] = -rows[k][j]
        basis.append(AVector(tuple(vec)))
    return tuple(basis)


def root_system_json(rs: RootSystem) -> dict:
    """Canonical JSON document: family, rank, Cartan data, sorted root list."""
    roots = rs.sorted_roots()
    return {
        "family": rs.family,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "pairing": [[str(x) for x in row] for row in rs.pairing],
        "roots": [list(r.coords) for r in roots],
        "mult": [rs.mult[r] for r in roots],
    }


def root_system_to_text(rs: RootSystem) -> str:
    return json.dumps(root_system_json(rs), sort_keys=True, separators=(",", ":"))
