"""Independent brute-force recomputations used to cross-check the library.

Nothing here calls the classification code under test: the Weyl group is
walked breadth first over integer matrices (``walk``), not read off a
weight orbit, cells are classified from raw integer matrix arithmetic on
root coordinates only, the cocycle along a controlled flow is refactored
after every integrator step, and tangent realizations and their volumes
are built one elementary d x d matrix at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np
import scipy.linalg

from flagctrl.rootsys import Root, RootSystem
from flagctrl.weyl import WeylElement, WeylGroup

Matrix = tuple[tuple[int, ...], ...]


def mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def brute_span(rs: RootSystem, subset: frozenset[int]) -> set[Root]:
    out = set()
    for r in rs.roots:
        if all(c == 0 for i, c in enumerate(r.coords) if i not in subset):
            out.add(r)
    return out


Spans = tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]


def brute_spans(rs: RootSystem, theta: frozenset[int], ftype: frozenset[int]) -> Spans:
    """Root coordinates in the spans of theta and of the flow type, built
    once and shared by every cell of a (theta, flow type) pair."""
    return tuple(frozenset(r.coords for r in brute_span(rs, sub)) for sub in (theta, ftype))


def brute_cell(
    rs: RootSystem,
    theta: frozenset[int],
    ftype: frozenset[int],
    w: WeylElement,
    spans: Spans | None = None,
) -> tuple[tuple[int, int, int], bool, bool]:
    """((s, c, u), center_empty, inclusion_holds) from raw arithmetic."""
    span_t, span_f = spans or brute_spans(rs, theta, ftype)
    s = c = u = 0
    for r in rs.positive_roots:
        if r.coords in span_t:
            continue
        img = tuple(-x for x in mat_vec(w.matrix, r.coords))
        mult = rs.mult[Root(img)]
        if img in span_f:
            c += mult
        elif any(x > 0 for x in img):
            u += mult
        else:
            s += mult
    image_span = {mat_vec(w.matrix, v) for v in span_t}
    inclusion = span_f <= image_span
    return (s, c, u), c == 0, inclusion


def brute_flag_dim(rs: RootSystem, theta: frozenset[int]) -> int:
    span_t = brute_span(rs, theta)
    return sum(rs.mult[r] for r in rs.positive_roots if r not in span_t)


def all_subsets(rank: int):
    from itertools import combinations

    for size in range(rank + 1):
        for combo in combinations(range(rank), size):
            yield frozenset(combo)


def brute_sigma(
    rs: RootSystem,
    theta: frozenset[int],
    ftype: frozenset[int],
    w: WeylElement,
    sign: int,
    spans: Spans | None = None,
) -> tuple[int, ...]:
    """Multiplicity-weighted coordinate sum over one instability class."""
    span_t, span_f = spans or brute_spans(rs, theta, ftype)
    total = [0] * rs.rank
    for r in rs.positive_roots:
        if r.coords in span_t:
            continue
        img = tuple(-x for x in mat_vec(w.matrix, r.coords))
        if img in span_f:
            continue
        positive = any(x > 0 for x in img)
        if (sign > 0) != positive:
            continue
        mult = rs.mult[Root(img)]
        for i, x in enumerate(img):
            total[i] += mult * x
    return tuple(total)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(len(a))
    )


def reflection_matrices(rs: RootSystem) -> list[Matrix]:
    """The simple reflections on simple-root coordinates: s_i subtracts
    ``cartan[i][j]`` copies of a_i from a_j."""
    n = rs.rank
    return [
        tuple(
            tuple(int(k == j) - (rs.cartan[i][j] if k == i else 0) for j in range(n))
            for k in range(n)
        )
        for i in range(n)
    ]


@lru_cache(maxsize=None)
def walk(rs: RootSystem) -> dict[Matrix, WeylElement]:
    """Every element of the Weyl group by its matrix, breadth first from the
    simple reflections, so each carries its lexicographically least reduced
    word and they come by length, then word.  Checks that the one element
    of greatest length has length |positive roots| and negates the simple
    system."""
    gens = reflection_matrices(rs)
    ident = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    index = {ident: WeylElement((), rs)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i, g in enumerate(gens):
                p = mat_mul(m, g)
                if p not in index:
                    e = index[p] = WeylElement(index[m].reduced_word + (i,), rs)
                    vars(e)["matrix"] = p  # the walk's own product, not the library's
                    nxt.append(p)
        frontier = nxt

    w0_matrix, w0 = next(reversed(index.items()))
    max_len = len(w0.reduced_word)
    if sum(1 for w in index.values() if len(w.reduced_word) == max_len) != 1:
        raise AssertionError("longest element is not unique")
    if max_len != len(rs.positive_roots):
        raise AssertionError("longest length differs from the positive root count")
    images = {mat_vec(w0_matrix, s.coords) for s in rs.simple_roots}
    if images != {(-s).coords for s in rs.simple_roots}:
        raise AssertionError("longest element does not negate the simple system")
    return index


def subgroup_elements(group: WeylGroup, subset: frozenset[int]) -> set[WeylElement]:
    """W_S grown from the identity by the simple reflections of S."""
    index = walk(group.system)
    gens = [g for i, g in enumerate(reflection_matrices(group.system)) if i in subset]
    ident = next(iter(index))
    members, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in members:
                    members.add(p)
                    nxt.append(p)
        frontier = nxt
    return {index[m] for m in members}


@lru_cache(maxsize=None)
def _mult_tables(group: WeylGroup) -> tuple[list[list[int]], list[list[int]]]:
    # positions of s_i*w and w*s_i for every element w, by matrix products
    mats = list(walk(group.system))
    position = {m: k for k, m in enumerate(mats)}
    gens = reflection_matrices(group.system)
    left = [[position[mat_mul(s, m)] for m in mats] for s in gens]
    right = [[position[mat_mul(m, s)] for m in mats] for s in gens]
    return left, right


def double_coset_partition(
    group: WeylGroup, left: frozenset[int], right: frozenset[int]
) -> list[frozenset[WeylElement]]:
    """Every W_I*w*W_J as a set, each grown from its first element in
    walk order by multiplying with the simple reflections of I on the left
    and of J on the right until it closes."""
    members_of = list(walk(group.system).values())
    lmul, rmul = _mult_tables(group)
    steps = [lmul[i] for i in sorted(left)] + [rmul[j] for j in sorted(right)]
    seen = [False] * len(members_of)
    out = []
    for start in range(len(members_of)):
        if seen[start]:
            continue
        seen[start] = True
        members, frontier = [start], [start]
        while frontier:
            frontier = [t[k] for k in frontier for t in steps if not seen[t[k]]]
            frontier = list(dict.fromkeys(frontier))
            for k in frontier:
                seen[k] = True
            members += frontier
        out.append(frozenset(members_of[k] for k in members))
    return out


@lru_cache(maxsize=None)
def _descent_table(group: WeylGroup) -> list[tuple[WeylElement, frozenset, frozenset, dict]]:
    # per element in walk order: its right descents (columns sent negative),
    # its left descents (s_i*w shorter, by matrix product in the walk), and
    # the index of each column that is a simple root
    index = walk(group.system)
    gens = reflection_matrices(group.system)
    out = []
    for m, w in index.items():
        cols = list(zip(*m))
        n = len(w.reduced_word)
        right = frozenset(j for j, col in enumerate(cols) if min(col) < 0)
        left = frozenset(
            i for i, s in enumerate(gens) if len(index[mat_mul(s, m)].reduced_word) < n
        )
        # a positive root of height 1 is the simple root at its one 1
        simple = {j: col.index(1) for j, col in enumerate(cols) if min(col) >= 0 and sum(col) == 1}
        out.append((w, right, left, simple))
    return out


@lru_cache(maxsize=None)
def word_subgroup_order(group: WeylGroup, subset: frozenset[int]) -> int:
    """|W_S| as the count of elements whose reduced word uses only S (Tits)."""
    return sum(1 for w in walk(group.system).values() if subset.issuperset(w.reduced_word))


def filtered_double_cosets(
    group: WeylGroup, left: frozenset[int], right: frozenset[int]
) -> list[tuple[tuple[int, ...], int]]:
    """(reduced word, size) of every double coset W_I*w*W_J, by a pass over
    the whole group: w is kept when it has no right descent in J and no left
    descent in I, and sized by Kilmoyer's theorem as |W_I|*|W_J|/|W_K|, K the
    i in I with w(a_j) = a_i for some j in J."""
    product = word_subgroup_order(group, left) * word_subgroup_order(group, right)
    out = []
    for w, right_desc, left_desc, simple in _descent_table(group):
        if right_desc & right or left_desc & left:
            continue
        meet = left & {simple[j] for j in right if j in simple}
        out.append((w.reduced_word, product // word_subgroup_order(group, meet)))
    return out


def mult_is_invariant(group: WeylGroup) -> bool:
    """Check the root multiplicity map against the whole generated group.

    ``build_root_system`` already checks it against the simple reflections,
    which suffices; this whole-group pass is an independent oracle.
    """
    rs = group.system
    return all(
        rs.mult[Root(mat_vec(m, r.coords))] == rs.mult[r] for m in walk(rs) for r in rs.roots
    )


def inversion_set(group: WeylGroup, w: WeylElement) -> frozenset[Root]:
    """Positive roots sent negative by ``w``; its size equals the length."""
    rs = group.system
    return frozenset(
        r for r in rs.positive_roots if not Root(mat_vec(w.matrix, r.coords)).is_positive
    )


def stepwise_cocycle(
    spec, signal, T: float, frame: np.ndarray, sample_every: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Times and cocycle values as ``sldr.cocycle_sample`` returns them, with
    one RK4 step and one sign-fixed QR per dt step.

    Reads only the system's matrices and the signal's values; the step grid,
    the RK4 polynomial and the QR sign fix are rebuilt here.
    """
    dt = spec.integrator.dt
    n = int(round(abs(T) / dt))
    h = dt if T >= 0 else -dt
    eye = np.eye(spec.dim)
    acc = np.zeros(spec.dim)
    times, values = [0.0], [acc]
    for i in range(n):
        a = h * spec.generator(signal.value_at((i + 0.5) * h))
        step = eye + a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
        if not np.array_equal(step, eye):
            q, r = np.linalg.qr(step @ frame)
            signs = np.where(np.diag(r) < 0, -1.0, 1.0)
            frame = q * signs
            acc = acc + np.log(np.diag(r) * signs)
        if (i + 1) % sample_every == 0 or i == n - 1:
            times.append((i + 1) * h)
            values.append(acc)
    return np.asarray(times), np.vstack(values)


def lower_mask(blocks: tuple[int, ...]) -> np.ndarray:
    """Boolean d x d mask of the block strictly lower positions."""
    bid = []
    for bi, b in enumerate(blocks):
        bid += [bi] * b
    bid = np.asarray(bid)
    return bid[:, None] > bid[None, :]


def realization_by_positions(split, blocks: tuple[int, ...], word: tuple[int, ...]):
    """Fixed frame of the cell of ``word`` and its (stable, center,
    unstable) realizations, each as (orthonormal d x d matrices, sorted
    exponents).  Each elementary matrix E_ij at a lower position is carried
    to r E_ij r^-1 masked, with r the sign-fixed triangular factor of the
    permuted eigenbasis of ``split`` (a ``sldr.SplitPart``)."""
    d = len(split.h)
    p = np.eye(d)
    for i in word:
        t = np.eye(d)
        t[i, i] = t[i + 1, i + 1] = 0.0
        t[i, i + 1] = t[i + 1, i] = 1.0
        p = p @ t
    sigma = np.argmax(p, axis=0)
    q, r = np.linalg.qr(split.basis @ p)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    q, r = q * signs, signs[:, None] * r
    if np.linalg.det(q) < 0:
        q[:, -1], r[-1, :] = -q[:, -1], -r[-1, :]
    mask = lower_mask(blocks)
    hw = split.h[sigma]
    gid = np.asarray(split.group_ids)[sigma]
    rinv = scipy.linalg.solve_triangular(r, np.eye(d))
    buckets: dict[str, list] = {"stable": [], "center": [], "unstable": []}
    for j in range(d):
        for i in range(d):
            if mask[i, j]:
                e = np.zeros((d, d))
                e[i, j] = 1.0
                lam = float(hw[i] - hw[j])
                key = "center" if gid[i] == gid[j] else "unstable" if lam > 0 else "stable"
                buckets[key].append((lam, (r @ e @ rinv) * mask))
    out = []
    for items in buckets.values():
        vecs = []
        if items:
            qf, _ = np.linalg.qr(np.column_stack([v[mask] for _, v in items]))
            for col in range(qf.shape[1]):
                m = np.zeros((d, d))
                m[mask] = qf[:, col]
                vecs.append(m)
        out.append((vecs, tuple(sorted(lam for lam, _ in items))))
    return q, tuple(out)


def gram_volume(psi: np.ndarray, frame: np.ndarray, blocks: tuple[int, ...], vecs) -> float:
    """Volume distortion of the flag action of ``psi`` at ``frame`` on the
    span of orthonormal block strictly lower matrices, from the elementwise
    Gram matrix of their transported, masked images.  The QR sign fix is
    left out: it flips the same entries of every image, so no Gram entry
    changes."""
    if not vecs:
        return 1.0
    mask = lower_mask(blocks)
    _, r = np.linalg.qr(psi @ frame)
    rinv = scipy.linalg.solve_triangular(r, np.eye(len(r)))
    images = [(r @ b @ rinv) * mask for b in vecs]
    gram = np.array([[float(np.sum(a * b)) for b in images] for a in images])
    return math.sqrt(max(float(np.linalg.det(gram)), 0.0))
