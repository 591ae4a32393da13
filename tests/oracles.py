"""Independent brute-force recomputations used to cross-check the library.

Nothing here calls the classification code under test: the Weyl group is
walked breadth first over integer matrices (``walk``), not read off a
weight orbit, an element's matrix is the product along its word
(``matrix``), cells are classified from raw integer matrix arithmetic on
root coordinates only, the double cosets are also found by the
breadth-first orbit walk that the reverse search replaced
(``bfs_double_cosets``, orders by orbit-stabilizer), the cocycle along a
controlled flow is refactored after every integrator step, the RK4
transitions are built one control value at a time as the stacked build
replaced (``propagate_per_value``, ``integrate_per_value`` and
``cocycle_sample_per_row``, which must agree with it bit for bit), the CSV
is written a row at a time (``csv_per_row``), and tangent
realizations and their volumes are built one elementary d x d matrix at a
time.  The ``loop_*`` functions
are the one-record-at-a-time realization and checks that the stacked ones
replaced, transports through ``np.kron`` included: the stacked checks must
reproduce their every bit.  ``analyze_text``, ``analyze_report``,
``coset_table`` and ``coset_text`` build the exact commands' outputs from
whole tuples, as dicts and lines, which the CLI's templates must match.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import mul
from typing import Iterator

import numpy as np
import scipy.linalg

from flagctrl import flows, linalg, sldr
from flagctrl.rootsys import Root, RootSystem
from flagctrl.weyl import DoubleCoset, WeylElement, WeylGroup

Matrix = tuple[tuple[int, ...], ...]


def mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def symmetrizer(cartan: Matrix) -> tuple[Fraction, ...]:
    """The rational d with d_i c_ij = d_j c_ji and max d = 1, swept over all
    pairs (i, j) until every d_j is found from a neighbour on the Dynkin graph."""
    d: list[Fraction | None] = [Fraction(1)] + [None] * (len(cartan) - 1)
    while None in d:
        for i, j in product(range(len(cartan)), repeat=2):
            if d[i] is not None and d[j] is None and cartan[i][j]:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
    return tuple(x / max(d) for x in d)


def form(cartan: Matrix, a, b) -> Fraction:
    """sum_ij a_i b_j d_i c_ij over the rationals, d from ``symmetrizer``."""
    d = symmetrizer(cartan)
    pairs = product(range(len(cartan)), repeat=2)
    terms = (Fraction(a[i]) * Fraction(b[j]) * d[i] * cartan[i][j] for i, j in pairs)
    return sum(terms, Fraction(0))


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
    m = matrix(w)
    s = c = u = 0
    for r in rs.positive_roots:
        if r.coords in span_t:
            continue
        img = tuple(-x for x in mat_vec(m, r.coords))
        mult = rs.mult[Root(img)]
        if img in span_f:
            c += mult
        elif any(x > 0 for x in img):
            u += mult
        else:
            s += mult
    image_span = {mat_vec(m, v) for v in span_t}
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
    m = matrix(w)
    total = [0] * rs.rank
    for r in rs.positive_roots:
        if r.coords in span_t:
            continue
        img = tuple(-x for x in mat_vec(m, r.coords))
        if img in span_f:
            continue
        positive = any(x > 0 for x in img)
        if (sign > 0) != positive:
            continue
        mult = rs.mult[Root(img)]
        for i, x in enumerate(img):
            total[i] += mult * x
    return tuple(total)


def brute_tangent_roots(
    rs: RootSystem,
    theta: frozenset[int],
    ftype: frozenset[int],
    w: WeylElement,
    spans: Spans | None = None,
) -> tuple[frozenset[Root], frozenset[Root], frozenset[Root]]:
    """(stable, center, unstable): ``matrix(w)`` applied to each negative
    root outside the span of theta, its image center in the flow-type span,
    else unstable if positive and stable if negative."""
    span_t, span_f = spans or brute_spans(rs, theta, ftype)
    m = matrix(w)
    classes = (set(), set(), set())
    for r in rs.positive_roots:
        if r.coords not in span_t:
            img = tuple(-x for x in mat_vec(m, r.coords))
            k = 1 if img in span_f else 2 if any(x > 0 for x in img) else 0
            classes[k].add(Root(img))
    return tuple(map(frozenset, classes))


def loop_split(
    rs: RootSystem, theta: frozenset[int], ftype: frozenset[int], mu: tuple[int, ...]
) -> tuple[tuple[int, int, int], bool, tuple[int, ...], tuple[int, ...]]:
    """((s, c, u), center_empty, sigma+, sigma-) at the orbit point mu =
    w(lambda_theta), one positive root at a time: the sign of the integer
    pairing sum_i c_i (a_i, a_i) mu_i sorts beta, a zero drops it, and the
    image is beta if the pairing is negative, else -beta; center in the
    flow-type span, else unstable if positive and stable if negative.  The
    lengths come from ``symmetrizer``; theta enters only through mu."""
    d = symmetrizer(rs.cartan)
    lengths = [x / min(d) for x in d]
    span_f = {r.coords for r in brute_span(rs, ftype)}
    dims, sigma = [0, 0, 0], ([0] * rs.rank, None, [0] * rs.rank)
    for beta in sorted(rs.positive_roots):
        pairing = sum(c * n * m for c, n, m in zip(beta.coords, lengths, mu))
        if not pairing:
            continue
        img = beta if pairing < 0 else -beta
        k = 1 if beta.coords in span_f else 2 if pairing < 0 else 0
        dims[k] += rs.mult[img]
        if k != 1:
            for i, x in enumerate(img.coords):
                sigma[k][i] += rs.mult[img] * x
    return tuple(dims), dims[1] == 0, tuple(sigma[2]), tuple(sigma[0])


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


def matrix(w: WeylElement) -> Matrix:
    """``w`` on simple-root coordinates: the product of the simple
    reflections along its word."""
    return _word_matrix(w.system, w.reduced_word)


@lru_cache(maxsize=None)
def _word_matrix(rs: RootSystem, word: tuple[int, ...]) -> Matrix:
    gens = reflection_matrices(rs)
    ident = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    return reduce(mat_mul, (gens[i] for i in word), ident)


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
                    index[p] = WeylElement(index[m].reduced_word + (i,), rs)
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


def subgroup_elements(group: WeylGroup, subset: frozenset[int]) -> set[tuple[int, ...]]:
    """Reduced words of W_S, grown from the identity by the simple
    reflections of S."""
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
    return {index[m].reduced_word for m in members}


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
) -> list[frozenset[tuple[int, ...]]]:
    """Every W_I*w*W_J as a set of reduced words, each grown from its first
    element in walk order by multiplying with the simple reflections of I on
    the left and of J on the right until it closes."""
    members_of = [w.reduced_word for w in walk(group.system).values()]
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


def _reflect(cartan: Matrix, mu: tuple[int, ...], i: int) -> tuple[int, ...]:
    c = mu[i]
    return tuple(m - c * row[i] for m, row in zip(mu, cartan))


def _levels(cartan: Matrix, mu: tuple[int, ...], subset) -> Iterator[set[tuple[int, ...]]]:
    # the W_S-orbit of an S-dominant weight by length of the representative:
    # lowering by s_i where mu_i > 0 adds one to it, so no level recurs
    level = {mu}
    while level:
        yield level
        level = {_reflect(cartan, v, i) for v in level for i in subset if v[i] > 0}


@lru_cache(maxsize=None)
def bfs_parabolic_order(cartan: Matrix, subset: frozenset[int]) -> int:
    """|W_S| by orbit-stabilizer: W_S moves the fundamental weight of k =
    max S with stabilizer W_{S minus k}."""
    if not subset:
        return 1
    k = max(subset)
    orbit = _levels(cartan, tuple(int(i == k) for i in range(len(cartan))), sorted(subset))
    return sum(map(len, orbit)) * bfs_parabolic_order(cartan, subset - {k})


def bfs_double_cosets(
    group: WeylGroup, left, right
) -> tuple[DoubleCoset, ...]:
    """The double cosets as the breadth-first orbit walk found them: each
    level of the orbit of lambda_J as a set, each point's lex-least word
    read off the level above through its least negative coordinate, and
    the whole sorted at the end by length, then word."""
    left, right = frozenset(left), frozenset(right)
    rs = group.system
    product = bfs_parabolic_order(rs.cartan, left) * bfs_parabolic_order(rs.cartan, right)
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
                cosets.append(DoubleCoset(rep, product // bfs_parabolic_order(rs.cartan, meet), mu))
        above = words
    if sum(c.size for c in cosets) != group.order:
        raise AssertionError("double cosets do not partition the group")
    return tuple(sorted(cosets, key=lambda c: (len(c.rep.reduced_word), c.rep.reduced_word)))


def _q_product(factors: Counter) -> list[int]:
    # the product of the q-integers [n]_t = 1 + t + ... + t^(n-1), n in ``factors``
    poly = [1]
    for n, times in factors.items():
        for _ in range(times):
            out = [0] * (len(poly) + n - 1)
            for i, c in enumerate(poly):
                for j in range(i, i + n):
                    out[j] += c
            poly = out
    return poly


def poincare_quotient(rs: RootSystem, big, small) -> list[int]:
    """W_big(t) / W_small(t) for ``small`` within ``big``, coefficients from t^0 up:
    Macdonald's product of [ht + 1]_t / [ht]_t over the positive roots of each, the
    heights read off their coordinates, the q-integers cancelled and the rest divided
    exactly."""
    num, den = Counter(), Counter()
    for subset, top, bottom in ((frozenset(big), num, den), (frozenset(small), den, num)):
        for h in (sum(r.coords) for r in rs.positive_roots if subset.issuperset(
                i for i, c in enumerate(r.coords) if c)):
            top[h + 1] += 1
            bottom[h] += 1
    common = num & den
    rest, divisor = _q_product(num - common), _q_product(den - common)
    quotient = [0] * (len(rest) - len(divisor) + 1)
    for k in reversed(range(len(quotient))):
        quotient[k], r = divmod(rest[k + len(divisor) - 1], divisor[-1])
        assert r == 0, "the quotient is not a polynomial"
        for j, c in enumerate(divisor):
            rest[k + j] -= quotient[k] * c
    assert not any(rest), "the quotient is not a polynomial"
    return quotient


def bruhat_cell_sums(rs: RootSystem, left, right, records, cosets) -> tuple[list, list]:
    """Both sides of W(t) / W_J(t) = sum over records of t^s W_I(t) / W_K(t), I = ``left``
    (the flow type), J = ``right`` (theta): the Bruhat cells of F_J (Solomon, J. Algebra 3,
    1966) grouped by double coset W_I d W_J, each w = x d with lengths adding and x a
    minimal representative of W_I / W_K, where K, the i in I with mu_i = 0 at mu =
    d(lambda_J), is I meeting d J d^-1 (Kilmoyer; Carter, Finite Groups of Lie Type, 2.7).
    ``s`` is each record's stable dimension and mu is walked along its word; each coset
    of ``cosets``, in record order, must have |W_I| |W_J| / |W_K| members, the identity at
    t = 1.  Multiplicity 1 only."""
    lhs = poincare_quotient(rs, range(rs.rank), right)
    rhs, cells = [0] * len(lhs), {}
    right_order = sum(poincare_quotient(rs, right, ()))
    for rec, coset in zip(records, cosets, strict=True):
        assert rec.rep.reduced_word == coset.rep.reduced_word
        mu = tuple(int(j not in right) for j in range(rs.rank))
        for i in reversed(rec.rep.reduced_word):
            mu = _reflect(rs.cartan, mu, i)
        meet = frozenset(i for i in left if mu[i] == 0)
        if meet not in cells:
            cells[meet] = poincare_quotient(rs, left, meet)
        cell = cells[meet]
        assert coset.size == sum(cell) * right_order, rec.rep.reduced_word
        rhs += [0] * (rec.dim_stable + len(cell) - len(rhs))
        for e, c in enumerate(cell):
            rhs[rec.dim_stable + e] += c
    return lhs, rhs


def analyze_text(group: WeylGroup, records, spec) -> str:
    """``analyze --format text`` from the whole record tuple: one list of lines, joined
    at the end, against which the lines analyze formats as the walk yields them are
    checked."""
    sets = ["{" + ",".join(str(i) for i in sorted(s)) + "}" for s in (spec.theta, spec.flag_type)]
    out = [f"lie_type {group.system.lie_type}", f"theta {sets[0]}", f"flag_type {sets[1]}",
           f"records {len(records)}"]
    for rec in records:
        word = "(" + ",".join(str(i) for i in rec.rep.reduced_word) + ")"
        tags = [tag for tag, on in (("attractor", rec.is_attractor),
                                    ("repeller", rec.is_repeller)) if on]
        tag = (" [" + ",".join(tags) + "]") if tags else ""
        sig, kind = "", "non-hyperbolic"
        if rec.hyperbolic:
            plus = ",".join(str(v) for v in rec.sigma_plus)
            minus = ",".join(str(v) for v in rec.sigma_minus)
            sig, kind = f"  sigma+ ({plus})  sigma- ({minus})", "hyperbolic"
        out.append(f"rep {word}  s/c/u {rec.dim_stable}/{rec.dim_center}/{rec.dim_unstable}"
                   f"  {kind}{sig}{tag}")
    return "\n".join(out) + "\n"


def analyze_report(group: WeylGroup, records, spec) -> dict:
    """``analyze --format json`` as a dict, which ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` must write byte for byte as analyze does."""
    return {
        "lie_type": group.system.lie_type,
        "theta": sorted(spec.theta),
        "flag_type": sorted(spec.flag_type),
        "records": [
            {
                "coset_rep_word": list(rec.rep.reduced_word),
                "s": rec.dim_stable,
                "c": rec.dim_center,
                "u": rec.dim_unstable,
                "hyperbolic": rec.hyperbolic,
                "sigma_plus": None if rec.sigma_plus is None else list(rec.sigma_plus),
                "sigma_minus": None if rec.sigma_minus is None else list(rec.sigma_minus),
                "attractor": rec.is_attractor,
                "repeller": rec.is_repeller,
            }
            for rec in records
        ],
    }


def coset_table(group: WeylGroup, cosets, left, right) -> dict:
    """``cosets --format json`` as a dict, as ``analyze_report`` is analyze's."""
    return {
        "lie_type": group.system.lie_type,
        "order": group.order,
        "left": sorted(left),
        "right": sorted(right),
        "cosets": [{"rep_word": list(c.rep.reduced_word), "size": c.size} for c in cosets],
    }


def coset_text(group: WeylGroup, cosets, left, right) -> str:
    """``cosets --format text`` from the whole coset tuple, one list of lines."""
    sets = ["{" + ",".join(str(i) for i in sorted(s)) + "}" for s in (left, right)]
    out = [f"lie_type {group.system.lie_type}  order {group.order}",
           f"left {sets[0]}  right {sets[1]}", f"cosets {len(cosets)}"]
    for c in cosets:
        out.append("rep (" + ",".join(str(i) for i in c.rep.reduced_word) + f")  size {c.size}")
    return "\n".join(out) + "\n"


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
    m = matrix(w)
    return frozenset(
        r for r in group.system.positive_roots if not Root(mat_vec(m, r.coords)).is_positive
    )


def stepwise_cocycle(
    spec, signal, T: float, frame: np.ndarray, sample_every: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Times and cocycle values as ``flows.cocycle_sample`` returns them, with
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


def _rk4_step(x: np.ndarray, h: float) -> np.ndarray:
    # one matrix's RK4 transition for a constant generator: the degree-4 Taylor
    # polynomial of exp(h x), nested as the library nests it
    eye = np.eye(x.shape[0])
    a = h * x
    m = eye + a / 4.0
    m = eye + (a / 3.0) @ m
    m = eye + (a / 2.0) @ m
    return eye + a @ m


def propagate_per_value(spec, signal, T: float):
    """Signed step, step count and the runs ``(step, count)`` of identical RK4
    steps over [0, T] as ``flows._propagate`` walked them before its transitions
    were stacked: one generator and one transition per change of control value,
    range-checked there, and None for an identity.  Grid checks left out."""
    dt = spec.integrator.dt
    n = int(round(abs(T) / dt))
    h = dt if T >= 0 else -dt

    def runs():
        eye = np.eye(spec.dim)
        key, step, i = None, None, 0
        while i < n:
            k = math.floor(((i + 0.5) * h - signal.t0) / signal.period) + (h > 0)
            j = min(n, math.ceil((signal.t0 + k * signal.period) / h - 0.5))
            u = signal.value_at((i + 0.5) * h)
            if u.tobytes() != key:
                if not spec.control_range.contains(u):
                    raise ValueError(f"control value {u.tolist()} lies outside the range")
                x = spec.drift.copy()
                for uj, m in zip(u, spec.controls):
                    x += uj * m
                key, step = u.tobytes(), _rk4_step(x, h)
                step = None if np.array_equal(step, eye) else step
            yield step, j - i
            i = j

    return h, n, runs()


def integrate_per_value(spec, signal, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and matrices of ``flows.integrate``, from ``propagate_per_value``: the
    determinant checked and divided out is the product of the determinants of the
    steps since the last renormalization, each taken on its own, not the LU
    determinant of psi."""
    h, n, runs = propagate_per_value(spec, signal, T)
    d = spec.dim
    psi, det = np.eye(d), 1.0
    out = [psi]
    i = 0
    for step, count in runs:
        step_det = None if step is None else float(np.linalg.det(step))
        for _ in range(count):
            if step is not None:
                psi, det = step @ psi, det * step_det
                if (i + 1) % flows._RENORM_CADENCE == 0 or i == n - 1:
                    if det <= 0.0 or abs(det - 1.0) > 1e-6:
                        raise ValueError(
                            f"determinant drift {det - 1.0:.3e} at step {i + 1}; reduce dt"
                        )
                    psi, det = psi * det ** (-1.0 / d), 1.0
            out.append(psi)
            i += 1
    return h * np.arange(n + 1), np.stack(out)


def cocycle_sample_per_row(
    spec, signal, T: float, frame: np.ndarray, sample_every: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Times and cocycle values of ``flows.cocycle_sample`` as it took them before
    the per-row loop: from ``propagate_per_value``, each chunk's power times the
    running product, each row's product times the frame on its own, and the
    refactor offset written row by row."""
    h, n, runs = propagate_per_value(spec, signal, T)
    d = spec.dim
    offset = np.zeros(d)
    times = [0.0]
    values = np.zeros((1 + -(-n // sample_every), d))
    batch, rows = np.empty((flows._QR_BATCH, d, d)), []
    held, prod, bound, i = False, None, 0.0, 0
    for step, count in runs:
        if step is not held:
            e = 0.0 if step is None else float(np.linalg.norm(step - np.eye(d)))
            held, powers, growth = step, {}, math.log1p(2 * e / (1 - e)) if e < 1 else math.inf
        while count:
            if prod is not None and bound + growth > flows._STRIDE_LOG_COND_MAX:
                frame, r = flows._qr_pos(prod @ frame)
                offset = offset + np.log(np.diag(r))
                prod, bound = None, 0.0
            m = min(count, sample_every - i % sample_every)
            if growth:
                m = min(m, max(1, int((flows._STRIDE_LOG_COND_MAX - bound) / growth)))
            if step is not None:
                if m not in powers:
                    powers[m] = np.linalg.matrix_power(step, m)
                prod = powers[m] if prod is None else powers[m] @ prod
                bound += m * growth
            i += m
            count -= m
            if i % sample_every == 0 or i == n:
                values[len(times)] = offset
                if prod is not None:
                    np.matmul(prod, frame, out=batch[len(rows)])
                    rows.append(len(times))
                if rows and (len(rows) == flows._QR_BATCH or i == n):
                    r = np.linalg.qr(batch[: len(rows)], mode="r")
                    values[rows] += np.log(np.abs(np.diagonal(r, axis1=1, axis2=2)))
                    rows.clear()
                times.append(i * h)
    return np.asarray(times), values


def csv_per_row(sample) -> str:
    """``flows.cocycle_to_csv`` as it was written before its blocks: one row at a
    time, each value formatted on its own."""
    lines = ["t," + ",".join(f"a{i + 1}" for i in range(sample.a_values.shape[1]))]
    for t, row in zip(sample.times, sample.a_values):
        lines.append(f"{t:.10g}," + ",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


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


def kron_tangent_map(a: np.ndarray, a_inv: np.ndarray, blocks: tuple[int, ...]) -> np.ndarray:
    """X -> lower(a X a^-1) as row-major vec(a X b) = kron(a, b^T) vec(X),
    restricted to the tangent positions."""
    idx = sldr._lower_index(blocks)
    return np.kron(a, a_inv.T)[np.ix_(idx, idx)]


def loop_cell(drift, blocks: tuple[int, ...], w: WeylElement):
    """One cell's frame and its (stable, center, unstable) pairs of
    coordinate rows and sorted exponents."""
    sp, d = drift.split, drift.dim
    sigma = np.arange(d)
    for i in w.reduced_word:
        sigma[[i, i + 1]] = sigma[[i + 1, i]]
    q, r = sldr._qr_special(sp.basis[:, sigma])
    rows, cols = np.divmod(sldr._lower_index(blocks), d)
    hw, gid = sp.h[sigma], np.asarray(sp.group_ids)[sigma]
    lam, center = hw[rows] - hw[cols], gid[rows] == gid[cols]
    images = kron_tangent_map(r, np.linalg.solve(r, np.eye(d)), blocks)
    masks = (~center & (lam <= 0), center, ~center & (lam > 0))
    return q, [(np.linalg.qr(images[:, sel])[0].T, tuple(sorted(lam[sel].tolist()))) for sel in masks]


def loop_determinant_residuals(drift, blocks: tuple[int, ...], record, t: float) -> tuple[float, float]:
    """Unstable and stable defects |expm1(left - right)| of the determinant
    identity at time ``t``, one record at a time: the left side is t / 0.25
    times log|det| of the short-time map on the subbundle, the right side
    sigma+ (sigma-) of the attractor-frame cocycle accumulated in n equal
    steps of at most 0.5."""
    n = max(1, math.ceil(abs(t) / 0.5))
    frame, acc = drift.frame.rep, np.zeros(drift.dim)
    for _ in range(n):
        trip = sldr.iwasawa(drift.expm(t / n) @ frame, cond_max=None)
        frame, acc = trip.k, acc + trip.a_vec
    frame, bundles = loop_cell(drift, blocks, record.rep)
    step = 0.25
    tangent_map = kron_tangent_map(
        frame.T @ drift.expm(step) @ frame, frame.T @ drift.expm(-step) @ frame, blocks
    )
    out = []
    for sig, (basis, _) in ((record.sigma_plus, bundles[2]), (record.sigma_minus, bundles[0])):
        lhs = t / step * np.linalg.slogdet(basis @ tangent_map @ basis.T)[1]
        out.append(abs(math.expm1(lhs - sldr.realize_functional(sig, drift.dim)(acc))))
    return out[0], out[1]


def loop_rate_exponents(drift, blocks: tuple[int, ...], record, T: float):
    """Measured stable and unstable exponents and the center band, from
    powers of the short-time map at time 0.25 (inputs in double range)."""
    frame, ((stable, _), (center, _), (unstable, _)) = loop_cell(drift, blocks, record.rep)
    step = 0.25
    tangent_map = kron_tangent_map(
        frame.T @ drift.expm(step) @ frame, frame.T @ drift.expm(-step) @ frame, blocks
    )
    n_pow = max(1, int(round(T / step)))

    def measured(basis):
        if not len(basis):
            return ()
        powered = np.linalg.matrix_power(basis @ tangent_map @ basis.T, n_pow)
        return tuple(sorted((np.log(linalg.singular_values(powered)) / (n_pow * step)).tolist()))

    band = None
    if len(center):
        powers = [center @ tangent_map @ center.T]
        for _ in range(n_pow - 1):
            powers.append(powers[0] @ powers[-1])
        logs = np.log(linalg.singular_values(np.stack(powers))) / (step * np.arange(1, n_pow + 1))[:, None]
        band = (float(logs.min()), float(logs.max()))
    return measured(stable), measured(unstable), band
