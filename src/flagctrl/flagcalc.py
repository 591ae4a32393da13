"""Classification of chain control sets on a generalized flag manifold.

A flag manifold is selected by a subset ``theta`` of the simple roots; the
control flow contributes a second subset ``flag_type``, the simple roots
annihilated by the split part of the generator.  Chain control sets are in
bijection with the double cosets of the two parabolic subgroups, and for
each coset this module computes, exactly:

* the partition of the tangent roots at the canonical representative into
  stable, center and unstable classes,
* the dimension triple of the induced subbundle splitting,
* the hyperbolicity predicate, established through two independent
  criteria that are cross-checked on every call,
* the pair of growth functionals whose exponentials give the unstable and
  stable Jacobian determinants of the flow.

All four come from one tangent split per representative w, read off the
sign of (beta, mu) for each positive root beta at the orbit point mu =
w(lambda_theta) (``_split``).  The split runs on the lane-packed tables of
``rootsys.RootIndex``: the packed pairing word of mu holds every pairing,
two masks their signs, and one product per class its dimension and, on a
hyperbolic coset, its coordinate sum, so no step walks the roots.  Records
are split as the orbit walk of ``weyl`` hands over each coset with mu and
its packed word; the public functions below walk w's word for mu and pack
it.

Everything here is integer and rational arithmetic on top of rootsys and
weyl; the numerical counterpart lives in sldr.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul, neg
from typing import Iterable, Iterator, NamedTuple

from . import weyl
from .rootsys import Root, RootIndex, RootSystem, _check_subset
from .weyl import DoubleCoset, Weight, WeylElement, WeylGroup

__all__ = [
    "FlagSpec",
    "TangentSplit",
    "ChainControlSetRecord",
    "ConsistencyError",
    "flag_dim",
    "tangent_roots",
    "subbundle_dims",
    "is_hyperbolic",
    "sigma_functional",
    "enumerate_chain_control_sets",
    "representative_invariance_check",
    "classification_report",
]


class ConsistencyError(RuntimeError):
    """Two independent criteria that must agree disagreed; report, never mask."""


class FlagSpec(namedtuple("FlagSpec", "theta flag_type")):
    """Problem statement: flag manifold subset and flow type subset, each
    held as a frozenset of simple-root indices."""

    __slots__ = ()

    def __new__(cls, theta: Iterable[int], flag_type: Iterable[int]) -> FlagSpec:
        return super().__new__(cls, frozenset(theta), frozenset(flag_type))

    def validate(self, rs: RootSystem) -> None:
        _check_subset(rs, self.theta, "theta")
        _check_subset(rs, self.flag_type, "flag_type")


class TangentSplit(NamedTuple):
    """Tangent roots at a coset representative, split by growth class."""

    stable: frozenset[Root]
    center: frozenset[Root]
    unstable: frozenset[Root]


class _Split(NamedTuple):
    # the tangent split at the orbit point mu = w(lambda_theta), each class
    # as the ``RootIndex.sums`` of the positive roots beta whose image +-beta
    # it holds, (dimension, coordinate sum of the beta), where the stable
    # class holds the -beta; (dimension,) alone off a hyperbolic coset
    stable: tuple[int, ...]
    center: tuple[int, ...]
    unstable: tuple[int, ...]
    point: Weight


def flag_dim(rs: RootSystem, theta: Iterable[int]) -> int:
    """Dimension of the flag manifold: multiplicities of the positive roots
    outside the span of theta."""
    theta, index = frozenset(theta), rs.index
    _check_subset(rs, theta)
    return index.size(index.bias & ~index.lanes(theta))


def _point(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> tuple[Weight, int]:
    """mu = w(lambda_theta), walked along the word of ``w``, for a validated
    ``spec``, and its packed pairing word."""
    spec.validate(rs)
    mu = w.weight_image(tuple(int(j not in spec.theta) for j in range(rs.rank)))
    return mu, sum(map(mul, mu, rs.index.columns), rs.index.bias)


def _signs(index: RootIndex, packed: int) -> tuple[int, int]:
    # the lane masks of the negative pairings, whose top bit is clear, and of
    # the positive ones, whose top bit survives taking one off
    return index.bias & ~packed, index.bias & packed - index._layout[1]


def _split(rs: RootSystem, spec: FlagSpec, mu: Weight, packed: int) -> _Split:
    """The one tangent split at the orbit point ``mu`` = w(lambda_theta),
    read off its packed pairing word (see ``rootsys.RootIndex``).

    w sends the negative roots outside the span of theta onto the roots
    beta with (beta, mu) < 0, and that span onto those with (beta, mu) = 0.
    Images in the flow-type span are center; the rest are unstable if
    positive, stable if negative: a positive root beta with (beta, mu) < 0
    is an image itself, one with (beta, mu) > 0 through -beta.
    """
    index, inner = rs.index, rs.index.lanes(spec.flag_type)
    below, above = _signs(index, packed)
    stable, center, unstable = above & ~inner, (below | above) & inner, below & ~inner
    if center:
        # no growth functionals off a hyperbolic coset: dimensions only
        return _Split((index.size(stable),), (index.size(center),), (index.size(unstable),), mu)
    return _Split(index.sums(stable), (0,), index.sums(unstable), mu)


def _dims(spec: FlagSpec, split: _Split, total: int) -> tuple[int, int, int]:
    s, c, u = split.stable[0], split.center[0], split.unstable[0]
    if s + c + u != total:
        raise ConsistencyError(
            f"dimension split {s}+{c}+{u} misses flag_dim for theta={sorted(spec.theta)}"
        )
    return s, c, u


def _hyperbolic(spec: FlagSpec, w: WeylElement, split: _Split) -> bool:
    # the flow-type span lies in w(span theta) iff mu_i = 0 on the flow type
    by_center = not split.center[0]
    by_inclusion = not any(split.point[i] for i in spec.flag_type)
    if by_center != by_inclusion:
        raise ConsistencyError(
            "hyperbolicity criteria disagree: "
            f"center-class test gives {by_center}, span-inclusion test gives {by_inclusion} "
            f"(theta={sorted(spec.theta)}, flag_type={sorted(spec.flag_type)}, "
            f"w={w.reduced_word}, center dimension {split.center[0]})"
        )
    return by_center


def _sigma(rs: RootSystem, spec: FlagSpec, split: _Split, sign: int) -> tuple[int, ...]:
    # (sigma, a_i) = d_i (cartan[i], sigma)
    coords = split.unstable[1:] if sign > 0 else tuple(map(neg, split.stable[1:]))
    for i in sorted(spec.flag_type):
        if split.point[i] == 0 and sum(map(mul, rs.cartan[i], coords)):
            raise ConsistencyError(
                f"functional {coords} fails to annihilate the dual of simple root {i}"
            )
    return coords


def tangent_roots(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> TangentSplit:
    """Partition the image of the negative complement roots under ``w``.

    The three classes partition ``w`` applied to the negative roots outside
    the span of theta; class membership is decided by sign against the span
    of the flow type.
    """
    index = rs.index
    below, above = _signs(index, _point(rs, spec, w)[1])
    inner, members = index.lanes(spec.flag_type), index.members
    return TangentSplit(
        stable=frozenset(map(neg, members(above & ~inner))),
        center=members(below & inner) | frozenset(map(neg, members(above & inner))),
        unstable=members(below & ~inner),
    )


def subbundle_dims(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> tuple[int, int, int]:
    """Stable, center, unstable dimensions; they always sum to flag_dim."""
    return _dims(spec, _split(rs, spec, *_point(rs, spec, w)), flag_dim(rs, spec.theta))


def is_hyperbolic(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> bool:
    """Whether the coset of ``w`` carries a trivial center subbundle.

    Computed twice, through the center class of the tangent partition and
    through the inclusion of the flow-type span in the image of the theta
    span; a disagreement is an internal error and raises, never returns.
    """
    return _hyperbolic(spec, w, _split(rs, spec, *_point(rs, spec, w)))


def sigma_functional(
    rs: RootSystem, spec: FlagSpec, w: WeylElement, sign: int
) -> tuple[int, ...]:
    """Growth functional of the unstable (+1) or stable (-1) subbundle.

    Only defined on hyperbolic cosets, where it does not depend on the
    choice of representative.  Returned in simple-root coordinates; it is
    guaranteed to annihilate the dual vectors of the flow-type roots that
    land in the image of the theta span, and that guarantee is checked
    exactly on the spanning set before returning.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    split = _split(rs, spec, *_point(rs, spec, w))
    if not _hyperbolic(spec, w, split):
        raise ValueError(
            "growth functionals are representative-dependent on non-hyperbolic "
            f"cosets; refused for w={w.reduced_word}, theta={sorted(spec.theta)}, "
            f"flag_type={sorted(spec.flag_type)}"
        )
    return _sigma(rs, spec, split, sign)


class ChainControlSetRecord(NamedTuple):
    """One chain control set: coset, dimensions, hyperbolicity, functionals."""

    coset: DoubleCoset
    rep: WeylElement
    dim_flag: int
    dim_stable: int
    dim_center: int
    dim_unstable: int
    hyperbolic: bool
    sigma_plus: tuple[int, ...] | None
    sigma_minus: tuple[int, ...] | None
    is_attractor: bool
    is_repeller: bool


def _records(group: WeylGroup, spec: FlagSpec) -> Iterator[ChainControlSetRecord]:
    """The records of ``enumerate_chain_control_sets``, each split as the orbit
    walk hands over its coset; only the attractors and repellers seen are kept,
    for the checks after the last record."""
    rs = group.system
    spec.validate(rs)
    total_dim = flag_dim(rs, spec.theta)
    attractors, repellers = [], []
    for coset, packed in weyl._cosets(group, spec.flag_type, spec.theta):
        w = coset.rep
        split = _split(rs, spec, coset.point, packed)
        s, c, u = _dims(spec, split, total_dim)
        hyperbolic = _hyperbolic(spec, w, split)
        if u == 0:
            attractors.append(w)
        if s == 0:
            repellers.append(w)
        yield ChainControlSetRecord(
            coset=coset,
            rep=w,
            dim_flag=total_dim,
            dim_stable=s,
            dim_center=c,
            dim_unstable=u,
            hyperbolic=hyperbolic,
            sigma_plus=_sigma(rs, spec, split, +1) if hyperbolic else None,
            sigma_minus=_sigma(rs, spec, split, -1) if hyperbolic else None,
            is_attractor=u == 0,
            is_repeller=s == 0,
        )
    if len(attractors) != 1 or len(repellers) != 1:
        raise ConsistencyError(
            f"expected a unique attractor and repeller, found {len(attractors)} and "
            f"{len(repellers)}"
        )
    # independent characterization: the attractor coset holds the identity,
    # the repeller coset the longest element, found here by its own route
    repeller = weyl.longest_coset_rep(group, spec.flag_type, spec.theta)
    if not attractors[0].is_identity or repellers[0].reduced_word != repeller.reduced_word:
        raise ConsistencyError(
            f"attractor {attractors[0].reduced_word} and repeller "
            f"{repellers[0].reduced_word} are not the cosets of the identity "
            f"and of the longest element {repeller.reduced_word}"
        )


def enumerate_chain_control_sets(
    group: WeylGroup, spec: FlagSpec
) -> tuple[ChainControlSetRecord, ...]:
    """All chain control sets for the given flag manifold and flow type.

    One record per double coset, in canonical representative order.
    Exactly one record is the attractor (no unstable directions) and
    exactly one the repeller (no stable directions).
    """
    return tuple(_records(group, spec))


def representative_invariance_check(
    group: WeylGroup,
    spec: FlagSpec,
    w: WeylElement,
    w1: WeylElement,
    w2: WeylElement,
) -> bool:
    """Confirm the classification does not depend on the coset representative.

    ``w1`` must lie in the flow-type parabolic subgroup and ``w2`` in the
    theta parabolic subgroup.  Hyperbolicity must match between ``w`` and
    ``w1*w*w2``, and on hyperbolic cosets the two growth functionals must
    agree as functionals: since the symmetrized pairing is nondegenerate,
    as coordinate tuples.
    """
    rs = group.system
    # Tits: an element lies in W_S when its reduced word uses only S
    if not spec.flag_type.issuperset(weyl._canonical(rs, w1.reduced_word).reduced_word):
        raise ValueError(f"w1={w1.reduced_word} is not in the flow-type subgroup")
    if not spec.theta.issuperset(weyl._canonical(rs, w2.reduced_word).reduced_word):
        raise ValueError(f"w2={w2.reduced_word} is not in the theta subgroup")
    other = weyl.compose(group, weyl.compose(group, w1, w), w2)
    split_w, split_o = (_split(rs, spec, *_point(rs, spec, v)) for v in (w, other))
    hyp = _hyperbolic(spec, w, split_w)
    if hyp != _hyperbolic(spec, other, split_o):
        return False
    return not hyp or all(
        _sigma(rs, spec, split_w, sign) == _sigma(rs, spec, split_o, sign) for sign in (1, -1)
    )


def _record_json(record: ChainControlSetRecord) -> dict:
    return {
        "coset_rep_word": list(record.rep.reduced_word),
        "s": record.dim_stable,
        "c": record.dim_center,
        "u": record.dim_unstable,
        "hyperbolic": record.hyperbolic,
        "sigma_plus": list(record.sigma_plus) if record.sigma_plus is not None else None,
        "sigma_minus": list(record.sigma_minus) if record.sigma_minus is not None else None,
        "attractor": record.is_attractor,
        "repeller": record.is_repeller,
    }


def classification_report(group: WeylGroup, spec: FlagSpec) -> dict:
    """JSON-ready classification document for one flag manifold and flow type."""
    records = enumerate_chain_control_sets(group, spec)
    return {
        "lie_type": group.system.lie_type,
        "theta": sorted(spec.theta),
        "flag_type": sorted(spec.flag_type),
        "records": [_record_json(r) for r in records],
    }
