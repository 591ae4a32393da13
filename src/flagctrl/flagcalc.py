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

All four come from one tangent split per representative, taken from one
permutation of the root positions (``weyl.root_permutation``); the public
functions below are thin calls into that same split.

Everything here is integer and rational arithmetic on top of rootsys and
weyl; the numerical counterpart lives in sldr.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import weyl
from .rootsys import AVector, Root, RootSystem, form_value, positions, subset_mask
from .weyl import DoubleCoset, WeylElement, WeylGroup

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
    "evaluate_functional",
    "enumerate_chain_control_sets",
    "representative_invariance_check",
    "classification_report",
]


class ConsistencyError(RuntimeError):
    """Two independent criteria that must agree disagreed; report, never mask."""


@dataclass(frozen=True)
class FlagSpec:
    """Problem statement: flag manifold subset and flow type subset."""

    theta: frozenset[int]
    flag_type: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", frozenset(self.theta))
        object.__setattr__(self, "flag_type", frozenset(self.flag_type))

    def validate(self, rs: RootSystem) -> None:
        for name, subset in (("theta", self.theta), ("flag_type", self.flag_type)):
            bad = [i for i in subset if not (0 <= i < rs.rank)]
            if bad:
                raise ValueError(
                    f"{name} indices {sorted(bad)} out of range for rank {rs.rank}"
                )


class TangentSplit(NamedTuple):
    """Tangent roots at a coset representative, split by growth class."""

    stable: frozenset[Root]
    center: frozenset[Root]
    unstable: frozenset[Root]


class _Split(NamedTuple):
    # the tangent split as bitmasks over root positions of ``rs.index``,
    # with ``w`` applied to the span of theta
    stable: int
    center: int
    unstable: int
    theta_image: int


def flag_dim(rs: RootSystem, theta: Iterable[int]) -> int:
    """Dimension of the flag manifold: multiplicities over the complement."""
    index = rs.index
    inner = index.span(subset_mask(rs, theta))
    return sum(index.mult[k] for k in index.positive_positions if not inner >> k & 1)


def _split(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> _Split:
    """The one tangent split of ``w``, from one permutation of the roots."""
    spec.validate(rs)
    index = rs.index
    perm = weyl.root_permutation(rs, w)
    inner_theta = index.span(subset_mask(rs, spec.theta))
    inner_type = index.span(subset_mask(rs, spec.flag_type))
    stable = center = unstable = theta_image = 0
    for k in index.positive_positions:
        image = perm[index.neg[k]]
        bit = 1 << image
        if inner_theta >> k & 1:
            theta_image |= bit | 1 << perm[k]
        elif inner_type & bit:
            center |= bit
        elif index.sign[image] > 0:
            unstable |= bit
        else:
            stable |= bit
    return _Split(stable, center, unstable, theta_image)


def _dims(rs: RootSystem, spec: FlagSpec, split: _Split, total: int) -> tuple[int, int, int]:
    mult = rs.index.mult
    s, c, u = (sum(mult[k] for k in positions(m)) for m in split[:3])
    if s + c + u != total:
        raise ConsistencyError(
            f"dimension split {s}+{c}+{u} misses flag_dim for theta={sorted(spec.theta)}"
        )
    return s, c, u


def _hyperbolic(rs: RootSystem, spec: FlagSpec, w: WeylElement, split: _Split) -> bool:
    by_center = not split.center
    by_inclusion = not rs.index.span(subset_mask(rs, spec.flag_type)) & ~split.theta_image
    if by_center != by_inclusion:
        center = sorted(r.coords for r in rs.index.members(split.center))
        raise ConsistencyError(
            "hyperbolicity criteria disagree: "
            f"center-class test gives {by_center}, span-inclusion test gives {by_inclusion} "
            f"(theta={sorted(spec.theta)}, flag_type={sorted(spec.flag_type)}, "
            f"w={w.reduced_word}, center={center})"
        )
    return by_center


def _sigma(rs: RootSystem, spec: FlagSpec, split: _Split, sign: int) -> tuple[int, ...]:
    # multiplicity-weighted sum over one tangent class, then the exact
    # annihilation check on the flow-type simple roots in the theta image
    index = rs.index
    total = [0] * rs.rank
    for k in positions(split.unstable if sign > 0 else split.stable):
        m = index.mult[k]
        for j, c in enumerate(index.roots[k].coords):
            total[j] += m * c
    coords = tuple(total)
    for i in sorted(spec.flag_type):
        alpha = rs.simple_roots[i]
        in_image = split.theta_image >> index.position[alpha.coords] & 1
        if in_image and form_value(rs, coords, alpha.coords) != 0:
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
    split = _split(rs, spec, w)
    return TangentSplit(*(rs.index.members(m) for m in split[:3]))


def subbundle_dims(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> tuple[int, int, int]:
    """Stable, center, unstable dimensions; they always sum to flag_dim."""
    return _dims(rs, spec, _split(rs, spec, w), flag_dim(rs, spec.theta))


def is_hyperbolic(rs: RootSystem, spec: FlagSpec, w: WeylElement) -> bool:
    """Whether the coset of ``w`` carries a trivial center subbundle.

    Computed twice, through the center class of the tangent partition and
    through the inclusion of the flow-type span in the image of the theta
    span; a disagreement is an internal error and raises, never returns.
    """
    return _hyperbolic(rs, spec, w, _split(rs, spec, w))


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
    split = _split(rs, spec, w)
    if not _hyperbolic(rs, spec, w, split):
        raise ValueError(
            "growth functionals are representative-dependent on non-hyperbolic "
            f"cosets; refused for w={w.reduced_word}, theta={sorted(spec.theta)}, "
            f"flag_type={sorted(spec.flag_type)}"
        )
    return _sigma(rs, spec, split, sign)


def evaluate_functional(
    rs: RootSystem, coords: Sequence[int | Fraction], h: AVector
) -> Fraction:
    """Exact value of a simple-root-coordinate functional on a Cartan vector."""
    return form_value(rs, coords, h.coords)


@dataclass(frozen=True, eq=False)
class ChainControlSetRecord:
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


def enumerate_chain_control_sets(
    group: WeylGroup, spec: FlagSpec
) -> tuple[ChainControlSetRecord, ...]:
    """All chain control sets for the given flag manifold and flow type.

    One record per double coset, in canonical representative order.
    Exactly one record is the attractor (no unstable directions) and
    exactly one the repeller (no stable directions).
    """
    rs = group.system
    spec.validate(rs)
    total_dim = flag_dim(rs, spec.theta)
    records = []
    for coset in weyl.double_cosets(group, spec.flag_type, spec.theta):
        w = coset.rep
        split = _split(rs, spec, w)
        s, c, u = _dims(rs, spec, split, total_dim)
        hyperbolic = _hyperbolic(rs, spec, w, split)
        records.append(
            ChainControlSetRecord(
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
        )
    attractors = [r for r in records if r.is_attractor]
    repellers = [r for r in records if r.is_repeller]
    if len(attractors) != 1 or len(repellers) != 1:
        raise ConsistencyError(
            f"expected a unique attractor and repeller, found {len(attractors)} and "
            f"{len(repellers)}"
        )
    # independent characterization: the attractor coset holds the identity,
    # the repeller coset the longest element, found here by its own route
    repeller = weyl.longest_coset_rep(group, spec.flag_type, spec.theta)
    if not attractors[0].rep.is_identity or repellers[0].rep.reduced_word != repeller.reduced_word:
        raise ConsistencyError(
            f"attractor {attractors[0].rep.reduced_word} and repeller "
            f"{repellers[0].rep.reduced_word} are not the cosets of the identity "
            f"and of the longest element {repeller.reduced_word}"
        )
    return tuple(records)


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
    agree as functionals, which is checked by exact evaluation on the full
    dual basis of the Cartan subspace.
    """
    rs = group.system
    # Tits: an element lies in W_S when its reduced word uses only S
    if not spec.flag_type.issuperset(weyl._canonical(rs, w1.reduced_word).reduced_word):
        raise ValueError(f"w1={w1.reduced_word} is not in the flow-type subgroup")
    if not spec.theta.issuperset(weyl._canonical(rs, w2.reduced_word).reduced_word):
        raise ValueError(f"w2={w2.reduced_word} is not in the theta subgroup")
    other = weyl.compose(group, weyl.compose(group, w1, w), w2)
    split_w, split_o = _split(rs, spec, w), _split(rs, spec, other)
    hyp = _hyperbolic(rs, spec, w, split_w)
    if hyp != _hyperbolic(rs, spec, other, split_o):
        return False
    if not hyp:
        return True
    basis = [AVector.from_root(a) for a in rs.simple_roots]
    for sign in (1, -1):
        f_w = _sigma(rs, spec, split_w, sign)
        f_o = _sigma(rs, spec, split_o, sign)
        for h in basis:
            if evaluate_functional(rs, f_w, h) != evaluate_functional(rs, f_o, h):
                return False
    return True


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
