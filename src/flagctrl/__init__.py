"""Chain control sets of right-invariant systems on generalized flag
manifolds: exact Weyl-coset classification plus SL(d, R) numerics."""

from .flagcalc import (
    ChainControlSetRecord,
    ConsistencyError,
    FlagSpec,
    classification_report,
    enumerate_chain_control_sets,
    flag_dim,
    is_hyperbolic,
    sigma_functional,
    subbundle_dims,
    tangent_roots,
)
from .rootsys import (
    AVector,
    Root,
    RootSystem,
    build_root_system,
    cartan_matrix,
    characteristic_subset,
    evaluate,
    form_value,
    span_subset,
)
from .weyl import WeylElement, WeylGroup, double_cosets, generate, subgroup

__version__ = "0.1.0"

# The numeric side pulls in numpy, and never scipy; it loads on first use of one
# of these names, so the exact side (``analyze``, ``cosets``) never imports it.
_SLDR_NAMES = frozenset("""
    Box ControlSignal ControlSystemSpec FlagPoint IntegratorConfig IwasawaTriple
    Polytope Trajectory a_cocycle cocycle_sample constant_signal control_system
    fixed_flags flag_act integrate iwasawa realize_functional split_part
    standard_flag type_a_system verify_rates
""".split())


def __getattr__(name: str):
    if name in _SLDR_NAMES:
        from . import sldr

        return getattr(sldr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AVector",
    "Box",
    "ChainControlSetRecord",
    "ConsistencyError",
    "ControlSignal",
    "ControlSystemSpec",
    "FlagPoint",
    "FlagSpec",
    "IntegratorConfig",
    "IwasawaTriple",
    "Polytope",
    "Root",
    "RootSystem",
    "Trajectory",
    "WeylElement",
    "WeylGroup",
    "a_cocycle",
    "build_root_system",
    "cartan_matrix",
    "characteristic_subset",
    "classification_report",
    "cocycle_sample",
    "constant_signal",
    "control_system",
    "double_cosets",
    "enumerate_chain_control_sets",
    "evaluate",
    "fixed_flags",
    "flag_act",
    "flag_dim",
    "form_value",
    "generate",
    "integrate",
    "is_hyperbolic",
    "iwasawa",
    "realize_functional",
    "sigma_functional",
    "span_subset",
    "split_part",
    "standard_flag",
    "subbundle_dims",
    "subgroup",
    "tangent_roots",
    "type_a_system",
    "verify_rates",
    "__version__",
]
