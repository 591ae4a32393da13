"""Chain control sets of right-invariant systems on generalized flag
manifolds: exact Weyl-coset classification plus SL(d, R) numerics."""

__version__ = "0.1.0"

# Every name loads with its module on first use, so that ``import flagctrl`` loads
# no submodule: the exact side (``analyze``, ``cosets``) never imports numpy, and
# ``simulate`` compiles neither the exact modules nor ``sldr``.  Names of no module
# below are sldr's.
_HOMES = {
    name: module
    for module, names in (
        ("flagcalc", "ChainControlSetRecord ConsistencyError FlagSpec classification_report"
         " enumerate_chain_control_sets flag_dim is_hyperbolic sigma_functional"
         " subbundle_dims tangent_roots"),
        ("flows", "Box ControlSignal ControlSystemSpec FlagPoint IntegratorConfig Polytope"
         " Trajectory cocycle_sample cocycle_to_csv constant_signal control_system"
         " flag_type_diagnostic integrate load_system random_signal standard_flag"),
        ("rootsys", "AVector Root RootSystem build_root_system cartan_matrix form_value"
         " span_subset"),
        ("weyl", "WeylElement WeylGroup double_cosets generate subgroup"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name in __all__:
        home = _HOMES.get(name, "sldr")
        # the import statement's path, which -X importtime lists under its importer
        return getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
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
    "classification_report",
    "cocycle_sample",
    "cocycle_to_csv",
    "constant_signal",
    "control_system",
    "double_cosets",
    "enumerate_chain_control_sets",
    "fixed_flags",
    "flag_act",
    "flag_dim",
    "flag_type_diagnostic",
    "form_value",
    "generate",
    "integrate",
    "is_hyperbolic",
    "iwasawa",
    "load_system",
    "random_signal",
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
