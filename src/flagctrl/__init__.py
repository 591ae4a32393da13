"""Chain control sets of right-invariant systems on generalized flag
manifolds: exact Weyl-coset classification plus SL(d, R) numerics."""

__version__ = "0.1.0"

# Every name loads with its module on first use, so that ``import flagctrl`` loads
# no submodule: the exact side (``analyze``, ``cosets``) never imports numpy, and
# ``simulate`` compiles neither the exact modules nor ``sldr``.
_HOMES = {
    name: module
    for module, names in (
        ("flagcalc", "ChainControlSetRecord ConsistencyError FlagSpec"
         " enumerate_chain_control_sets flag_dim is_hyperbolic sigma_functional"
         " subbundle_dims tangent_roots"),
        ("flows", "Box ControlSignal ControlSystemSpec FlagPoint IntegratorConfig Polytope"
         " Trajectory cocycle_sample cocycle_to_csv constant_signal control_system"
         " flag_type_diagnostic integrate load_system random_signal standard_flag"),
        ("rootsys", "AVector Root RootSystem build_root_system cartan_matrix form_value"
         " span_subset"),
        ("sldr", "IwasawaTriple a_cocycle fixed_flags flag_act iwasawa realize_functional"
         " split_part type_a_system verify_rates"),
        ("weyl", "WeylElement WeylGroup double_cosets generate subgroup"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name in _HOMES:
        # the import statement's path, which -X importtime lists under its importer
        return getattr(__import__(f"{__name__}.{_HOMES[name]}", fromlist=[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [*sorted(_HOMES), "__version__"]
