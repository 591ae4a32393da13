"""The names the package promises: README examples, ``__all__`` lists and
the lazy numeric re-exports."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import flagctrl
from flagctrl import sldr

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 2  # the exact and the numeric quickstart


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block_runs(index, capsys):
    exec(compile(_python_blocks()[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_package_names_resolve():
    for name in flagctrl.__all__:
        assert getattr(flagctrl, name) is not None, name
    # every name is lazy: a fresh import loads no submodule, and a name loads its own
    # module only, with what that module imports
    code = (
        "import sys, flagctrl\n"
        "print(*sorted(m for m in sys.modules if m.startswith('flagctrl.')))\n"
        "flagctrl.generate\n"
        "print(*sorted(m for m in sys.modules if m.startswith('flagctrl.')))\n"
        "flagctrl.cocycle_sample\n"
        "print(*sorted(m for m in sys.modules if m.startswith('flagctrl.')))\n"
    )
    src = os.path.dirname(os.path.dirname(flagctrl.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "", "flagctrl.rootsys flagctrl.weyl", "flagctrl.flows flagctrl.rootsys flagctrl.weyl"]


def test_flow_names_are_one_object_on_each_module():
    # the flow layer lives in flows; sldr and the package hand out the same objects, and the
    # package resolves each of them from flows, so that no such name loads sldr
    from flagctrl import flows

    for name in flows.__all__:
        assert getattr(sldr, name) is getattr(flows, name), name
        assert name in sldr.__all__, name
        if name in flagctrl.__all__:
            assert flagctrl._HOMES[name] == "flows", name
            assert getattr(flagctrl, name) is getattr(flows, name), name


def test_package_names_are_read_off_their_homes():
    # _HOMES is the package's one name table: __all__ is its sorted keys, and each name is
    # public on its home module
    assert flagctrl.__all__ == [*sorted(flagctrl._HOMES), "__version__"]
    for name, home in flagctrl._HOMES.items():
        assert name in importlib.import_module(f"flagctrl.{home}").__all__, (home, name)


def test_traced_stages_resolve_on_their_modules():
    # the benchmark tracer skips a stage that its module lacks, and that stage's
    # metrics then read 0
    path = os.path.join(os.path.dirname(README), "flagbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name in tracer.STAGES:
        assert callable(getattr(module, name, None)), (module.__name__, name)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(flagctrl.__path__)))
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"flagctrl.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_removed_names_are_gone():
    from flagctrl import cli, flagcalc, rootsys, weyl

    removed = {
        sldr: (
            "permutation_matrix", "projective_derivative_det", "flag_from_basis", "_as_drift",
            "_realize_cell", "_tangent_map", "_flow_tangent_map", "_volume",
            "invariant_realizations", "RealizationSplit",
        ),
        cli: ("_emit_json",),
        flagcalc: ("evaluate_functional", "classification_report", "_record_json"),
        rootsys: (
            "reflect", "pairing_value", "evaluate", "characteristic_subset", "chamber_vector",
            "a_theta_basis", "root_system_json", "root_system_to_text", "json", "positions",
            "subset_mask",
        ),
        weyl: (
            "act", "act_avector", "length", "inverse", "simple_reflection_matrix",
            "_mat_mul", "_mat_vec", "_identity_matrix", "reduce", "root_permutation",
            "coset_table_json",
        ),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(flagctrl, name), name
    assert not hasattr(sldr.RealizedFunctional, "exact")
    # the cocycle keeps iwasawa's conditioning guard; only iwasawa itself can waive it
    assert "cond_max" not in inspect.signature(sldr.a_cocycle).parameters
    assert "cond_max" in inspect.signature(sldr.iwasawa).parameters
    # the checks hold no per-record path beside their batched one
    drift = sldr.Drift(np.diag([1.0, -1.0]))
    for name in ("_cell", "_cell_memo", "_cells", "_cells_memo"):
        assert not hasattr(drift, name), name
    assert not hasattr(flagctrl, "_SLDR_NAMES")  # the lazy names are those of __all__
    for name in ("sorted_roots", "sorted_positive_roots"):  # the index holds them
        assert not hasattr(rootsys.RootSystem, name), name
    assert not hasattr(rootsys.Root, "support")  # a subset of roots is a lane mask
    index = rootsys.build_root_system("A", 2).index
    for name in ("pairing_rows", "weighted", "neg"):  # replaced by the lane tables
        assert not hasattr(index, name), name
    for name in ("signs", "span", "_spans"):  # records read the walk's packed word
        assert not hasattr(index, name), name
    for name in ("reflections", "positive_positions", "support"):  # positive roots, lane masks
        assert not hasattr(index, name), name
    assert not hasattr(weyl, "_levels")  # the orbit walk is one reverse search
    for name in ("zero", "__add__", "scale"):
        assert not hasattr(rootsys.AVector, name), name
    assert not hasattr(weyl.WeylGroup, "simple_reflections")
    assert not hasattr(weyl.WeylElement, "matrix")
    with pytest.raises(ModuleNotFoundError):  # verify's checks live in sldr
        importlib.import_module("flagctrl.checks")


def test_value_classes_keep_their_contract(w_b2):
    from flagctrl.flagcalc import FlagSpec, enumerate_chain_control_sets
    from flagctrl.rootsys import Root
    from flagctrl.weyl import WeylElement

    # Root: ordered by coordinates, nonzero, negated coordinate by coordinate
    roots = [Root((1, 0)), Root((-1, -1)), Root((0, 1)), Root((-1, 0)), Root((1, 1))]
    assert [r.coords for r in sorted(roots)] == [(-1, -1), (-1, 0), (0, 1), (1, 0), (1, 1)]
    assert Root((0, 1)) < Root((1, 0)) <= Root((1, 0)) < Root((1, 1))
    for coords in ((0, 0), ()):
        with pytest.raises(ValueError, match="nonzero"):
            Root(coords)
    assert -Root((1, -2)) == Root((-1, 2)) and (-Root((1, -2))).coords == (-1, 2)
    assert Root((2, 1)) == Root((2, 1)) and hash(Root((2, 1))) == hash(Root((2, 1)))
    # FlagSpec: any iterables, held as frozensets, equal and hashed by value
    spec = FlagSpec(theta=[1, 0, 1], flag_type=(2,))
    assert type(spec.theta) is frozenset and type(spec.flag_type) is frozenset
    assert spec.theta == {0, 1} and spec.flag_type == {2}
    same = FlagSpec({0, 1}, frozenset({2}))
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != FlagSpec(theta={0}, flag_type={2})
    # WeylElement: named by w(rho), whatever word spells it
    rs = w_b2.system
    s1 = WeylElement((1,), rs)
    for word in ((0, 1, 1, 0, 1), (1, 0, 0), (0, 0, 1, 1, 1)):
        w = WeylElement(word, rs)
        assert w == s1 and hash(w) == hash(s1) and not (w != s1)
    assert WeylElement((0, 0), rs) == w_b2.identity and WeylElement((0,), rs) != s1
    assert len({WeylElement((0, 1, 0, 1), rs), WeylElement((1, 0, 1, 0), rs)}) == 1
    # no field can be reassigned
    record = enumerate_chain_control_sets(w_b2, FlagSpec((), ()))[0]
    for value, name in ((Root((1, 0)), "coords"), (spec, "theta"), (spec, "flag_type"),
                        (s1, "reduced_word"), (s1, "system"), (record, "hyperbolic"),
                        (record, "rep"), (rs, "rank"), (w_b2, "order")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


def test_value_classes_pickle_and_deepcopy(w_b2):
    import copy
    import pickle

    from flagctrl.flagcalc import FlagSpec, enumerate_chain_control_sets, tangent_roots
    from flagctrl.rootsys import AVector, Root, build_root_system
    from flagctrl.weyl import WeylElement, double_cosets, generate

    def round_trips(value):
        return pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)

    def system_fields(rs):
        index = rs.index
        tables = (index.roots, index.mult, index.lane, index.columns,
                  index.bias, index.table)
        return (rs.family, rs.rank, rs.cartan, rs.simple_roots, rs.roots, rs.positive_roots,
                dict(rs.mult), tables)

    # values compared by value come back equal
    rs = w_b2.system
    spec = FlagSpec(theta={0}, flag_type={1})
    records = enumerate_chain_control_sets(w_b2, FlagSpec((), (0,)))
    values = (Root((1, -1)), AVector.from_root(Root((1, 2))), WeylElement((0, 1), rs), spec,
              double_cosets(w_b2, (0,), ())[1], tangent_roots(rs, spec, w_b2.longest), records)
    for value in values:
        for copied in round_trips(value):
            assert copied == value and type(copied) is type(value)
    # systems, their indices and groups compare by identity: their fields
    # come back, with the lane tables, and so do the records they give
    plain = build_root_system("B", 2)
    # multiplicity 1 on the long roots, which have an even second coordinate
    mixed = build_root_system("B", 2, mult=lambda r: 1 if r.coords[1] % 2 == 0 else 2)
    for system in (plain, mixed, build_root_system("E", 8)):
        for copied in round_trips(system):
            assert copied is not system and system_fields(copied) == system_fields(system)
        for copied in round_trips(system.index):
            assert system_fields(system)[-1] == (
                copied.roots, copied.mult, copied.lane, copied.columns,
                copied.bias, copied.table)
    group = generate(mixed)
    for copied in round_trips(group):
        assert copied.order == group.order
        assert system_fields(copied.system) == system_fields(mixed)
        assert enumerate_chain_control_sets(copied, spec) == enumerate_chain_control_sets(
            group, spec)
