"""The names the package promises: README examples, ``__all__`` lists and
the lazy numeric re-exports."""

import importlib
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
    # the names that a fresh import leaves unbound are the lazy ones, all from sldr
    code = "import flagctrl; print(*(n for n in flagctrl.__all__ if n not in vars(flagctrl)))"
    src = os.path.dirname(os.path.dirname(flagctrl.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    lazy = set(proc.stdout.split())
    assert proc.returncode == 0 and lazy and lazy <= set(sldr.__all__), proc.stderr


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(flagctrl.__path__)))
def test_module_all_entries_exist(module):
    mod = importlib.import_module(f"flagctrl.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_removed_names_are_gone():
    from flagctrl import flagcalc, rootsys, weyl

    removed = {
        sldr: (
            "permutation_matrix", "projective_derivative_det", "flag_from_basis", "_as_drift",
            "_realize_cell", "_tangent_map", "_flow_tangent_map", "_volume",
            "invariant_realizations", "RealizationSplit",
        ),
        flagcalc: ("evaluate_functional",),
        rootsys: (
            "reflect", "pairing_value", "evaluate", "characteristic_subset", "chamber_vector",
            "a_theta_basis", "root_system_json", "root_system_to_text", "json", "positions",
        ),
        weyl: (
            "act", "act_avector", "length", "inverse", "simple_reflection_matrix",
            "_mat_mul", "_mat_vec", "_identity_matrix", "reduce", "root_permutation",
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
    assert not hasattr(rootsys.RootSystem, "sorted_roots")
    for name in ("zero", "__add__", "scale"):
        assert not hasattr(rootsys.AVector, name), name
    assert not hasattr(weyl.WeylGroup, "simple_reflections")
    assert not hasattr(weyl.WeylElement, "matrix")
    with pytest.raises(ModuleNotFoundError):  # verify's checks live in sldr
        importlib.import_module("flagctrl.checks")
