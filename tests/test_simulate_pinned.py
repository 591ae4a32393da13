"""simulate's output, pinned: the stdout sha256 of ``simulate --T 50`` on the benchmark's
simulate systems, with the systems and control seeds that ``make_inputs(101)`` draws.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from flagctrl.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "flagbench")

# system: (exit code, stdout lines, sha256 of stdout), recorded before the tangent split
# moved to orbit points
EXPECTED = {
    "simulate-d5": (0, 5002, "86a283be1537a60d90b3e0c742e9cd7ec7f504cf33276a78ed5088051c695c14"),
    "simulate-d6": (0, 5002, "5ad3f009301a6a6243cbb9816e3e10e8966ac239709384f046f1352f6e5606d2"),
}


def inputs():
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_inputs(101)


@pytest.mark.parametrize("system", sorted(EXPECTED))
def test_simulate_stdout_is_pinned(tmp_path, capsys, system):
    systems, seeds = inputs()
    path = tmp_path / f"{system}.json"
    path.write_text(json.dumps(systems[system]))
    rc = main(["simulate", "--spec", str(path), "--T", "50", "--seed", str(seeds[system])])
    out = capsys.readouterr().out
    assert (rc, len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()) == EXPECTED[system]
