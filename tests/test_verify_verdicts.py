"""verify's verdicts, pinned: on the benchmark's verify drifts and on edge inputs, the exit
code, the sequence of stdout lines and the stderr lines, with every number after a line's
label masked.  Residual and exponent digits stay out of the pin, so a change of numerical
route may move them; a PASS that turns FAIL, a new skip, a lost record or a new error may not.
"""

import hashlib
import importlib.util
import json
import os
import re

import numpy as np
import pytest

from flagctrl.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "flagbench")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\bnan\b|\binf\b")
PAIR = [[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -2.0]]

# case: (system, extra verify arguments)
CASES = {
    "d5-distinct-T10": ("verify-d5-distinct", ("--T", "10")),
    "d5-repeated-T10": ("verify-d5-repeated", ("--T", "10")),
    "d3-T10": ("verify-d3", ("--T", "10")),
    "d5-distinct-T1.2": ("verify-d5-distinct", ("--T", "1.2")),
    "d5-repeated-T1.2": ("verify-d5-repeated", ("--T", "1.2")),
    "d3-T1.2": ("verify-d3", ("--T", "1.2")),
    "d3-T0.5": ("verify-d3", ("--T", "0.5")),
    "d5-distinct-theta-0,2": ("verify-d5-distinct", ("--T", "10", "--theta", "0,2")),
    "d5-repeated-theta-0,2": ("verify-d5-repeated", ("--T", "10", "--theta", "0,2")),
    "zero": ("zero", ()),
    "pair": ("pair", ("--T", "3")),
    "pair-theta-0": ("pair", ("--T", "3", "--theta", "0")),
}

# case: (exit code, stdout lines, sha256 of the masked stdout, masked stderr), recorded before
# the determinant identity moved to log volumes of the short-time maps
EXPECTED = {
    "d5-distinct-T10": (0, 601, "341b388079ddf95fac4521ee3bd03d8ef030bbb4e5f38c422979358468e5bd4d", ""),
    "d5-repeated-T10": (0, 121, "bde254041eb2bb6086da7bede0d7dc9d2a0cc67a96e9596928469532820319e3", ""),
    "d3-T10": (0, 31, "3c362ed305321982420b98762bce4992cf7e2f86004209b8aa4f90542a4923ff", ""),
    "d5-distinct-T1.2": (0, 481, "790b1b9415f3070cc10402c7e1d0588fd131bc5991ddf75cab315dc43c018a99", ""),
    "d5-repeated-T1.2": (0, 121, "bde254041eb2bb6086da7bede0d7dc9d2a0cc67a96e9596928469532820319e3", ""),
    "d3-T1.2": (0, 25, "c9da7b6e1d437c51c4f6083f71a4efc48a439d7df2ce8feaae979cde28e09eaa", ""),
    "d3-T0.5": (2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: need a horizon of at least #"),
    "d5-distinct-theta-0,2": (0, 151, "7f5073c2475a89f1773862875d728897de2ee5db09d00b36e203e28088c88d6d", ""),
    "d5-repeated-theta-0,2": (0, 47, "e473a667a718bdd82c34f28f5eb598f47eb6c8b78acaab6ae7869130e344cca5", ""),
    "zero": (
        2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: flow type [#, #] covers every simple root: no positive root lies outside it, "
        "so there is no rate to measure",
    ),
    "pair": (0, 4, "561ae97ad330749d3c9994d7c4ebac90fa578b92cf0591e719904f24456ab9c8", ""),
    "pair-theta-0": (0, 7, "848807365701c19c3323bba08619ef002b3fdbe289bcc071f2a0d3d682478363", ""),
}


def masked(text):
    """Each line with every number after its label (the text before the first ': ') as #."""
    out = []
    for line in text.splitlines():
        label, sep, rest = line.partition(": ")
        out.append(label + sep + NUMBER.sub("#", rest))
    return "\n".join(out)


def systems():
    """The benchmark's verify systems at seed 101, and the edge drifts, as system documents."""
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = workloads.make_inputs(101)[0]
    for name, drift in (("zero", np.zeros((3, 3))), ("pair", PAIR)):
        empty = {"type": "box", "bounds": []}
        docs[name] = {"dim": 3, "drift": np.asarray(drift).tolist(), "controls": [], "control_range": empty}
    return docs


def verdicts(tmp_path, capsys, case):
    system, extra = CASES[case]
    path = tmp_path / f"{system}.json"
    path.write_text(json.dumps(systems()[system]))
    rc = main(["verify", "--spec", str(path), *extra])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(masked(out).encode()).hexdigest()
    return rc, len(out.splitlines()), digest, masked(err)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_verdicts_are_pinned(tmp_path, capsys, case):
    assert verdicts(tmp_path, capsys, case) == EXPECTED[case]
