"""The numeric commands' input contract, as a property of ``cli.main``.

On any system document and any options that argparse accepts, ``verify``
and ``simulate`` return 0, 1 or 2 and raise nothing, warnings included (the
suite turns a ``RuntimeWarning`` into an error); at exit 2 they write one
``error:`` line and no stdout, and at exit 0 every number they print is
finite.  Each example runs under a wall-clock budget, so a run that takes
forever fails instead of hanging the suite.
"""

import json
import re
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from flagctrl.cli import main

_BUDGET = 10.0  # seconds per example; the strategy's runs take well under one


class OverBudget(Exception):
    pass


@contextmanager
def _budget(seconds: float):
    def expire(signum, frame):
        raise OverBudget(f"example ran past its {seconds:g} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _system(d, drift, controls=(), bounds=(), dt=1e-3):
    return {"dim": d, "drift": drift, "controls": list(controls),
            "control_range": {"type": "box", "bounds": list(bounds)},
            "integrator": {"dt": dt}}


def _mostly(usual, edges):
    # a usual value at least half the time, so that many runs go through, else any of them
    return st.one_of(st.sampled_from(usual), st.sampled_from(usual + edges))


@st.composite
def _traceless(draw, d):
    # small integers with a zero diagonal sum, times a scale from tiny to past double range
    entries = draw(st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d))
    rows = [entries[i * d : (i + 1) * d] for i in range(d)]
    if draw(st.booleans()):  # symmetric: real eigenvalues, an orthogonal eigenbasis
        rows = [[rows[max(i, j)][min(i, j)] for j in range(d)] for i in range(d)]
    rows[-1][-1] = -sum(rows[i][i] for i in range(d - 1))
    scale = draw(_mostly([1.0, 0.5, 3.0], [0.0, 400.0, 1e5, 1e-300, 1e150, 1e308]))
    return [[float(scale * x) for x in row] for row in rows]


@st.composite
def _documents(draw):
    d = draw(_mostly([2, 3, 4], [1]))
    k = draw(st.integers(0, 2))
    controls = [draw(_traceless(d)) for _ in range(k)]
    bound = st.tuples(_mostly([-1.0, -0.5], [-1e300, -1e308, 0.0]),
                      _mostly([1.0, 0.5], [1e300, 1e308]))
    bounds = [draw(bound) for _ in range(k)]
    dt = draw(_mostly([1e-2, 1e-3, 0.05], [1.0, 1e-300]))
    return _system(d, draw(_traceless(d)), controls, bounds, dt)


_HORIZONS = _mostly(["1", "3", "-2"], ["0.5", "0", "1e9", "1e308"])

_COMMANDS = st.one_of(
    st.tuples(st.just("verify"), st.fixed_dictionaries({
        "--T": _HORIZONS,
        "--theta": _mostly(["", "0", "0,1"], ["5"]),
    })),
    st.tuples(st.just("simulate"), st.fixed_dictionaries({
        "--T": _HORIZONS,
        "--period": _mostly(["0.1", "0.05", "1e300"], ["0.0015", "1e-300"]),
        "--sample-every": _mostly(["10", "1"], [str(10**30), "0"]),
        "--seed": st.sampled_from(["0", "3"]),
    })),
)

_WIDE_BOX = _system(2, [[0.5, 0.0], [0.0, -0.5]], [[[0.0, 1.0], [1.0, 0.0]]], [(-1e308, 1e308)])
_HUGE_DRIFT = _system(2, [[1e308, 0.0], [0.0, -1e308]])
_FREE = _system(2, [[1.0, 0.0], [0.0, -1.0]])
_POINT = _system(1, [[0.0]])


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=_COMMANDS, doc=_documents())
# a box whose width hi - lo overflows
@example(command=("simulate", {"--T": "1"}), doc=_WIDE_BOX)
@example(command=("verify", {"--T": "1"}), doc=_WIDE_BOX)
# a drift whose norm, RK4 transitions, exp or tangent maps leave double range
@example(command=("simulate", {"--T": "5"}), doc=_HUGE_DRIFT)
@example(command=("verify", {"--T": "5"}), doc=_HUGE_DRIFT)
@example(command=("simulate", {"--T": "5"}), doc=_system(2, [[1e150, 0.0], [0.0, -1e150]]))
@example(command=("verify", {"--T": "5"}), doc=_system(2, [[2000.0, 0.0], [0.0, -2000.0]]))
# past the step bound: 10^12 RK4 steps, 10^301 control values
@example(command=("simulate", {"--T": "1e9", "--sample-every": "1000000000"}), doc=_FREE)
@example(command=("simulate", {"--period": "1e-300"}), doc=_FREE)
# a 1 x 1 system, below SL(2)
@example(command=("simulate", {"--T": "1"}), doc=_POINT)
@example(command=("verify", {"--T": "1"}), doc=_POINT)
def test_numeric_commands_keep_the_input_contract(tmp_path, capsys, command, doc):
    name, options = command
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))  # the json module writes and reads Infinity
    argv = [name, "--spec", str(path)]
    for flag, text in options.items():
        argv.append(f"{flag}={text}")  # "=" keeps a negative --T off the option names
    capsys.readouterr()
    with _budget(_BUDGET):
        rc = main(argv)
    out, err = capsys.readouterr()
    event(f"{name} exit {rc}")  # shown by --hypothesis-show-statistics
    assert rc in (0, 1, 2), argv
    if rc == 2:
        assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
    if rc == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out + err, re.IGNORECASE), argv


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("doc,message", [
    (_POINT, "SL(d) realization needs d >= 2"),
    (_system(2, [[1.0, 0.0], [0.0, 0.0]]), "system matrix has nonzero trace 1.0"),
    (_WIDE_BOX, "box widths hi - lo must be finite"),
    (_HUGE_DRIFT, "system matrix norm exceeds double range"),
])
def test_system_refusals_are_one_plain_line(tmp_path, capsys, command, doc, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--spec", str(path), "--T", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("options,message", [
    (["--T", "1e9"], "horizon needs 1e+10 control values, more than 2000000"),
    (["--T", "1e9", "--period", "1e6"], "horizon needs 1e+12 RK4 steps, more than 2000000"),
    (["--T", "2001", "--period", "2001"], "horizon needs 2.001e+06 RK4 steps, more than 2000000"),
    (["--T", "1", "--period", "1e-300"], "horizon needs 1e+300 control values, more than 2000000"),
])
def test_simulate_refuses_a_run_past_its_step_bound(tmp_path, capsys, options, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_FREE))
    assert main(["simulate", "--spec", str(path), *options]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("doc,message", [
    # RK4 read this drift's rate 4000 as 3044 at exit 0
    (_system(2, [[2000.0, 0.0], [0.0, -2000.0]]),
     "dt 0.001 times the generator norm bound 2828 on the control box"),
    # a mild drift, but a control that the box lets reach 600: sqrt(2) + 600 sqrt(2)
    (_system(2, [[1.0, 0.0], [0.0, -1.0]], [[[0.0, 1.0], [1.0, 0.0]]], [(-1.0, 600.0)]),
     "dt 0.001 times the generator norm bound 849.9 on the control box"),
    (_system(2, [[1.0, 0.0], [0.0, -1.0]], dt=0.4),
     "dt 0.4 times the generator norm bound 1.414 on the control box"),
])
def test_simulate_refuses_a_step_rk4_cannot_resolve(tmp_path, capsys, doc, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(path), "--T", "5"]) == 2
    assert capsys.readouterr() == ("", f"error: {message} exceeds 0.5: RK4 misreads the rates; lower dt\n")


def test_simulate_runs_a_step_just_inside_the_rk4_bound(tmp_path, capsys):
    # dt |drift|_F = 0.35 * sqrt(2) = 0.495
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_system(2, [[1.0, 0.0], [0.0, -1.0]], dt=0.35)))
    assert main(["simulate", "--spec", str(path), "--T", "3.5", "--period", "0.35"]) == 0


def test_verify_names_a_determinant_out_of_double_range(tmp_path, capsys):
    # exp(x / 2) of this traceless drift (eigenvalues +-565.7, 0, 0) is unimodular but far
    # too ill-conditioned for double range: the LU determinant of its fixed-flag images
    # overflows, and the refusal says so rather than that the matrix is not unimodular
    drift = [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 400.0, 400.0],
             [0.0, 400.0, 400.0, -400.0]]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(_system(4, drift)))
    assert main(["verify", "--spec", str(path), "--T", "1"]) == 2
    message = "matrix too ill-conditioned or too large for double range: its LU determinant is inf"
    assert capsys.readouterr() == ("", f"error: {message}\n")
