import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from flagctrl import linalg, sldr, weyl
from flagctrl.cli import main
from flagctrl.sldr import (
    Box,
    Polytope,
    control_system,
    random_special_orthogonal,
    system_to_json,
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def child_env(**extra):
    # a child process imports the same flagctrl as the tests, also when only
    # pytest's pythonpath setting, not PYTHONPATH, points at src/
    src = os.path.dirname(os.path.dirname(sldr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def write_system(tmp_path, drift, controls=(), crange=None, name="sys.json"):
    spec = control_system(np.asarray(drift, float), list(controls), crange or Box(()))
    path = tmp_path / name
    path.write_text(json.dumps(system_to_json(spec)))
    return str(path)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_json_deterministic(capsys):
    argv = ["analyze", "--type", "A", "--rank", "2", "--flagtype", "0"]
    rc, out1, _ = run(capsys, argv)
    assert rc == 0
    rc, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["lie_type"] == "A2"
    assert len(doc["records"]) == 3
    assert all(not r["hyperbolic"] for r in doc["records"])
    assert out1.startswith('{"')  # compact separators, sorted keys


def test_analyze_text_golden(capsys):
    rc, out, _ = run(capsys, ["analyze", "--type", "A", "--rank", "2", "--format", "text"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lie_type A2"
    assert lines[3] == "records 6"
    assert lines[4] == "rep ()  s/c/u 3/0/0  hyperbolic  sigma+ (0,0)  sigma- (-2,-2) [attractor]"
    assert lines[-1] == "rep (0,1,0)  s/c/u 0/0/3  hyperbolic  sigma+ (2,2)  sigma- (0,0) [repeller]"


def test_analyze_projective_plane(capsys):
    rc, out, _ = run(capsys, ["analyze", "--type", "A", "--rank", "2", "--theta", "0"])
    assert rc == 0
    assert len(json.loads(out)["records"]) == 3


def test_analyze_rejects_bad_indices(capsys):
    rc, _, err = run(capsys, ["analyze", "--type", "A", "--rank", "2", "--theta", "5"])
    assert rc == 2
    assert err.startswith("error:")
    with pytest.raises(SystemExit):
        main(["analyze", "--type", "A", "--rank", "2", "--theta", "x,y"])
    with pytest.raises(SystemExit):
        main(["analyze", "--type", "Z", "--rank", "2"])


def test_analyze_order_cap(capsys):
    rc, _, err = run(capsys, ["analyze", "--type", "A", "--rank", "3", "--order-cap", "10"])
    assert rc == 2
    assert "error:" in err


def test_analyze_computes_one_root_permutation_per_record(capsys, monkeypatch):
    calls = []
    real = weyl.root_permutation

    def counted(rs, w):
        calls.append(w.reduced_word)
        return real(rs, w)

    monkeypatch.setattr(weyl, "root_permutation", counted)
    rc, out, _ = run(capsys, ["analyze", "--type", "D", "--rank", "4"])
    assert rc == 0
    words = [tuple(r["coset_rep_word"]) for r in json.loads(out)["records"]]
    assert len(words) == 192
    assert calls == words


def test_exact_commands_skip_the_element_walk(tmp_path, capsys, monkeypatch):
    def refuse(group):
        raise AssertionError(f"element list of {group.system.lie_type}")

    monkeypatch.setattr(weyl.WeylGroup, "elements", property(refuse))
    rc, out, _ = run(capsys, ["analyze", "--type", "D", "--rank", "5"])
    assert rc == 0
    assert len(json.loads(out)["records"]) == 1920
    argv = ["cosets", "--type", "F", "--rank", "4", "--left", "1,2,3", "--right", "0,1,2"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["order"] == 1152
    path = write_system(tmp_path, np.diag([2.0, 0.0, -2.0]))
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", "3"])
    assert rc == 0


def test_exact_benchmark_ops_match_recorded_digests(capsys):
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "flagbench")
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(bench, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    ops = [op for ops in (*workloads.WORKLOADS.values(), *workloads.SMOKE.values()) for op in ops]
    exact = [op for op in ops if op.kind == "exact"]
    assert {op.id for op in exact} == set(digests)
    for op in exact:
        rc, out, _ = run(capsys, list(op.argv))
        assert rc == 0, op.id
        assert hashlib.sha256(out.encode()).hexdigest() == digests[op.id], op.id


# ---------------------------------------------------------------------------
# cosets


def test_cosets_json_golden(capsys):
    rc, out, _ = run(
        capsys,
        ["cosets", "--type", "B", "--rank", "2", "--left", "0", "--right", "1"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 8
    assert [c["rep_word"] for c in doc["cosets"]] == [[], [1, 0]]
    assert [c["size"] for c in doc["cosets"]] == [4, 4]


def test_cosets_text_golden(capsys):
    rc, out, _ = run(
        capsys,
        ["cosets", "--type", "B", "--rank", "2", "--left", "0", "--right", "1",
         "--format", "text"],
    )
    assert rc == 0
    assert out == (
        "lie_type B2  order 8\n"
        "left {0}  right {1}\n"
        "cosets 2\n"
        "rep ()  size 4\n"
        "rep (1,0)  size 4\n"
    )


def test_cosets_rejects_out_of_range_index(capsys):
    rc, out, err = run(
        capsys, ["cosets", "--type", "B", "--rank", "2", "--left", "5", "--right", "1"]
    )
    assert rc == 2
    assert out == ""
    assert err == "error: simple-root indices [5] out of range for rank 2\n"


# ---------------------------------------------------------------------------
# verify


def test_verify_regular_diagonal(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([2.0, 0.0, -2.0]))
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", "3"])
    assert rc == 0
    assert "FAIL" not in out
    m = re.search(r"verify: (\d+)/(\d+) checks passed", out)
    assert m and m.group(1) == m.group(2) == "30"


def test_verify_fails_at_zero_tolerance(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([2.0, 0.0, -2.0]))
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", "3", "--tol", "0"])
    assert rc == 1
    assert "FAIL" in out


def test_verify_skips_cells_without_fixed_flags(tmp_path, capsys):
    drift = [[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -2.0]]
    path = write_system(tmp_path, drift)
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", "3", "--theta", "0"])
    assert rc == 0
    assert "skipped (cell of word (1,) splits a complex eigenvalue pair" in out
    assert "FAIL" not in out
    assert re.search(r"verify: (\d+)/\1 checks passed", out)


def test_verify_center_band_reported(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([1.0, 1.0, -2.0]))
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", "2"])
    assert rc == 0
    assert "center slope band" in out
    assert "determinant identity skipped (non-hyperbolic)" in out


def test_verify_computes_drift_data_once(tmp_path, capsys, monkeypatch):
    q = random_special_orthogonal(np.random.default_rng(41), 4)
    path = write_system(tmp_path, q @ np.diag([3.0, 1.0, -1.0, -3.0]) @ q.T)
    counts = {"split_part": 0, "iwasawa": 0}
    expm_args = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_expm = linalg.expm

    def counted_expm(a):
        expm_args.append(np.array(a))
        return real_expm(a)

    monkeypatch.setattr(sldr, "split_part", counted("split_part", sldr.split_part))
    monkeypatch.setattr(sldr, "iwasawa", counted("iwasawa", sldr.iwasawa))
    monkeypatch.setattr(linalg, "expm", counted_expm)
    T = 4.0
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", str(T)])
    assert rc in (0, 1)
    n_records = len({line.split(":")[0] for line in out.splitlines() if line.startswith("record")})
    assert n_records == 24
    assert counts["split_part"] == 1
    assert expm_args  # the count is not vacuous
    assert len({a.tobytes() for a in expm_args}) == len(expm_args)  # one per distinct time
    # one per horizon sub-step, one fixed-flag check per record, one per
    # determinant time: nothing from the horizon is repeated per record
    assert counts["iwasawa"] <= math.ceil(T / 0.5) + n_records + 3


def test_verify_passes_on_distinct_spectrum(tmp_path, capsys):
    # the powered subbundle maps are graded: their singular values span
    # e^-80 to e^-20, which only a relatively accurate SVD resolves
    q = random_special_orthogonal(np.random.default_rng(43), 5)
    path = write_system(tmp_path, q @ np.diag([4.0, 2.0, 0.0, -2.0, -4.0]) @ q.T)
    rc, out, err = run(capsys, ["verify", "--spec", path, "--T", "10"])
    assert (rc, err) == (0, "")
    assert out.endswith("verify: 600/600 checks passed\n")


def test_verify_rejects_powered_map_out_of_double_range(tmp_path, capsys):
    # e^(26 * 30) overflows the unstable map and e^(-26 * 30) underflows the stable one
    path = write_system(tmp_path, np.diag([13.0, 0.0, -13.0]))
    rc, out, err = run(capsys, ["verify", "--spec", path, "--T", "30"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: record (") and "leaves double range" in err


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, ["verify", "--spec", "/nonexistent/sys.json"])
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_system_golden(tmp_path, capsys):
    path = write_system(tmp_path, np.zeros((3, 3)))
    argv = ["simulate", "--spec", path, "--T", "1"]
    rc, out1, err1 = run(capsys, argv)
    assert rc == 0
    lines = out1.splitlines()
    assert lines[0] == "t,a1,a2,a3"
    assert lines[1] == "0,0,0,0"
    assert all(line.split(",")[1:] == ["0", "0", "0"] for line in lines[1:])
    info = json.loads(err1.splitlines()[-1])
    assert info["estimated_flag_type"] == [0, 1]
    rc, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_simulate_seed_changes_output(tmp_path, capsys):
    drift = np.diag([1.0, 0.0, -1.0])
    ctrl = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    path = write_system(tmp_path, drift, [ctrl], Box(((-1.0, 1.0),)))
    rc, out_a, _ = run(capsys, ["simulate", "--spec", path, "--T", "1", "--seed", "1"])
    assert rc == 0
    rc, out_b, _ = run(capsys, ["simulate", "--spec", path, "--T", "1", "--seed", "2"])
    assert rc == 0
    assert out_a != out_b


def test_simulate_backward_uses_every_control_value(tmp_path, capsys):
    # --T -1 draws ten values at period 0.1; the run over [-1, 0] holds each
    # for one period, as the stepwise oracle on a signal starting at T does
    drift = np.diag([1.0, 0.0, -1.0])
    ctrl = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    path = write_system(tmp_path, drift, [ctrl], Box(((-1.0, 1.0),)))
    rc, out, _ = run(capsys, ["simulate", "--spec", path, "--T", "-1", "--seed", "4"])
    assert rc == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
    spec = sldr.load_system(path)
    sig = sldr.random_signal(np.random.default_rng(4), spec.control_range, -1.0, 0.1)
    assert len(np.unique(sig.values)) == 10
    times, values = oracles.stepwise_cocycle(spec, sig, -1.0, np.eye(3))
    assert np.abs(rows[:, 0] - times).max() < 1e-12
    assert np.abs(rows[:, 1:] - values).max() < 1e-9


def test_simulate_rejects_polytope_range(tmp_path, capsys):
    tri = Polytope(
        normals=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        offsets=np.array([1.0, 1.0, 1.0]),
    )
    path = write_system(
        tmp_path,
        np.diag([1.0, 0.0, -1.0]),
        [np.diag([0.2, -0.2, 0.0]), np.diag([0.0, 0.2, -0.2])],
        tri,
    )
    rc, _, err = run(capsys, ["simulate", "--spec", path, "--T", "1"])
    assert rc == 2
    assert "box control ranges" in err


def test_non_finite_drift_rejected(tmp_path, capsys):
    doc = system_to_json(control_system(np.diag([1.0, 0.0, -1.0]), [], Box(())))
    doc["drift"][0][1] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # the json module writes and reads NaN
    for argv in (["simulate", "--spec", str(path)], ["verify", "--spec", str(path)]):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err


def test_non_finite_control_range_rejected(tmp_path, capsys):
    ctrl = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    box = system_to_json(control_system(np.diag([1.0, 0.0, -1.0]), [ctrl], Box(((-1.0, 1.0),))))
    box["control_range"]["bounds"] = [[-math.inf, math.inf]]
    poly = dict(box, control_range={"type": "polytope", "normals": [[1.0], [-1.0]],
                                    "offsets": [1.0, math.inf]})
    for name, doc, command in (("box", box, "simulate"), ("poly", poly, "verify")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))  # the json module writes and reads Infinity
        rc, out, err = run(capsys, [command, "--spec", str(path), "--T", "0.1"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err


def test_verify_flow_type_covering_every_simple_root(tmp_path, capsys):
    path = write_system(tmp_path, np.zeros((3, 3)))
    rc, out, err = run(capsys, ["verify", "--spec", path])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "no positive root lies outside" in err


def test_simulate_zero_horizon_writes_nothing(tmp_path, capsys):
    path = write_system(tmp_path, np.diag([1.0, 0.0, -1.0]))
    rc, out, err = run(capsys, ["simulate", "--spec", path, "--T", "0"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_simulate_rejects_off_grid_period(tmp_path, capsys):
    drift = np.diag([1.0, 0.0, -1.0])
    ctrl = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    path = write_system(tmp_path, drift, [ctrl], Box(((-1.0, 1.0),)))
    rc, out, err = run(capsys, ["simulate", "--spec", path, "--T", "1", "--period", "0.0015"])
    assert rc == 2
    assert out == ""
    assert "integer multiple of dt" in err


# ---------------------------------------------------------------------------
# logging and module entry


def test_log_env_enables_stderr_logging():
    proc = subprocess.run(
        [sys.executable, "-m", "flagctrl.cli", "analyze", "--type", "A", "--rank", "2"],
        capture_output=True,
        text=True,
        env=child_env(FLAGCTRL_LOG="DEBUG"),
    )
    assert proc.returncode == 0
    assert "Weyl group of A2 has order 6" in proc.stderr
    assert proc.stdout.startswith('{"')


def test_exact_commands_do_not_import_numpy():
    code = (
        "import sys, flagctrl.cli as c\n"
        "assert c.main(['analyze', '--type', 'A', '--rank', '2', '--theta', '0']) == 0\n"
        "assert c.main(['cosets', '--type', 'A', '--rank', '2', '--left', '0']) == 0\n"
        "loaded = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 2


def test_simulate_does_not_import_scipy(tmp_path):
    control = np.diag([1.0, 1.0, -2.0])
    path = write_system(tmp_path, np.diag([1.0, 0.0, -1.0]), [control], Box(((-1.0, 1.0),)))
    code = (
        "import sys, flagctrl.cli as c\n"
        f"assert c.main(['simulate', '--spec', {path!r}, '--T', '0.5']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("t,")


def test_verify_does_not_import_scipy(tmp_path):
    path = write_system(tmp_path, np.diag([1.0, 1.0, -2.0]))
    code = (
        "import sys, flagctrl.cli as c\n"
        f"assert c.main(['verify', '--spec', {path!r}, '--T', '2']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("checks passed\n")


RUN_CLASSIFICATION = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", "run_classification.py"
)


def test_run_classification_script():
    proc = subprocess.run(
        [sys.executable, RUN_CLASSIFICATION, "--type", "A", "--rank", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("A2: |W| = 6, 3 positive roots\n")


@pytest.mark.parametrize("argv", [["--type", "E", "--rank", "7"], ["--type", "A", "--rank", "0"]])
def test_run_classification_script_refusals(argv):
    # the order cap and a bad type end like the CLI's refusals: exit 2, one
    # error line, no traceback
    proc = subprocess.run(
        [sys.executable, RUN_CLASSIFICATION, *argv], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
