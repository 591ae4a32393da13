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
from flagctrl import flagcalc, flows, linalg, sldr, weyl
from flagctrl.cli import main
from flagctrl.rootsys import build_root_system
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
    # pytest's pythonpath setting, not PYTHONPATH, points at src/; it logs
    # only where ``extra`` sets FLAGCTRL_LOG
    src = os.path.dirname(os.path.dirname(sldr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "FLAGCTRL_LOG"}
    return dict(inherited, PYTHONPATH=path, **extra)


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


def test_analyze_splits_each_record_once_at_its_orbit_point(capsys, monkeypatch):
    # one tangent split per record, in record order, at the point the orbit
    # walk hands over with its packed pairing word: no record walks its word
    # to find w(lambda_theta)
    splits, walks = [], []
    real_split, real_walk = flagcalc._split, weyl.WeylElement.weight_image

    def split(rs, spec, mu, packed):
        splits.append((mu, packed))
        return real_split(rs, spec, mu, packed)

    def walk(w, mu):
        walks.append(w.reduced_word)
        return real_walk(w, mu)

    monkeypatch.setattr(flagcalc, "_split", split)
    monkeypatch.setattr(weyl.WeylElement, "weight_image", walk)
    rc, out, _ = run(capsys, ["analyze", "--type", "D", "--rank", "4"])
    monkeypatch.undo()
    assert rc == 0 and walks == []
    words = [tuple(r["coset_rep_word"]) for r in json.loads(out)["records"]]
    assert len(words) == 192
    rs = build_root_system("D", 4)
    points = [weyl.WeylElement(word, rs).weight_image((1, 1, 1, 1)) for word in words]
    # the packed word of mu: bias plus mu_i times column i
    packed = [sum(m * c for m, c in zip(mu, rs.index.columns)) + rs.index.bias for mu in points]
    assert splits == list(zip(points, packed))


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
     ("F", 4)],
)
def test_analyze_formats_the_records_of_the_whole_report(capsys, family, rank):
    # analyze formats each record as the walk yields it: its JSON is json.dumps of the
    # dict report, and its text the lines of the whole record tuple, byte for byte, on
    # every (theta, flag type) pair, F4 on F4_PAIRS
    from test_flagcalc import F4_PAIRS

    group = weyl.generate(build_root_system(family, rank))
    subsets = list(oracles.all_subsets(rank))
    pairs = F4_PAIRS if family == "F" else [(t, f) for t in subsets for f in subsets]
    for theta, ftype in pairs:
        spec = flagcalc.FlagSpec(theta=theta, flag_type=ftype)
        argv = ["analyze", "--type", family, "--rank", str(rank),
                "--theta", ",".join(map(str, theta)), "--flagtype", ",".join(map(str, ftype))]
        report = flagcalc.classification_report(group, spec)
        records = flagcalc.enumerate_chain_control_sets(group, spec)
        expected = {
            "json": json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n",
            "text": oracles.analyze_text(group, records, spec),
        }
        for fmt, text in expected.items():
            assert run(capsys, [*argv, "--format", fmt]) == (0, text, ""), (fmt, theta, ftype)


def test_analyze_writes_nothing_when_a_check_after_the_walk_fails(capsys, monkeypatch):
    # the end-of-run checks come after the last record is formatted, and stdout is
    # written only once they pass: with every coset twice (two attractors) or on a group
    # of the wrong order (the coset sizes miss it), nothing reaches stdout
    argv = ["analyze", "--type", "A", "--rank", "2"]
    cosets = list(weyl._cosets(weyl.generate(build_root_system("A", 2)), (), ()))
    monkeypatch.setattr(weyl, "_cosets", lambda *args: cosets * 2)
    for fmt in ("json", "text"):
        rc, out, err = run(capsys, [*argv, "--format", fmt])
        assert (rc, out) == (1, "") and "unique attractor and repeller, found 2 and 2" in err
    monkeypatch.undo()
    monkeypatch.setattr(weyl, "generate", lambda rs, order_cap=None: weyl.WeylGroup(rs, 7))
    for fmt in ("json", "text"):
        with pytest.raises(AssertionError, match="do not partition the group"):
            main([*argv, "--format", fmt])
        assert capsys.readouterr().out == ""


def test_analyze_holds_its_records_at_the_size_of_their_output(capsys):
    # D5 json, 1,920 records and 320 KiB of output: with the coset list, the whole
    # record tuple, its dicts and json.dumps' chunk list alive at once the run peaked at
    # 4.5 MiB of Python allocations; formatted as they come, at 1.4 MiB, the captured
    # output included
    import tracemalloc

    argv = ["analyze", "--type", "D", "--rank", "5", "--format", "json"]
    rc, expected, _ = run(capsys, argv)  # the root system and its tables, built once
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, capsys.readouterr().out) == (0, expected)
    assert len(expected) > 320_000 and peak < 2 * 2**20, peak


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


def test_analyze_e6_text_matches_its_recorded_digest(capsys):
    # the largest record set of any test: 25,920 non-hyperbolic records,
    # each with three tangent classes; the digest was recorded with the
    # per-root tangent split
    argv = ["analyze", "--type", "E", "--rank", "6", "--flagtype", "0", "--format", "text"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and out.count("\n") == 25924
    digest = "8ee487cd841d2028b9dc1f19b80006bac67560d2e9c19d5374d5618bb3eeacb3"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cosets_e6_json_matches_its_recorded_digest(capsys):
    # W_I \ W(E6) / W_I for I = {1..5}, the D5 parabolic: a walk of 27
    # orbit points; the digest was recorded with the breadth-first walk
    argv = ["cosets", "--type", "E", "--rank", "6", "--left", "1,2,3,4,5", "--right", "1,2,3,4,5"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    digest = "0f267a941420d360820be11ff1da9bf38f9911d920c2f123d19ee6068599bdb4"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # one per step of the cocycle curve, which the rate check and every
    # determinant time share: nothing is repeated per record or per time
    assert counts["iwasawa"] == math.ceil(T / 0.5)


def test_verify_passes_on_distinct_spectrum(tmp_path, capsys):
    # the powered subbundle maps are graded: their singular values span
    # e^-80 to e^-20, which only a relatively accurate SVD resolves
    q = random_special_orthogonal(np.random.default_rng(43), 5)
    path = write_system(tmp_path, q @ np.diag([4.0, 2.0, 0.0, -2.0, -4.0]) @ q.T)
    rc, out, err = run(capsys, ["verify", "--spec", path, "--T", "10"])
    assert (rc, err) == (0, "")
    assert out.endswith("verify: 600/600 checks passed\n")


def test_verify_passes_on_a_wide_spectrum(tmp_path, capsys):
    # exp(2x) spans e^-18 to e^18: the determinant identity reads its log volumes off the
    # short-time map and its cocycle in steps of 0.5, so no factor leaves what the unimodular
    # and conditioning checks accept
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
    path = write_system(tmp_path, q @ np.diag([9.0, 3.0, -3.0, -9.0]) @ q.T)
    for T in ("2", "5"):
        rc, out, err = run(capsys, ["verify", "--spec", path, "--T", T])
        assert (rc, err) == (0, "")
        assert out.endswith("verify: 120/120 checks passed\n")


def test_verify_rejects_powered_map_out_of_double_range(tmp_path, capsys):
    # e^(26 * 30) overflows the unstable map and e^(-26 * 30) underflows the stable one
    path = write_system(tmp_path, np.diag([13.0, 0.0, -13.0]))
    rc, out, err = run(capsys, ["verify", "--spec", path, "--T", "30"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: record (): the powered short-time map leaves double range over horizon 30; "
        "shorten --T\n"
    )


def test_verify_names_the_first_failing_record(tmp_path, capsys):
    # e^(-24 * 30) is still a double, so record () passes; e^(24 * 30) is not,
    # so (1,) and (1,0) fail, and the first of them in record order is named
    path = write_system(tmp_path, np.diag([8.0, 8.0, -16.0]))
    rc, out, err = run(capsys, ["verify", "--spec", path, "--T", "30"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: record (1,): the powered short-time map leaves double range over horizon 30; "
        "shorten --T\n"
    )
    rc, out, _ = run(capsys, ["verify", "--spec", path, "--T", "10"])
    assert rc == 0 and out.startswith("record (): ") and "record (1,0): " in out


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


def _malformed_documents():
    ctrl = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    good = system_to_json(control_system(np.diag([1.0, 0.0, -1.0]), [ctrl], Box(((-1.0, 1.0),))))
    return {
        "control_range_not_object": dict(good, control_range=[[-1.0, 1.0]]),
        "integrator_not_object": dict(good, integrator=[0.001, 10]),
        "normals_one_dimensional": dict(
            good, control_range={"type": "polytope", "normals": [1.0, 0.0], "offsets": [1.0, 1.0]}
        ),
        "offsets_length_mismatch": dict(
            good,
            control_range={"type": "polytope", "normals": [[1.0], [-1.0]], "offsets": [1.0, 1.0, 1.0]},
        ),
    }


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("case", sorted(_malformed_documents()))
def test_malformed_system_document_rejected(tmp_path, capsys, case, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed_documents()[case]))
    rc, out, err = run(capsys, [command, "--spec", str(path), "--T", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


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


def test_simulate_out_of_memory_is_an_error_line(tmp_path, capsys, monkeypatch):
    # a horizon whose control draws do not fit in memory: numpy raises a
    # MemoryError subclass ("Unable to allocate ..."), stood in for here
    def refuse(*args):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(flows, "random_signal", refuse)
    path = write_system(tmp_path, np.diag([1.0, 0.0, -1.0]))
    rc, out, err = run(capsys, ["simulate", "--spec", path, "--T", "1e9"])
    assert rc == 2
    assert out == ""
    assert err == "error: Unable to allocate 149. GiB for an array\n"


def test_simulate_runs_on_the_package_names(tmp_path, capsys, monkeypatch):
    # simulate looks its stages up on the package at each run, so a wrapper set on the
    # package sees each of their calls; items of the package's namespace, so that undoing
    # the patch leaves the names lazy
    import flagctrl

    calls = []
    stages = ("load_system", "random_signal", "cocycle_sample", "flag_type_diagnostic",
              "cocycle_to_csv")
    for name in stages:
        def wrapper(*args, _fn=getattr(flows, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setitem(vars(flagctrl), name, wrapper)
    control = np.diag([1.0, 1.0, -2.0])
    path = write_system(tmp_path, np.diag([1.0, 0.0, -1.0]), [control], Box(((-1.0, 1.0),)))
    rc, out, _ = run(capsys, ["simulate", "--spec", path, "--T", "0.5"])
    assert rc == 0 and out
    assert calls == list(stages)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--T", "inf"],
        ["simulate", "--T", "inf"],
        ["simulate", "--T", "1", "--period", "inf"],
        ["simulate", "--T", "1", "--period", "0"],
        ["verify", "--gap-tol", "nan"],
        ["verify", "--gap-tol", "-1"],
        ["verify", "--gap-tol", "0"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "-1"],
        ["verify", "--rate-tol", "nan"],
        ["verify", "--order-cap", "0"],
        ["analyze", "--type", "A", "--rank", "2", "--order-cap", "0"],
        ["analyze", "--type", "A", "--rank", "2", "--order-cap", "-1"],
        ["cosets", "--type", "A", "--rank", "2", "--order-cap", "-1"],
    ],
)
def test_bad_numeric_option_is_a_usage_error(tmp_path, capsys, argv):
    if argv[0] in ("verify", "simulate"):
        argv = argv[:1] + ["--spec", write_system(tmp_path, np.diag([2.0, 0.0, -2.0]))] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def _child(argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "flagctrl.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(**env),
    )


def test_log_env_below_debug_prints_no_debug_line():
    proc = _child(["analyze", "--type", "A", "--rank", "2"], FLAGCTRL_LOG="INFO")
    assert proc.returncode == 0 and proc.stdout.startswith('{"')
    assert proc.stderr == ""


def test_unset_log_env_keeps_stderr_empty_and_logging_unloaded():
    proc = _child(["analyze", "--type", "A", "--rank", "2"])
    assert proc.returncode == 0 and proc.stdout.startswith('{"') and proc.stderr == ""
    code = (
        "import sys, flagctrl.cli as c\n"
        "assert c.main(['analyze', '--type', 'A', '--rank', '2']) == 0\n"
        "assert 'logging' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0 and proc.stderr == ""


def test_log_env_debug_reports_the_drift_flow_type(tmp_path):
    path = write_system(tmp_path, np.diag([1.0, 0.0, -1.0]))
    proc = _child(["verify", "--spec", path, "--T", "2", "--theta", "1"], FLAGCTRL_LOG="DEBUG")
    assert proc.returncode == 0 and proc.stdout.endswith("checks passed\n")
    assert proc.stderr == "DEBUG flagctrl: drift flow type [], 3 records on theta=[1]\n"


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


def test_exact_commands_load_only_what_they_run():
    # analyze and cosets need no dataclasses (inspect with them), logging,
    # fractions or decimal, and a text run no json; counted from before the
    # import of flagctrl, so that what the interpreter loads at start does not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import flagctrl.cli as c\n"
        "def loaded(names):\n"
        "    return sorted(set(names) & (set(sys.modules) - before))\n"
        "for fmt in ('text', 'json'):\n"
        "    argv = ['--type', 'B', '--rank', '3', '--format', fmt]\n"
        "    assert c.main(['analyze', *argv, '--theta', '0', '--flagtype', '1']) == 0\n"
        "    assert c.main(['cosets', *argv, '--left', '0', '--right', '1,2']) == 0\n"
        "    if fmt == 'text':\n"
        "        assert not loaded(['json']), loaded(['json'])\n"
        "banned = loaded(['dataclasses', 'inspect', 'logging', 'fractions', 'decimal', 'json'])\n"
        "assert banned == ['json'], banned\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # two text outputs, then two json documents
    assert sum(line.startswith("lie_type") for line in lines) == 2
    assert sum(line.startswith("{") for line in lines) == 2


def _importers(stderr: str) -> dict:
    # each module of an -X importtime listing with the module whose import loaded it
    # (None at the top): a module's line follows those of the modules it loads, each
    # indented two spaces more
    out, pending = {}, []
    for line in stderr.splitlines():
        if line.startswith("import time:") and not line.endswith("imported package"):
            field = line.rsplit("|", 1)[1]
            name, depth = field.strip(), len(field) - len(field.lstrip())
            while pending and pending[-1][1] > depth:
                out[pending.pop()[0]] = name
            pending.append((name, depth))
    out.update((name, None) for name, _ in pending)
    return out


def test_numeric_commands_load_only_what_they_run(tmp_path):
    # simulate compiles only flows, with no exact module, sldr or linalg; neither numeric
    # command loads dataclasses, fractions or decimal; and numpy loads from flows, which
    # verify loads from sldr, so that each module compiles before numpy loads.  Each command
    # runs as a process of its own, which lists its imports on stderr
    control = np.diag([1.0, 1.0, -2.0])
    simulated = write_system(tmp_path, np.diag([1.0, 0.0, -1.0]), [control], Box(((-1.0, 1.0),)))
    verified = write_system(tmp_path, np.diag([2.0, 0.0, -2.0]), name="verify.json")
    exact = {"flagctrl.rootsys", "flagctrl.weyl", "flagctrl.flagcalc"}
    importers = {}
    for argv in (["simulate", "--spec", simulated, "--T", "0.5"],
                 ["verify", "--spec", verified, "--T", "2"]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "flagctrl.cli", *argv],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        importers[argv[0]] = _importers(proc.stderr)
        assert importers[argv[0]]["numpy"] == "flagctrl.flows"  # cli runs as __main__
    loaded = {command: set(found) for command, found in importers.items()}
    banned = {"dataclasses", "fractions", "decimal"}
    assert not loaded["simulate"] & (exact | banned | {"flagctrl.sldr", "flagctrl.linalg"})
    assert exact | {"flagctrl.linalg"} <= loaded["verify"] and not loaded["verify"] & banned
    assert importers["verify"]["flagctrl.flows"] == "flagctrl.sldr"


def test_cli_families_are_the_root_systems():
    from flagctrl import cli, rootsys

    assert cli._FAMILIES == rootsys.FAMILIES


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


def test_verify_reaches_the_traced_stages_once_per_chunk(tmp_path, monkeypatch, capsys):
    # the benchmark times verify by wrapping these sldr globals, so verify must reach each
    # through its module global: the three checks once per chunk of records, the
    # determinant identity once per t and chunk
    calls = {}

    def counter(name, original):
        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return original(*args, **kwargs)

        return counted

    stages = ("load_system", "split_part", "fixed_flags", "determinant_formula_residuals",
              "verify_rates")
    for name in stages:
        monkeypatch.setattr(sldr, name, counter(name, getattr(sldr, name)))
    monkeypatch.setattr(sldr, "CHUNK", 7)
    path = write_system(tmp_path, np.diag([3.0, 1.0, -1.0, -3.0]))
    assert main(["verify", "--spec", path, "--T", "2"]) == 0
    assert capsys.readouterr().out.endswith("verify: 120/120 checks passed\n")
    assert len(calls["load_system"]) == len(calls["split_part"]) == 1
    chunks = [7, 7, 7, 3]  # the 24 records of the maximal flag of SL(4)
    assert [len(a[2]) for a in calls["fixed_flags"]] == chunks
    assert [len(a[2]) for a in calls["verify_rates"]] == chunks
    dets = [(len(a[2]), a[3]) for a in calls["determinant_formula_residuals"]]
    assert dets == [(n, t) for n in chunks for t in (0.5, 1.0, 2.0)]


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


RATE_EXPERIMENT = os.path.join(os.path.dirname(RUN_CLASSIFICATION), "rate_experiment.py")


def test_rate_experiment_script():
    def script(*argv):
        proc = subprocess.run(
            [sys.executable, RATE_EXPERIMENT, *argv], capture_output=True, text=True, env=child_env()
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    out = script("--diag", "2,0,-2", "--theta", "0", "--T", "20")
    assert "3 chain control sets" in out
    errors = [float(v) for v in re.findall(r"worst exponent rel error (\S+),", out)]
    assert len(errors) == 3 and max(errors) <= 1e-2
    assert out.count("determinant identity worst residual") == 3
    assert "center slope band" in script("--diag", "1,1,-2", "--T", "10")


@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "E", "--rank", "7"],
        ["--type", "A", "--rank", "0"],
        ["--type", "A", "--rank", "2", "--order-cap", "0"],
        ["--type", "A", "--rank", "2", "--order-cap", "-3"],
    ],
)
def test_run_classification_script_refusals(argv):
    # the order cap and a bad type end like the CLI's refusals: exit 2, one
    # error line, no traceback; a cap that is not a positive integer is a
    # usage error, as in the CLI
    proc = subprocess.run(
        [sys.executable, RUN_CLASSIFICATION, *argv], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    if "--order-cap" in argv:
        assert proc.stderr.startswith("usage: ")
        assert "error: argument --order-cap: expected a positive integer" in proc.stderr
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--diag", "2,0,-2", "--T", "5", "--gap-tol", "nan"], "gap_tol must be finite and > 0, got nan"),
        (
            ["--diag", "13,0,-13", "--T", "30"],
            "record (): the powered short-time map leaves double range over horizon 30; shorten --T",
        ),
        (["--diag", "2,0,-2", "--T", "inf"], "horizon inf is not finite"),
        (["--diag", "2,0,-2", "--T", "nan"], "horizon nan is not finite"),
        (["--random-dim", "1", "--T", "2"], "SL(d) realization needs d >= 2"),
        (["--random-dim", "0"], "SL(d) realization needs d >= 2"),
    ],
)
def test_rate_experiment_script_refusals(argv, message):
    # a refused input, and a measurement that fails after earlier records
    # were measured, end like the CLI's refusals: exit 2, one error line,
    # nothing on stdout
    proc = subprocess.run(
        [sys.executable, RATE_EXPERIMENT, *argv], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        [sys.executable, "-m", "flagctrl.cli", "verify", "--spec", "{spec}", "--T", "1e300"],
        [sys.executable, RATE_EXPERIMENT, "--diag", "2,0,-2", "--T", "1e300"],
    ],
)
def test_huge_horizon_is_refused_up_front(tmp_path, argv):
    # the powered maps would leave double range long before the cocycle over
    # [0, T] is built, so the refusal comes first: exit 2 in seconds
    spec = write_system(tmp_path, np.diag([2.0, 0.0, -2.0]))
    argv = [a.format(spec=spec) for a in argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: horizon 1e+300 times the largest real part 2 in modulus exceeds 1490: "
        "the powered short-time maps leave double range; shorten --T\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        [sys.executable, "-m", "flagctrl.cli", "verify", "--spec", "{spec}", "--theta", "0,1"],
        [sys.executable, RATE_EXPERIMENT, "--diag", "2,0,-2", "--theta", "0,1"],
    ],
)
def test_long_horizon_on_a_point_manifold_is_refused_by_its_step_count(tmp_path, argv):
    # theta = {0, 1} makes the flag manifold a point, which the double-range
    # bound does not cover: the cocycle's 2 * 10^7 steps are refused before
    # the first is taken, while 10^3 still runs
    spec = write_system(tmp_path, np.diag([2.0, 0.0, -2.0]))
    argv = [a.format(spec=spec) for a in argv]
    def horizon(T, timeout):
        return subprocess.run(
            argv + ["--T", T], capture_output=True, text=True, env=child_env(), timeout=timeout
        )

    proc = horizon("1e7", 10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: horizon 1e+07 needs 20000000 cocycle steps of at most 0.5, more than 20000; "
        "shorten --T\n"
    )
    proc = horizon("1000", 30)
    assert (proc.returncode, proc.stderr) == (0, "")
