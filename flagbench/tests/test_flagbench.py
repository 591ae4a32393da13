"""Tests of the benchmark's own logic: parsers, output checks, the simulate
oracle's tolerance, seeded inputs, span arithmetic, and smoke runs of
run.py.  Run with ``python3 -m pytest flagbench/tests -q``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import oracle
import ref
import run
import tracer
import workloads
from conftest import BENCH, ROOT
from flagctrl import cli

VERIFY_TEXT = """\
record (): fixed-flag drift 1.0e-15 -> PASS
record (): determinant identity t=0.5 residuals 1e-15/1e-15 -> PASS
record (0): determinant identity skipped (non-hyperbolic)
record (0): exponent error 3.1e-02, mu 0.5000 -> FAIL
record (0): center slope band [-1e-3, 1e-3]
verify: 2/3 checks passed
"""


def test_parse_verify_counts_lines_and_summary():
    s = checks.parse_verify(VERIFY_TEXT)
    assert (s.passed, s.failed, s.reported) == (2, 1, (2, 3))


def test_check_verify_accepts_fail_lines_with_exit_1():
    assert checks.check_verify(1, VERIFY_TEXT) == []


@pytest.mark.parametrize(
    "rc, text",
    [
        (0, VERIFY_TEXT),  # FAIL lines but exit 0
        (1, VERIFY_TEXT.replace("-> FAIL", "-> PASS")),  # summary says 2/3, lines say 3/3
        (0, VERIFY_TEXT.replace("verify: 2/3 checks passed\n", "")),  # no summary
    ],
)
def test_check_verify_rejects_inconsistent_output(rc, text):
    assert checks.check_verify(rc, text)


def test_parse_csv():
    header, rows = checks.parse_csv("t,a1,a2\n0,0,0\n0.01,1.5,-1.5\n")
    assert header == ["t", "a1", "a2"]
    assert rows == [[0.0, 0.0, 0.0], [0.01, 1.5, -1.5]]
    with pytest.raises(ValueError):
        checks.parse_csv("t,a1,a2\n0,0\n")
    with pytest.raises(ValueError):
        checks.parse_csv("")


def test_check_simulate_shape():
    csv = "t,a1,a2\n0,0,0\n0.01,1.5,-1.5\n"
    assert checks.check_simulate_shape(csv, '{"dim": 2, "n_rows": 2}\n') == []
    assert checks.check_simulate_shape(csv, '{"dim": 2, "n_rows": 3}\n')
    assert checks.check_simulate_shape(csv, '{"dim": 3, "n_rows": 2}\n')
    assert checks.check_simulate_shape(csv, "")


def test_check_digest():
    digests = {"op": checks.sha256(b"abc\n")}
    assert checks.check_digest("op", b"abc\n", digests) == []
    assert checks.check_digest("op", b"abd\n", digests)
    assert checks.check_digest("other", b"abc\n", digests)


def test_every_exact_op_has_a_recorded_digest():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    groups = (*workloads.WORKLOADS.values(), *workloads.SMOKE.values())
    exact = {op.id for ops in groups for op in ops if op.kind == "exact"}
    assert exact == set(digests)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--type", "B", "--rank", "2", "--format", "json"],
        ["analyze", "--type", "B", "--rank", "2", "--flagtype", "0", "--format", "text"],
        ["cosets", "--type", "B", "--rank", "2", "--left", "0", "--right", "1", "--format", "json"],
        ["cosets", "--type", "B", "--rank", "2", "--left", "0", "--right", "1", "--format", "text"],
    ],
)
def test_exact_invariants_hold_on_real_output(argv):
    rc, out, _ = _cli(argv)
    assert rc == 0
    assert checks.exact_invariants(out) == []


def test_exact_invariants_catch_broken_output():
    rc, out, _ = _cli(["analyze", "--type", "B", "--rank", "2", "--format", "json"])
    doc = json.loads(out)
    doc["records"][1]["attractor"] = True
    assert checks.exact_invariants(json.dumps(doc))
    rc, out, _ = _cli(["analyze", "--type", "B", "--rank", "2", "--format", "text"])
    assert checks.exact_invariants(out.replace(" [attractor]", ""))
    assert checks.exact_invariants(out.replace("records 8", "records 9"))
    rc, out, _ = _cli(["cosets", "--type", "B", "--rank", "2", "--left", "0", "--right", "1", "--format", "text"])
    assert checks.exact_invariants(out.replace("size 4", "size 5", 1))


@pytest.fixture(scope="module")
def d3_system(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("inputs"))
    seeds = workloads.write_inputs(work, 7)
    return os.path.join(work, "simulate-d3.json"), seeds["simulate-d3"]


def test_oracle_agrees_with_simulate_within_tolerance(d3_system):
    path, seed = d3_system
    rc, out, _ = _cli(["simulate", "--spec", path, "--T", "2", "--seed", str(seed)])
    assert rc == 0
    report = oracle.check(out, path, seed, 2.0, 0.1)
    assert report["boundaries"] == 21
    assert checks.check_oracle(report) == []
    assert report["max_abs_err"] < checks.ORACLE_ATOL / 100


def test_oracle_catches_wrong_output(d3_system):
    path, seed = d3_system
    _, out, _ = _cli(["simulate", "--spec", path, "--T", "2", "--seed", str(seed)])
    # another control draw
    assert checks.check_oracle(oracle.check(out, path, seed + 1, 2.0, 0.1))
    # one boundary value off by ten times the tolerance
    lines = out.splitlines()
    t, a1, rest = lines[11].split(",", 2)
    lines[11] = f"{t},{float(a1) + 10 * checks.ORACLE_ATOL!r},{rest}"
    assert checks.check_oracle(oracle.check("\n".join(lines) + "\n", path, seed, 2.0, 0.1))


def test_oracle_request_reads_simulate_argv():
    argv = ["simulate", "--spec", "s.json", "--T", "50", "--seed", "9"]
    assert checks.oracle_request(argv) == ("s.json", 9, 50.0, 0.1)
    assert checks.oracle_request(argv + ["--period", "0.2"])[3] == 0.2


def test_inputs_follow_the_seed():
    assert workloads.make_inputs(3) == workloads.make_inputs(3)
    assert workloads.make_inputs(3) != workloads.make_inputs(4)


@pytest.mark.parametrize("name", sorted(workloads.VERIFY_SPECTRA))
def test_verify_drifts_have_the_fixed_spectrum(name):
    systems, _ = workloads.make_inputs(5)
    x = np.array(systems[name]["drift"])
    assert np.allclose(x, x.T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(x))[::-1], workloads.VERIFY_SPECTRA[name])
    assert not np.allclose(x, np.diag(np.diag(x)))  # conjugated, not diagonal


def test_expand_fills_work_and_seed():
    op = workloads.SMOKE["simulate"][0]
    argv = workloads.expand(op, "/w", {"simulate-d3": 42})
    assert argv[argv.index("--spec") + 1] == "/w/simulate-d3.json"
    assert argv[argv.index("--seed") + 1] == "42"


def test_tracer_self_time_and_nesting():
    tr = tracer.Tracer()
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds a [6, 8]
    tr.spans = [
        ["outer", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 8.0, 2],
    ]
    st = tr.stages()
    assert st["outer"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert st["a"] == {"s": 5.0, "self_s": 5.0, "calls": 2}
    assert st["b"] == {"s": 4.0, "self_s": 2.0, "calls": 1}


def test_tracer_does_not_double_count_recursion():
    tr = tracer.Tracer()
    tr.spans = [["a", 0.0, 4.0, None], ["a", 1.0, 3.0, 0]]
    assert tr.stages()["a"] == {"s": 4.0, "self_s": 4.0, "calls": 2}


def test_largest_span_pairs_the_verify_checks():
    m = {
        "sldr.split_part.s": (3.0, "s"),
        "sldr.verify_rates.s": (2.0, "s"),
        "sldr.determinant_formula_residuals.s": (2.0, "s"),
        "flagcalc.enumerate_chain_control_sets.s": (9.0, "s"),
        "trace.traced_s": (9.0, "s"),
        "sldr.split_part.calls": (99.0, "count"),
    }
    assert run.largest_span(m) == "sldr.verify_rates.s+sldr.determinant_formula_residuals.s"


def _stages(**spans: float) -> dict:
    return {name.replace("__", "."): {"s": s, "self_s": s, "calls": 2} for name, s in spans.items()}


def test_layer_metrics_time_idle_stages_on_the_probe_only():
    traced = {
        "wall_s": 3.0,
        "iwasawa_us": 10.0,
        "own": {"stages": _stages(sldr__verify_rates=2.0), "counters": {}},
        "probe": {
            "stages": _stages(sldr__verify_rates=0.5, sldr__cocycle_sample=0.25),
            "counters": {"sldr.cocycle_sample.steps": 1000},
        },
    }
    entries = [{"verify": [600, 40]}]
    m, probed = run.layer_metrics({"wall_s": 2.5}, traced, entries)
    assert m["sldr.verify_rates.s"] == (2.0, "s")  # own span, probe not added
    assert m["sldr.verify_rates.calls"] == (2, "count")
    assert m["sldr.cocycle_sample.s"] == (0.25, "s")  # idle here: probe's span
    assert m["sldr.cocycle_sample.us_per_step"] == (250.0, "us")
    assert m["sldr.cocycle_sample.steps"] == (0, "count")  # counts stay own
    assert m["verify.checks"] == (600, "count") and m["verify.checks_failed"] == (40, "count")
    assert m["trace.overhead_s"] == (0.5, "s")
    assert "sldr.cocycle_sample.s" in probed and "sldr.verify_rates.s" not in probed


def test_reference_job_builds_the_group():
    assert len(ref.symmetric_group(4)) == 24
    assert len(ref.symmetric_group(ref.N)) == ref.ORDER
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "ref.py")], timeout=60)
    assert proc.returncode == 0


def test_median():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "flagbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_untraced(workload):
    proc = _run(["--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _bench_spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["environment"]["nproc"] >= 1
    assert set(detail["environment"]["blas_env_children"].values()) == {"1"}
    for p in detail["passes"]:
        # a reference run before, between and after the ops; each op is
        # divided by the mean of its two neighbours
        refs = p["refs_s"]
        assert len(refs) == len(p["op_s"]) + 1
        expected = sum(op * 2 / (a + b) for op, a, b in zip(p["op_s"], refs, refs[1:]))
        assert p["pass_ref"] == pytest.approx(expected)
        assert p["wall_s"] == pytest.approx(sum(p["op_s"]))


def test_smoke_run_traced_reports_every_layer_metric():
    proc = _run(["--workload", "verify", "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout.splitlines()[-2]
    spec = {m["name"]: m["unit"] for m in _bench_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # every stage time is measured, on the probe where verify never calls it
    assert all(v > 0 for k, v in values.items() if k.endswith(".s"))
    # counts are verify's own
    assert values["sldr.verify_rates.calls"] > 0
    assert values["sldr.cocycle_sample.steps"] == 0
    assert values["verify.checks"] > 0
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert "sldr.cocycle_sample.s" in detail["timed_on_probe"]
    assert "sldr.verify_rates.s" not in detail["timed_on_probe"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "flagbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "records", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
