"""flagctrl benchmark: run one workload's CLI ops and print metrics.

    python3 flagbench/run.py --workload records --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` times passes over the workload's op list, each op a fresh
``python -m flagctrl.cli`` process, one at a time (a closed loop with one
client), each after a run of the fixed reference job ref.py; a pass is
reported as a multiple of the reference's time.  ``--trace 1`` runs the ops in process, once plain and once with
spans around each layer (tracer.py).  Every output is checked by a child
process after the timing (checks.py).  The last stdout line is the result
object; the line before it holds the details and the environment.  See
README.md in this directory.

This process imports nothing heavy: a child's max-RSS as ``wait4`` reports
it never reads below the parent's own peak RSS at spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
REF = os.path.join(HERE, "ref.py")
SETUP_REPS = 3
IMPORT_REPS = 3
OPS_LIMIT_S = 140.0  # no op starts, and every op is killed, this long into a run
CHECK_LIMIT_S = 30.0  # for the checker child, which runs after the ops
# Every child gets one BLAS thread: on a few shared cores a second thread
# spinning on tiny matrices measures the host's scheduler, not the program.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
IMPORTS = {
    "import.python_s": "pass",
    "import.numeric_deps_s": "import numpy, scipy.linalg",
    "import.flagctrl_cli_s": "import flagctrl.cli",
}


def median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


class Bench:
    """One benchmark run: its clock, work directory, inputs and the ops
    whose outputs wait for the checker."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.start = time.perf_counter()
        self.work = os.path.join(ROOT, ".flagbench", f"run-{os.getpid()}")
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env.update(dict.fromkeys(BLAS_VARS, "1"))
        self.seeds: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.pending: list[dict] = []  # manifest entries for checks.py
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, args: list[str], out: str, err: str, limit: float = OPS_LIMIT_S) -> dict:
        """Run ``python <args>`` with stdout and stderr to files and wait
        for it; it is killed once the run is ``limit`` seconds old."""
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        fired = threading.Event()
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)

        def kill() -> None:
            fired.set()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # reaped just before the timer was cancelled

        timer = threading.Timer(max(1.0, limit - self.elapsed()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
            timer.join()
        return {
            "rc": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - t0,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "timed_out": fired.is_set(),
        }

    def setup(self) -> float:
        """Write the seeded system files, load the reference digests and
        import flagctrl.cli once in a child; return the seconds taken."""
        t0 = time.perf_counter()
        self.seeds = workloads.write_inputs(self.work, self.seed)
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)
        child = self.spawn(["-c", "import flagctrl.cli"], os.devnull, os.devnull)
        if child["rc"] != 0:
            raise RuntimeError("flagbench: warm-up `import flagctrl.cli` failed")
        return time.perf_counter() - t0

    def argv(self, op: workloads.Op) -> list[str]:
        return workloads.expand(op, self.work, self.seeds)

    def queue_check(self, op: workloads.Op, outdir: str, rc: int, timed_out: bool) -> dict:
        """Queue one op's output for the checker."""
        entry = {
            "id": op.id,
            "kind": op.kind,
            "argv": self.argv(op),
            "rc": rc,
            "timed_out": timed_out,
            "out": os.path.join(outdir, f"{op.id}.out"),
            "err": os.path.join(outdir, f"{op.id}.err"),
        }
        self.pending.append(entry)
        return entry

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_pending(self) -> None:
        """Check every queued output in one child; store each entry's
        ``verify`` counts and count attempted and failed ops."""
        path = os.path.join(self.work, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"digests": self.digests, "ops": self.pending}, fh)
        limit = self.elapsed() + CHECK_LIMIT_S
        child = self.spawn([os.path.join(HERE, "checks.py"), path], path + ".out", path + ".err", limit)
        try:
            with open(path + ".out", encoding="utf-8") as fh:
                results = json.load(fh) if child["rc"] == 0 else None
        except ValueError:
            results = None
        self.attempted += len(self.pending)
        if results is None:
            self.fail(f"checker child failed (exit {child['rc']})", len(self.pending))
            return
        for entry, result in zip(self.pending, results):
            entry["verify"] = result["verify"]
            if result["problems"]:
                self.fail(f"{entry['id']}: " + "; ".join(result["problems"]))


def run_reference(bench: Bench) -> float:
    """Wall time of one run of the reference job in a child."""
    ref = bench.spawn([REF], os.devnull, os.devnull)
    if ref["rc"] != 0:
        raise RuntimeError(f"flagbench: the reference job failed (exit {ref['rc']})")
    return ref["wall_s"]


def run_pass(bench: Bench, ops: tuple, index: int) -> dict:
    """One pass: each op in turn, with a run of the reference job before
    the first op, between ops and after the last.  The pass takes its ops'
    wall time, and ``pass_ref``: the sum over ops of the op's wall time as
    a multiple of the mean of the reference runs just before and after it.
    Outputs stay on disk for the checker."""
    outdir = os.path.join(bench.work, f"pass-{index}")
    os.makedirs(outdir)
    children, refs = [], [run_reference(bench)]
    for op in ops:
        if bench.elapsed() > OPS_LIMIT_S:
            break
        out, err = os.path.join(outdir, f"{op.id}.out"), os.path.join(outdir, f"{op.id}.err")
        children.append(bench.spawn(["-m", "flagctrl.cli", *bench.argv(op)], out, err))
        refs.append(run_reference(bench))
    wall = sum(c["wall_s"] for c in children)
    pass_ref = sum(c["wall_s"] * 2.0 / (a + b) for c, a, b in zip(children, refs, refs[1:]))
    entries = [bench.queue_check(op, outdir, c["rc"], c["timed_out"]) for op, c in zip(ops, children)]
    for op in ops[len(children) :]:
        bench.attempted += 1
        bench.fail(f"{op.id}: not started, the run passed {OPS_LIMIT_S:.0f} s")
    return {
        "wall_s": wall,
        "ref_s": sum(refs) / len(refs),
        "refs_s": refs,
        "pass_ref": pass_ref,
        "op_s": [c["wall_s"] for c in children],
        "peak_rss_mb": max((c["maxrss_mb"] for c in children), default=0.0),
        "child_cpu_s": sum(c["cpu_s"] for c in children),
        "entries": entries,
    }


def measure_untraced(bench: Bench, ops: tuple, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup() for _ in range(SETUP_REPS)]
    t0 = time.perf_counter()
    passes: list[dict] = []
    longest = 0.0  # the longest pass so far, its reference runs included
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(bench, ops, len(passes)))
        longest = max(longest, time.perf_counter() - p0)
        if time.perf_counter() - t0 + longest > seconds or bench.elapsed() + longest > OPS_LIMIT_S:
            break
    bench.check_pending()
    for p in passes:
        p["verify_checks_failed"] = sum(e["verify"][1] for e in p.pop("entries") if e.get("verify"))
    metrics = {
        "pass_ref": (median([p["pass_ref"] for p in passes]), "x"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "setup_s": (median(setups), "s"),
    }
    detail = {
        "n": len(passes),
        "pass_s": median([p["wall_s"] for p in passes]),
        "ref_s": median([p["ref_s"] for p in passes]),
        "verify_checks_failed": median([p["verify_checks_failed"] for p in passes]),
        "passes": passes,
        "setups_s": setups,
    }
    return metrics, detail


def traced_child(bench: Bench, ops: tuple, probe: tuple, traced: bool, index: int) -> tuple[dict | None, list]:
    """Run tracer.py once; queue every output for the checker and return
    the entries of the workload's own ops."""
    outdir = os.path.join(bench.work, f"{'traced' if traced else 'plain'}-{index}")
    os.makedirs(outdir)
    req = {
        "ops": [[op.id, bench.argv(op)] for op in ops],
        "probe": [[op.id, bench.argv(op)] for op in probe],
        "out": outdir,
        "traced": traced,
        "seed": bench.seed,
    }
    path = os.path.join(outdir, "request.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(req, fh)
    child = bench.spawn([os.path.join(HERE, "tracer.py"), path], path + ".out", path + ".err")
    ran = ops + probe if traced else ops
    try:
        with open(path + ".out", encoding="utf-8") as fh:
            doc = json.load(fh) if child["rc"] == 0 else None
    except ValueError:
        doc = None
    if doc is None:
        bench.attempted += len(ran)
        bench.fail(f"trace child failed (exit {child['rc']}, traced={traced})", len(ran))
        return None, []
    entries = [bench.queue_check(op, outdir, doc["rc"][op.id], child["timed_out"]) for op in ran]
    return doc, entries[: len(ops)]


def layer_metrics(plain: dict, traced: dict, verify_entries: list) -> tuple[dict[str, tuple[float, str]], set[str]]:
    """Per-layer metrics of one round, one plain and one traced child, and
    the names of those timed on the probe.

    A stage the workload's ops never call is timed on the probe, so that no
    time reads a constant 0; its counts stay the workload's own, 0.
    """
    own, probe = traced["own"], traced["probe"]
    m: dict[str, tuple[float, str]] = {}
    probed: set[str] = set()

    def timed(key: str, name: str, field: str = "s", per: str | None = None) -> None:
        """Seconds of ``field`` of stage ``name``; with ``per``, microseconds
        per call (``per="calls"``) or per unit of that counter."""
        side = own if name in own["stages"] else probe
        if side is probe:
            probed.add(key)
        stage = side["stages"].get(name, {})
        seconds = stage.get(field, 0.0)
        if per is None:
            m[key] = (seconds, "s")
        else:
            n = stage.get("calls", 0) if per == "calls" else side["counters"].get(per, 0)
            m[key] = (seconds / max(1, n) * 1e6, "us")

    def count(key: str, value: float) -> None:
        m[key] = (value, "count")

    for cmd in ("analyze", "cosets", "verify", "simulate"):
        timed(f"cli.{cmd}.self_s", f"cli.{cmd}", "self_s")
    for name in ("rootsys.build_root_system", "weyl.generate", "weyl.double_cosets"):
        timed(f"{name}.s", name)
    for name in ("weyl.generate.elements", "weyl.double_cosets.cosets"):
        count(name, own["counters"].get(name, 0))
    timed("weyl.double_cosets.us_per_element", "weyl.double_cosets", per="weyl.double_cosets.elements")
    enum = "flagcalc.enumerate_chain_control_sets"
    timed(f"{enum}.s", enum)
    timed("flagcalc.records.self_s", enum, "self_s")
    for name in ("flagcalc.records", "flagcalc.records.hyperbolic"):
        count(name, own["counters"].get(name, 0))
    timed("flagcalc.record_us", enum, "self_s", per="flagcalc.records")
    for fname in ("load_system", "split_part", "fixed_flags", "determinant_formula_residuals", "verify_rates"):
        name = f"sldr.{fname}"
        timed(f"{name}.s", name)
        count(f"{name}.calls", own["stages"].get(name, {}).get("calls", 0))
        timed(f"{name}.us_per_call", name, per="calls")
    m["sldr.iwasawa.us_per_call"] = (traced["iwasawa_us"], "us")
    for fname in ("random_signal", "cocycle_sample", "cocycle_to_csv", "flag_type_diagnostic"):
        timed(f"sldr.{fname}.s", f"sldr.{fname}")
    count("sldr.cocycle_sample.steps", own["counters"].get("sldr.cocycle_sample.steps", 0))
    timed("sldr.cocycle_sample.us_per_step", "sldr.cocycle_sample", per="sldr.cocycle_sample.steps")
    verify = [e["verify"] for e in verify_entries if e.get("verify")]
    count("verify.checks", sum(v[0] for v in verify))
    count("verify.checks_failed", sum(v[1] for v in verify))
    m["trace.untraced_s"] = (plain["wall_s"], "s")
    m["trace.traced_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return m, probed


def import_times(bench: Bench) -> dict[str, list[float]]:
    """Wall time of a fresh interpreter running each import; the three
    kinds interleaved, IMPORT_REPS times."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_REPS):
        for name, code in IMPORTS.items():
            samples[name].append(bench.spawn(["-c", code], os.devnull, os.devnull)["wall_s"])
    return samples


def measure_traced(bench: Bench, ops: tuple, seconds: float) -> tuple[dict, dict]:
    bench.setup()
    imports = import_times(bench)
    probe = tuple(op for op in workloads.PROBE if op not in ops)
    t0 = time.perf_counter()
    rounds = []
    while True:
        r0 = time.perf_counter()
        plain, _ = traced_child(bench, ops, probe, False, len(rounds))
        traced, entries = traced_child(bench, ops, probe, True, len(rounds))
        if plain is None or traced is None:
            break
        rounds.append((plain, traced, entries))
        took = time.perf_counter() - r0
        if time.perf_counter() - t0 + took > seconds or bench.elapsed() + took > OPS_LIMIT_S:
            break
    bench.check_pending()
    per_round = [layer_metrics(*r) for r in rounds]
    probed = set().union(*(p for _, p in per_round))
    metrics = {name: (median(values), "s") for name, values in imports.items()}
    for name in per_round[0][0] if per_round else ():
        metrics[name] = (median([m[name][0] for m, _ in per_round]), per_round[0][0][name][1])
    own = {name: value for name, value in metrics.items() if name not in probed}
    detail = {
        "n": len(per_round),
        "largest_span": largest_span(own),
        "timed_on_probe": sorted(probed),
        "imports_s": imports,
    }
    return metrics, detail


# The spans compared for "where the time goes": enumerate is split into its
# double_cosets child and its own record work, and verify's two per-record
# checks count together, since both nest the same split and fixed flags.
VERIFY_PAIR = ("sldr.verify_rates.s", "sldr.determinant_formula_residuals.s")


def largest_span(metrics: dict[str, tuple[float, str]]) -> str:
    spans = {
        name: value
        for name, (value, unit) in metrics.items()
        if unit == "s" and name not in VERIFY_PAIR and not name.startswith(("import.", "trace.", "flagcalc.enumerate"))
    }
    spans["+".join(VERIFY_PAIR)] = sum(metrics.get(name, (0.0,))[0] for name in VERIFY_PAIR)
    return max(spans, key=spans.get)


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    parent_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Imported here, after the last child has exited, to keep the parent
    # small while it spawns.
    import platform
    from importlib import metadata

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env_inherited": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas_env_children": {var: "1" for var in BLAS_VARS},
        "parent_maxrss_mb": parent_maxrss_mb,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flagctrl benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="the workload's tiny op list, for tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flagctrl", "cli.py")):
        print(f"flagbench: no flagctrl sources under {ROOT}/src", file=sys.stderr)
        return 2
    bench = Bench(args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(bench.work)
    try:
        ops = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
        measure = measure_traced if args.trace else measure_untraced
        metrics, detail = measure(bench, ops, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass  # another run still uses it
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        attempted=bench.attempted,
        failed=bench.failed,
        fail_ratio=bench.failed / max(1, bench.attempted),
        problems=bench.problems,
        environment=environment(),
    )
    print(json.dumps(detail))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
