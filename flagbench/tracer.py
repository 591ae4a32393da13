"""In-process run of one op list, plain or with spans around each layer.

    python flagbench/tracer.py REQUEST.json

REQUEST.json holds {"ops": [[id, argv], ...], "probe": [[id, argv], ...],
"out": dir, "traced": bool, "seed": int}.  Each op is ``cli.main(argv)``
with stdout and stderr captured; both are written to ``<out>/<id>.out`` and
``<out>/<id>.err`` after the timed loop.  Prints one JSON object: the wall
time of the ops (probe excluded), each op's exit code and, when traced, the
stage spans and counters of the ops (``own``) and, apart from them, of the
probe (``probe``), plus the Iwasawa microbenchmark.  The probe is the smoke
ops of the other workloads; run.py reads a stage's time from it only where
the workload's own ops never call that stage.

Spans come from this file, not from the program: the public functions in
``STAGES`` are replaced, in every flagctrl module that holds them, by
wrappers that record a span per call, so nested calls (``split_part`` inside
``verify_rates``) are counted too.  A stage's self time is its span minus the
spans directly under it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time

import flagctrl
from flagctrl import cli, flagcalc, rootsys, sldr, weyl

MODULES = (flagctrl, cli, flagcalc, rootsys, sldr, weyl)
STAGES = (
    (rootsys, "build_root_system"),
    (weyl, "generate"),
    (weyl, "double_cosets"),
    (flagcalc, "enumerate_chain_control_sets"),
    (sldr, "load_system"),
    (sldr, "split_part"),
    (sldr, "fixed_flags"),
    (sldr, "determinant_formula_residuals"),
    (sldr, "verify_rates"),
    (sldr, "random_signal"),
    (sldr, "cocycle_sample"),
    (sldr, "cocycle_to_csv"),
    (sldr, "flag_type_diagnostic"),
)
# Counters read from a stage's arguments and result: (args, result) -> counts.
COUNTERS = {
    "weyl.generate": lambda a, res: {"weyl.generate.elements": res.order},
    "weyl.double_cosets": lambda a, res: {
        "weyl.double_cosets.cosets": len(res),
        "weyl.double_cosets.elements": a[0].order,
    },
    "flagcalc.enumerate_chain_control_sets": lambda a, res: {
        "flagcalc.records": len(res),
        "flagcalc.records.hyperbolic": sum(r.hyperbolic for r in res),
    },
    "sldr.cocycle_sample": lambda a, res: {
        "sldr.cocycle_sample.steps": round(abs(a[2]) / a[0].integrator.dt)
    },
}
IWASAWA_BATCH = 1000


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def reset(self) -> None:
        self.spans, self.stack, self.counters = [], [], {}

    def report(self) -> dict:
        return {"stages": self.stages(), "counters": self.counters}

    def count(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def stages(self) -> dict[str, dict[str, float]]:
        """Per name: inclusive seconds (outermost spans of that name only),
        self seconds and call count."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child_s[i]
            if not self._under(parent, name):
                agg["s"] += end - start
        return out

    def _under(self, idx: int | None, name: str) -> bool:
        while idx is not None:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def install(tracer: Tracer) -> None:
    for mod, fname in STAGES:
        original = getattr(mod, fname, None)
        if original is None:
            continue  # a later program without this stage: its metrics read 0
        name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
        wrapper = _wrap(tracer, name, original, COUNTERS.get(name))
        for holder in MODULES:
            if getattr(holder, fname, None) is original:
                setattr(holder, fname, wrapper)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(counter(args, result))
        return result

    return wrapper


def run_op(argv: list[str], tracer: Tracer | None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def iwasawa_us_per_call(seed: int) -> float:
    import numpy as np

    rng = np.random.default_rng(seed)
    batch = [sldr.random_unimodular(rng, 5) for _ in range(IWASAWA_BATCH)]
    start = time.perf_counter()
    for g in batch:
        sldr.iwasawa(g)
    return (time.perf_counter() - start) / IWASAWA_BATCH * 1e6


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    tracer = Tracer() if req["traced"] else None
    if tracer:
        install(tracer)
    results = {}
    start = time.perf_counter()
    for op_id, op_argv in req["ops"]:
        results[op_id] = run_op(op_argv, tracer)
    wall = time.perf_counter() - start
    doc: dict = {"wall_s": wall}
    if tracer:
        doc["own"] = tracer.report()
        tracer.reset()
        for op_id, op_argv in req["probe"]:
            results[op_id] = run_op(op_argv, tracer)
        doc["probe"] = tracer.report()
        doc["iwasawa_us"] = iwasawa_us_per_call(req["seed"])
    doc["rc"] = {op_id: rc for op_id, (rc, _, _) in results.items()}
    for op_id, (_, out, err) in results.items():
        for suffix, text in ((".out", out), (".err", err)):
            with open(os.path.join(req["out"], op_id + suffix), "w", encoding="utf-8") as fh:
                fh.write(text)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
