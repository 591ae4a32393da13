"""Output checks behind ``failed``.  Each check returns a list of problems,
empty when the output is correct.

Run as a child process after the timed passes, so that hashing, parsing and
the simulate oracle never grow the benchmark's parent (see workloads.py):

    python flagbench/checks.py MANIFEST.json

MANIFEST.json holds {"digests": {op id: sha256}, "ops": [{"id", "kind",
"argv", "rc", "timed_out", "out", "err"}, ...]}.  stdout is a JSON list, one
{"problems": [...], "verify": [checks, failed] or null} per op.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass

# Largest absolute difference allowed between a simulate CSV value and the
# oracle (one expm and one QR per control period).  RK4 at dt = 1e-3 against
# expm agrees to about 1e-9 on the d = 5 and d = 6 systems over T = 50; the
# defects this must catch (a wrong period, step or sign) differ by more than
# 1e-3.
ORACLE_ATOL = 1e-6

_VERIFY_SUMMARY = re.compile(r"^verify: (\d+)/(\d+) checks passed$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(op_id: str, stdout: bytes, digests: dict[str, str]) -> list[str]:
    want = digests.get(op_id)
    if want is None:
        return ["no reference digest recorded"]
    got = sha256(stdout)
    return [] if got == want else [f"stdout sha256 {got[:12]} != reference {want[:12]}"]


def exact_invariants(text: str) -> list[str]:
    """Invariants read from analyze or cosets output, json or text.

    analyze: exactly one attractor and one repeller, and the record count
    in the header matches the records listed.  cosets: the coset sizes sum
    to the group order.
    """
    if text.startswith("{"):
        doc = json.loads(text)
        if "records" in doc:
            flags = [(r["attractor"], r["repeller"]) for r in doc["records"]]
            return _unique_ends(sum(a for a, _ in flags), sum(r for _, r in flags))
        return _sizes_sum(doc["order"], [c["size"] for c in doc["cosets"]])
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) == 4 and head[2] == "order":
        sizes = [int(line.rsplit(" ", 1)[1]) for line in lines if line.startswith("rep ")]
        return _sizes_sum(int(head[3]), sizes)
    reps = [line for line in lines if line.startswith("rep ")]
    declared = [int(line.split()[1]) for line in lines if line.startswith("records ")]
    problems = [] if declared == [len(reps)] else [f"header says {declared} records, {len(reps)} listed"]
    tags = [line[line.rfind("[") :] for line in reps if line.endswith("]")]
    return problems + _unique_ends(
        sum("attractor" in t for t in tags), sum("repeller" in t for t in tags)
    )


def _unique_ends(attractors: int, repellers: int) -> list[str]:
    if attractors == 1 and repellers == 1:
        return []
    return [f"{attractors} attractors and {repellers} repellers, expected one each"]


def _sizes_sum(order: int, sizes: list[int]) -> list[str]:
    if sizes and sum(sizes) == order:
        return []
    return [f"coset sizes sum to {sum(sizes)}, group order is {order}"]


@dataclass(frozen=True)
class VerifySummary:
    passed: int  # lines ending in "-> PASS"
    failed: int  # lines ending in "-> FAIL"
    reported: tuple[int, int] | None  # (k, n) from "verify: k/n checks passed"


def parse_verify(text: str) -> VerifySummary:
    lines = text.splitlines()
    match = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    return VerifySummary(
        passed=sum(line.endswith("-> PASS") for line in lines),
        failed=sum(line.endswith("-> FAIL") for line in lines),
        reported=(int(match.group(1)), int(match.group(2))) if match else None,
    )


def check_verify(rc: int, text: str) -> list[str]:
    """verify exits 0 exactly when no line FAILs, and its summary counts
    the PASS and FAIL lines.  A FAIL line is a finding of verify, not a
    failed op."""
    s = parse_verify(text)
    problems = []
    if s.reported != (s.passed, s.passed + s.failed):
        problems.append(f"summary {s.reported} does not match {s.passed} PASS and {s.failed} FAIL lines")
    if rc != (1 if s.failed else 0):
        problems.append(f"exit code {rc} with {s.failed} FAIL lines")
    return problems


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a simulate CSV."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("CSV row width differs from its header")
    return header, rows


def check_simulate_shape(stdout: str, stderr: str) -> list[str]:
    """The CSV parses, has columns t,a1..ad, and agrees with the row count
    and dimension simulate reports on stderr."""
    try:
        header, rows = parse_csv(stdout)
        info = json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return [f"unreadable simulate output: {exc}"]
    want = ["t"] + [f"a{i + 1}" for i in range(info.get("dim", 0))]
    problems = [] if header == want else [f"CSV header {header[:3]}... for dim {info.get('dim')}"]
    if len(rows) != info.get("n_rows"):
        problems.append(f"{len(rows)} CSV rows, stderr reports {info.get('n_rows')}")
    return problems


def check_oracle(report: dict) -> list[str]:
    """Judge the oracle's comparison of one simulate CSV."""
    if report.get("error"):
        return [f"oracle: {report['error']}"]
    if report["boundaries"] < 1:
        return ["oracle: no control period boundary found in the CSV"]
    if not report["max_abs_err"] <= ORACLE_ATOL:
        return [f"oracle: max abs error {report['max_abs_err']:.3e} > {ORACLE_ATOL:.0e}"]
    return []


def oracle_request(argv: list[str]) -> tuple[str, int, float, float]:
    """System file, control seed, horizon and period of a simulate argv."""

    def arg(flag: str, default: str | None = None) -> str:
        return argv[argv.index(flag) + 1] if flag in argv else default

    return arg("--spec"), int(arg("--seed", "0")), float(arg("--T", "10")), float(arg("--period", "0.1"))


def check_op(entry: dict, digests: dict[str, str], oracle_cache: dict[str, dict]) -> dict:
    """Problems of one op's output, and its verify check counts."""
    with open(entry["out"], "rb") as fh:
        stdout = fh.read()
    with open(entry["err"], encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    text = stdout.decode("utf-8", errors="replace")
    rc, kind = entry["rc"], entry["kind"]
    verify = None
    if entry["timed_out"]:
        return {"problems": ["timed out"], "verify": verify}
    try:
        if kind == "exact":
            problems = check_digest(entry["id"], stdout, digests)
            problems += exact_invariants(text) if rc == 0 else [f"exit code {rc}"]
        elif kind == "verify":
            problems = check_verify(rc, text)
            s = parse_verify(text)
            verify = [s.passed + s.failed, s.failed]
        else:
            problems = check_simulate_shape(text, stderr) if rc == 0 else [f"exit code {rc}"]
            if not problems:
                digest = sha256(stdout)
                if digest not in oracle_cache:
                    import oracle  # numpy and scipy, only where simulate ran

                    oracle_cache[digest] = oracle.check(text, *oracle_request(entry["argv"]))
                problems = check_oracle(oracle_cache[digest])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return {"problems": problems, "verify": verify}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    cache: dict[str, dict] = {}
    print(json.dumps([check_op(entry, manifest["digests"], cache) for entry in manifest["ops"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
