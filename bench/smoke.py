"""Smoke test of the verdict benchmark: one pass over every workload's input pool.

Run from the repository root:

    python3 bench/smoke.py

For each workload, in both trace modes, it checks that the result line has
every metric named in BENCHMARK.json with its unit, that the run is correct,
that every negative control failed, and that no verdict was wrong.  The one
exception is ``float-tol``: float verdicts of true identities that exceed
their absolute tolerance are counted, not failed on, because the program
produces some at baseline.  Finally it checks that the benchmark refuses to
run, without a result line, when the sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result, records = lines[-1], lines[:-1]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        metric = got.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name}: {metric}")
    controls = [c for r in records if "controls" in r for c in r["controls"]]
    if not controls or not all(c["ok"] for c in controls):
        problems.append(f"controls not all rejected: {controls}")
    wrong = [r["wrong"] for r in records if "wrong" in r]
    problems += [f"wrong verdict: {w}" for w in wrong if w["kind"] != "float-tol"]
    if bool(result.get("failed")) != bool(wrong):
        problems.append(f"failed={result.get('failed')} but {len(wrong)} wrong verdicts listed")
    return problems


def check_without_sources() -> list[str]:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), WORKLOADS[0], 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or '"correct"' in last[0]:
        return [f"ran without sources: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
    problems = check_without_sources()
    failures += bool(problems)
    print(f"without sources: {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
