"""Self-checks of the benchmark itself, at tiny scale (about half a minute).

Usage: python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, prints a result line whose
   metric names and units are exactly those declared in BENCHMARK.json.
2. The correctness gate is live: a reference perturbed beyond the
   tolerance makes the run fail with exit code 1, and one perturbed
   within it does not.
3. A directory holding only BENCHMARK.json and perfbench/ (no sources)
   makes the benchmark exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checkout
import run
import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args: list[str], cwd: Path = checkout.ROOT, script: Path | None = None):
    script = script or checkout.BENCH_DIR / "run.py"
    done = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, result, err = _run(
                ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace),
                 "--scale", "tiny"]
            )
            where = f"{name} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{where}: exit {rc}, stderr {err[-500:]}")
                continue
            if set(result) != RESULT_KEYS or not result["correct"] or result["failed"]:
                problems.append(f"{where}: bad result header {sorted(result)}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            for k, v in result["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    problems.append(f"{where}: {k} = {v['value']!r} is not a finite number")
            print(f"ok   names and units: {where}", flush=True)
    return problems


def check_gate_is_live(tmp: Path) -> list[str]:
    problems = []
    base = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    for shift, want_rc in ((10 * run.TOLERANCE, 1), (0.5 * run.TOLERANCE, 0)):
        refs = json.loads(json.dumps(base))
        refs["values"]["tiny"]["fig1_walks"]["local"]["slope"] += shift
        path = tmp / f"references-shift{shift:g}.json"
        path.write_text(json.dumps(refs), encoding="utf-8")
        rc, result, _ = _run(
            ["--workload", "fig1_walks", "--seconds", "0", "--scale", "tiny",
             "--references", str(path)]
        )
        gated = result is not None and result["correct"] == (want_rc == 0)
        if rc != want_rc or not gated:
            problems.append(f"reference shifted by {shift:g}: exit {rc}, result {result}")
        print(f"ok   reference shifted by {shift:g} gives exit {rc}", flush=True)
    return problems


def check_bare_directory(tmp: Path) -> list[str]:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy2(checkout.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(checkout.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = _run(["--workload", "fig1_walks", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, script=bare / "perfbench" / "run.py")
    if rc == 0 or result is not None:
        return [f"bare directory: exit {rc}, result {result}"]
    print(f"ok   bare directory gives exit {rc} and no result", flush=True)
    return []


def main() -> int:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_metric_names(spec)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=checkout.ROOT) as tmp:
        problems += check_gate_is_live(Path(tmp))
        problems += check_bare_directory(Path(tmp))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
