"""Strict check of the benchmark's result line on every workload.

    python3 .github/check_bench_line.py [WORKLOAD ...]

For each workload of BENCHMARK.json (or the ones named), runs

    python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1

and fails unless the run exits 0, its stderr holds no traceback, and the
last stdout line is strict JSON (NaN and Infinity rejected) whose metrics
carry every per_layer name of BENCHMARK.json as a finite number.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


def check(workload: str, names: list[str]) -> list[str]:
    """The problems of one traced run, empty when there are none."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if "Traceback" in proc.stderr:
        problems.append("traceback on stderr:\n" + proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        metrics = json.loads(lines[-1], parse_constant=_reject)["metrics"]
    except (IndexError, ValueError, KeyError, TypeError) as e:
        return problems + [f"last stdout line is not a strict result line: {e!r}"]
    for name in names:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: {value!r} is not a finite number")
    return problems


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    failed = False
    for workload in argv or [w["name"] for w in bench["workloads"]]:
        problems = check(workload, names)
        print(f"{workload}: {'ok' if not problems else 'FAILED'} ({len(names)} metrics)")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
