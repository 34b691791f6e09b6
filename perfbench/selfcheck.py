"""Self-check of the benchmark harness on the 3-solver x 5-instance ``tiny`` workload.

    python3 perfbench/selfcheck.py

Runs ``run.py`` on ``tiny`` in both modes, which drives every report stage,
and checks that each run is correct and emits exactly the metrics that
BENCHMARK.json lists for that mode, each with its unit. Exits 1 on a mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def check(trace: int, listed: list[dict]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"--trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"--trace {trace}: run not correct: {proc.stdout}")
    expected = {m["name"]: m["unit"] for m in listed}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        problems.append(f"--trace {trace}: metrics {emitted} != BENCHMARK.json {expected}")
    return problems


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    problems = check(0, spec["end_to_end"]) + check(1, spec["per_layer"])
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
