"""Benchmark of ``portview report`` on seeded workloads.

    python3 perfbench/run.py --workload exact-m100 --seed 1 --seconds 36 --trace 0

Run from anywhere; it works in the checkout that holds this directory and
reads and writes nothing outside it (scratch files go to ``.perfbench_work``).
``--trace 0`` times ``portview report`` children and prints the end-to-end
metrics; ``--trace 1`` runs the pipeline in-process under span recording and
prints the per-layer metrics. ``--workload`` takes a comma-separated list and
defaults to every benchmark workload. For each workload the last line printed
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its sample count.
Exits 1 if an output is wrong, 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program() -> None:
    """Put the checkout's own ``src`` first on the path, or exit 2 without a result."""
    if not (SRC / "portview" / "cli.py").is_file():
        print(f"error: {SRC / 'portview'} not found; run inside a portview checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import portview

    if Path(portview.__file__).resolve().parent != SRC / "portview":
        print(f"error: imported portview from {portview.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="comma-separated; default: every benchmark workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_program()
    os.chdir(ROOT)
    import bench

    names = args.workload.split(",") if args.workload else bench.BENCHMARK_WORKLOADS
    unknown = [n for n in names if n not in bench.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(bench.WORKLOADS)}")
    measure = bench.measure_layers if args.trace else bench.measure_end_to_end
    correct = True
    for name in names:
        result = measure(bench.WORKLOADS[name], args.seed, args.seconds)
        for note in result.notes:
            print(note)
        print(result.line(), flush=True)
        correct = correct and result.correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
