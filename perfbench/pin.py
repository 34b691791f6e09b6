"""Record each workload variant's bundle digest and shape facts in pins.json.

    python3 perfbench/pin.py [WORKLOAD ...]

Every benchmark run checks its bundles against these pins, so rewrite them
only for a deliberate change of a generator or of the report format, never
to make a run pass. A variant is pinned only if its untraced and traced
bundles agree and the exact invariants hold.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, require_program


def main(names: list[str]) -> int:
    require_program()
    os.chdir(ROOT)
    import bench

    pins = bench.load_pins() if bench.PINS.exists() else {}
    for name in names or list(bench.WORKLOADS):
        workload = bench.WORKLOADS[name]
        entries = []
        for variant in range(bench.VARIANTS):
            bench.setup(workload, variant)
            metrics, tracer, plain, traced, roundtrip = bench.traced_pass(workload)
            problems = bench.check_invariants(tracer, workload.mode)
            if plain != traced or not roundtrip or problems:
                print(f"{name} variant {variant}: not pinned: {problems}", file=sys.stderr)
                return 1
            shape = bench.shape_facts(tracer, metrics)
            entries.append({"digest": plain, "shape": shape})
            print(f"{name} variant {variant}: {plain[:12]} {shape}", flush=True)
        pins[name] = entries
        bench.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
