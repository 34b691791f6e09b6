"""Run one command and print its own wall time, CPU time and peak RSS as JSON.

    python3 perfbench/launch.py LOG TIMEOUT_S -- COMMAND [ARG ...]

The command's output goes to LOG. CPU time and peak RSS come from
``os.wait4`` on that one child. Linux carries the starting process's peak RSS
into the child's ``ru_maxrss`` across vfork and exec, so the benchmark starts
each timed child through this small process instead of from itself: the
benchmark holds the generated datasets and its peak would hide the child's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, timeout_s: float) -> dict:
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=sink)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
    }


if __name__ == "__main__":
    log, timeout_s, sep, *command = sys.argv[1:]
    if sep != "--" or not command:
        sys.exit(__doc__)
    print(json.dumps(run(command, log, float(timeout_s))))
