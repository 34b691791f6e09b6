"""A fixed reference computation that sets the benchmark's unit of time.

    python3 perfbench/reference.py

The benchmark runs this script as a child next to every timed ``portview
report`` child and divides the program's times by its time, so the figures it
reports do not move with the speed the shared machine happens to give the
run. The script never imports ``portview``, so no change to the program moves
it. It does the kinds of work ``report`` does, in the same interpreter: it
builds and sorts twelve thousand small records, sums exact rationals,
enumerates the coalitions of a small game, and divides big rationals out to
a fixed number of digits. It takes about 0.5 s on one 2-vCPU share of an
Intel Xeon host. It checks its own result and exits 1 if it differs, so
that it always does the same work.

Do not change it: every figure the benchmark has reported is in units of it.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction
from math import factorial

EXPECTED = "a51baa6c97b0"  # first 12 hex digits of the result digest


def records(rng: random.Random, n_solvers: int, n_instances: int) -> list[tuple]:
    """Seeded (solver, instance, status, time) rows on a millisecond grid."""
    rows = []
    for i in range(n_instances):
        for j in range(n_solvers):
            status = rng.choice(("complete", "incomplete", "unsolved"))
            rows.append((f"s{j:02d}", f"i{i:04d}", status, Fraction(rng.randint(1, 60000), 1000)))
    rng.shuffle(rows)
    return rows


def best_times(rows: list[tuple]) -> dict[str, dict[str, Fraction]]:
    """Per solver, its time on each instance it solved, after sorting the rows."""
    table: dict[str, dict[str, Fraction]] = {}
    for sid, iid, status, time in sorted(rows, key=lambda r: (r[1], r[0], r[3])):
        if status != "unsolved":
            table.setdefault(sid, {})[iid] = time
    return table


def shapley(table: dict[str, dict[str, Fraction]], instances: list[str]) -> list[Fraction]:
    """Exact Shapley values of the game v(S) = sum over instances of 1 / (1 + best time in S)."""
    solvers = sorted(table)
    n = len(solvers)
    value = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        members = [table[solvers[j]] for j in range(n) if mask >> j & 1]
        total = Fraction(0)
        for iid in instances:
            times = [t[iid] for t in members if iid in t]
            if times:
                total += 1 / (1 + min(times))
        value[mask] = total
    phi = []
    for j in range(n):
        acc = Fraction(0)
        for mask in range(1 << n):
            if not mask >> j & 1:
                k = bin(mask).count("1")
                weight = Fraction(factorial(k) * factorial(n - k - 1), factorial(n))
                acc += weight * (value[mask | 1 << j] - value[mask])
        phi.append(acc)
    return phi


def product(rng: random.Random, n: int) -> Fraction:
    """A product of ``n`` random ratios, reduced at every step; its terms grow to ~30k bits."""
    x = Fraction(1)
    for _ in range(n):
        x *= Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
    return x


def digits(x: Fraction, sig: int) -> str:
    """``x`` rounded down to about ``sig`` significant digits by integer division.

    The digits are written in hex, which Python's int-string limit does not cap.
    """
    num, den = abs(x.numerator), x.denominator
    shift = (num // den).bit_length() * 3 // 10  # about its decimal digits
    scaled = num * 10 ** (sig - shift) // den
    return ("-" if x < 0 else "") + format(scaled, "x") + f"e{shift - sig}"


def run() -> str:
    rng = random.Random(20221014)
    rows = records(rng, 8, 1500)
    table = best_times(rows)
    instances = sorted({r[1] for r in rows})
    phi = shapley({sid: dict(list(t.items())[:60]) for sid, t in table.items()}, instances[:200])
    big = product(rng, 4000)
    h = hashlib.sha256()
    for sid in sorted(table):
        h.update(f"{sid}:{len(table[sid])}:{sum(table[sid].values())}".encode())
    for value in phi:
        h.update(digits(value, 200).encode())
    h.update(digits(big, 10000).encode())
    return h.hexdigest()


if __name__ == "__main__":
    got = run()
    if not got.startswith(EXPECTED):
        sys.exit(f"reference result {got[:12]} != expected {EXPECTED}")
