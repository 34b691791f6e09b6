"""Deterministic text rendering for report output.

Human-facing numbers are shown to 6 significant digits; exact rationals go to
the machine-readable sidecar untouched as ``p/q`` strings. No floats are
involved for exact values, so identical inputs render to identical bytes.
Callers pick an exact number's digits with integer arithmetic; ``decimal_text``
alone places the point, pads the zeros and writes the sign. ``format_duration``,
``format_rational`` and ``csv_cell`` write the canonical table's numbers and ids.
``log`` writes the ``-v`` lines, which never enter the report, to stderr, and a
``Meter`` counts a search's nodes and logs its progress.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from decimal import DivisionByZero, InvalidOperation, Overflow
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

SIG_DIGITS = 6
# ``-v``: whether ``log`` writes. ``cli.main`` sets it from the flag; a library caller
# sets ``portview.render.verbose = True`` for the same stage, count and progress lines.
verbose = False
PROGRESS_EVERY = 1 << 12  # nodes between two progress lines of a search
# parses and prints every exact decimal, whatever the caller's context or DefaultContext's traps
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[InvalidOperation, DivisionByZero, Overflow])


def log(fmt: str, *args: object) -> None:
    """Write ``fmt % args`` and a newline to ``sys.stderr`` when ``verbose`` is on; else nothing."""
    if verbose:
        sys.stderr.write(fmt % args + "\n")


class Meter:
    """A search's node count. Every ``PROGRESS_EVERY`` nodes it logs ``line % (nodes,
    detail, rate)``: the caller's ``detail``, and nodes per second since the meter was made."""

    def __init__(self, line: str) -> None:
        self.line, self.nodes, self.started = line, 0, time.perf_counter()

    def tick(self, detail: int) -> None:
        self.nodes += 1
        if self.nodes % PROGRESS_EVERY == 0:
            log(self.line, self.nodes, detail, self.nodes / (time.perf_counter() - self.started))


@lru_cache(maxsize=64)  # every width an exact 12 x 100 report needs: 45, about 1.4 MB
def _power_of_two(h: int) -> Decimal:
    return EXACT.power(2, h)


def _exact_decimal(n: int, bits: int) -> Decimal:
    """``Decimal(n)`` for ``0 <= n < 2**bits``, in about M(n) log n time (Brent & Zimmermann
    2010, *Modern Computer Arithmetic*, 1.7): ``high * 2**h + low``, h = bits // 2, joined
    by ``EXACT``'s subquadratic multiply. Halving ``bits``, not ``n.bit_length()``, leaves
    two sizes of h per level, and one cache per process computes each ``2**h`` once."""
    if bits <= 4096:  # Decimal(n) is quadratic in the digits, but fast this small
        return Decimal(n)
    h = bits >> 1
    high = n >> h
    low = _exact_decimal(n - (high << h), h)
    return EXACT.add(EXACT.multiply(_exact_decimal(high, bits - h), _power_of_two(h)), low)


def decimal_text(digits: int, places: int, negative: bool = False) -> str:
    """``digits / 10**places`` as plain text, whatever the ``decimal`` context: ``(-5, 3)``
    gives ``-0.005``, ``(5, -2)`` gives ``500``, and ``negative`` signs a rounded zero."""
    number = _exact_decimal(abs(digits), abs(digits).bit_length())
    number = number.copy_negate() if digits < 0 or negative else number
    return format(number.scaleb(-places, EXACT), "f")


def fmt_sig(value: Fraction) -> str:
    """Decimal rendering at ``SIG_DIGITS`` significant digits (exact if shorter).

    The same text as ``Decimal`` division at precision ``SIG_DIGITS`` printed
    with ``format(d, "f")``: half-even rounding, and an exact quotient keeps no
    trailing zeros after the point. It is one integer division, scaled so the
    quotient has ``SIG_DIGITS`` digits, so huge numerators cost no conversion.
    """
    if value == 0:
        return "0"
    num, den = abs(value.numerator), value.denominator
    # 10**exp <= |value| < 10**(exp + 1), estimated from the bit lengths, then corrected
    exp = int((num.bit_length() - den.bit_length()) * math.log10(2))
    while True:
        shift = SIG_DIGITS - 1 - exp  # the quotient's last digit is worth 10**-shift
        top, bottom = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
        digits, rest = divmod(top, bottom)
        if digits >= 10**SIG_DIGITS:
            exp += 1
        elif digits < 10 ** (SIG_DIGITS - 1):
            exp -= 1
        else:
            break
    if rest:
        if 2 * rest > bottom or (2 * rest == bottom and digits % 2):
            digits += 1
        if digits == 10**SIG_DIGITS:  # rounded up to a new leading digit
            digits //= 10
            shift -= 1
    else:
        while shift > 0 and digits % 10 == 0:
            digits //= 10
            shift -= 1
    return decimal_text(digits, shift, value < 0)


def fmt_pct(value: Fraction) -> str:
    """Percentage with one decimal, e.g. 36.1%: ``value`` rounded once, half-even, to tenths.

    ``round`` of a ``Fraction`` is exact, so no precision limits the size of
    ``value``. A negative value that rounds to zero keeps its sign: ``-0.0%``.
    """
    return decimal_text(round(value * 1000), 1, value < 0) + "%"


def frac_str(value: Fraction) -> str:
    """Exact ``p/q`` text."""
    return decimal_text(value.numerator, 0) + "/" + decimal_text(value.denominator, 0)


def format_duration(value: Fraction) -> str:
    """Render a millisecond-granular duration as seconds with 3 decimals."""
    d = value.denominator
    ms, rest = divmod(value.numerator * 1000, d)
    if 2 * rest > d or (2 * rest == d and ms % 2):
        ms += 1  # half to even, as round(Fraction) rounds
    return decimal_text(ms, 3)


def format_rational(value: Fraction) -> str:
    """Render exactly: a terminating decimal when one exists, else ``p/q``."""
    n, d = value.numerator, value.denominator
    rest, e2, e5 = d, 0, 0
    while rest % 2 == 0:
        rest //= 2
        e2 += 1
    while rest % 5 == 0:
        rest //= 5
        e5 += 1
    if rest != 1:
        return frac_str(value)
    exp = max(e2, e5)
    return decimal_text(n * 10**exp // d, exp)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def csv_cell(text: str) -> str:
    """``text`` as ``csv_text`` writes it in a row of several cells: quoted where csv quotes."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text, ""))  # one lone "" cell is quoted
    return out.getvalue()[:-2]


def align_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Space-padded text table with a dashed rule under the header."""
    table = [list(map(str, header))] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for row_no, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if row_no == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
