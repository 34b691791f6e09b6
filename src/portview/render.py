"""Deterministic text rendering for report output.

Human-facing numbers are shown to 6 significant digits; exact rationals go to
the machine-readable sidecar untouched as ``p/q`` strings. No floats are
involved for exact values, so identical inputs render to identical bytes.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

SIG_DIGITS = 6


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
    text = str(digits)
    if shift <= 0:
        text += "0" * -shift
    else:
        text = text.rjust(shift + 1, "0")
        text = text[:-shift] + "." + text[-shift:]
    return "-" + text if value < 0 else text


def fmt_pct(value: Fraction) -> str:
    """Percentage with one decimal, e.g. 36.1%: ``value`` rounded once, half-even, to tenths.

    ``round`` of a ``Fraction`` is exact, so no precision limits the size of
    ``value``. A negative value that rounds to zero keeps its sign: ``-0.0%``.
    """
    whole, tenth = divmod(abs(round(value * 1000)), 10)
    return f"{'-' if value < 0 else ''}{Decimal(whole)}.{tenth}%"


def frac_str(value: Fraction) -> str:
    """Exact ``p/q`` text; ``Decimal`` has no 4300-digit limit, unlike ``str`` of an int."""
    return str(Decimal(value.numerator)) + "/" + str(Decimal(value.denominator))


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


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
