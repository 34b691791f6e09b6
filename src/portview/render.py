"""Deterministic text rendering for report output.

Human-facing numbers are shown to 6 significant digits; exact rationals go to
the machine-readable sidecar untouched as ``p/q`` strings. No floats are
involved for exact values, so identical inputs render to identical bytes.
"""

from __future__ import annotations

import csv
import io
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

SIG_DIGITS = 6


def fmt_sig(value: Fraction, digits: int = SIG_DIGITS) -> str:
    """Decimal rendering at the given significant digits (exact if shorter)."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(value.numerator) / Decimal(value.denominator)
    return format(d, "f")


def fmt_pct(value: Fraction) -> str:
    """Percentage with one decimal, e.g. 36.1%."""
    scaled = (Decimal(value.numerator) * 100 / Decimal(value.denominator)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_EVEN
    )
    return f"{scaled}%"


def frac_str(value: Fraction) -> str:
    """Exact ``p/q`` text; ``Decimal`` has no 4300-digit limit, unlike ``str`` of an int."""
    return str(Decimal(value.numerator)) + "/" + str(Decimal(value.denominator))


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(cell) for cell in row])
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
