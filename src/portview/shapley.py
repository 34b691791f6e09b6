"""Coalitional attribution of portfolio performance to individual solvers.

The value of a coalition is its performance ratio against the fixed baseline
(the empty coalition is worth 0). Three report modes:

* ``exact``: the classic coalition-weighted average of marginal contributions,
  computed over all subsets in exact rational arithmetic. Values sum to the
  full portfolio's performance.
* ``sum``: the plain, unweighted sum of marginal contributions over all
  subsets. Same ordering of solvers, different scale; offered because some
  published analyses total the marginals without the coalitional weights.
* ``sampled``: Monte-Carlo average of marginals over uniformly random
  permutations, for portfolios too large to enumerate.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, inf
from typing import Iterable, NamedTuple

from .portfolio import SubsetScorer
from .runstore import DataError, Dataset

# Exact mode runs only when its estimated time (``_exact_seconds``) is within
# this many seconds; larger portfolios need ``sampled`` mode.
EXACT_BUDGET_S = 60.0

# Exact sums fold integer numerators up the product tree of the coalition
# denominators until its nodes average this many bits (see ``shapley_exact``).
_REDUCED_BITS = 4096


def _exact_seconds(n: int, m: int, denominator: int) -> float:
    """Estimated seconds of ``shapley_exact``, from its size alone.

    Calibrated on a 2-core x86 machine with CPython 3.11: each of the 2^n
    coalitions costs about 5 us per player, and the exact sums, 52.8 s for 12
    players over 100 instances with 2,384-bit scores (the bits of ``m *
    denominator``), grow x14 per two more players and with the square of the
    bits. That constant was measured for running Fraction sums, which the
    pairwise sums of ``shapley_exact`` beat by 7-32% at 10-12 players.
    """
    bits = (m * denominator).bit_length()
    try:
        return 5e-6 * n * 2.0**n + 52.8 * 14 ** ((n - 12) / 2) * (bits / 2384) ** 2
    except OverflowError:
        return inf


class ShapleyMode(Enum):
    EXACT = "exact"
    SUM = "sum"
    SAMPLED = "sampled"


class AttributionReport(NamedTuple):
    """Per-solver contribution values for one portfolio/baseline pair."""

    values: dict[str, Fraction] | dict[str, float]
    mode: ShapleyMode
    portfolio: tuple[str, ...]
    baseline: tuple[str, ...]
    sample_count: int | None = None


def _coalition_totals(rows: list[list[int]], m: int) -> list[tuple[int, int, int]]:
    """(mask, size, integer total score) of every non-empty coalition of the rows' players.

    Depth first: a child adds one player above its parent's highest and raises
    its parent's per-instance best scores only where the added player scores
    above them, so each total takes one step over one sparse row. Only a child
    that can still be extended copies the best scores.
    """
    n = len(rows)
    sparse = [[(i, x) for i, x in enumerate(row) if x] for row in rows]
    totals = []
    stack = [(0, 0, 0, 0, [0] * m)]
    while stack:
        start, mask, size, total, best = stack.pop()
        for a in range(start, n):
            gains = [(i, x) for i, x in sparse[a] if x > best[i]]
            grown = total + sum(x - best[i] for i, x in gains)
            totals.append((mask | 1 << a, size + 1, grown))
            if a + 1 < n:
                row = best.copy()
                for i, x in gains:
                    row[i] = x
                stack.append((a + 1, mask | 1 << a, size + 1, grown, row))
    return totals


def _product_tree(qs: list[int], top_bits: int) -> list[list[int]]:
    """Product-tree levels over ``qs``, leaves up to the root or to nodes of ``top_bits`` bits."""
    levels = [qs]
    bits = sum(q.bit_length() for q in qs)
    while len(qs) > 1 and len(qs) * top_bits > bits:
        qs = [qs[j] * qs[j + 1] for j in range(0, len(qs) - 1, 2)] + qs[len(qs) & ~1 :]
        levels.append(qs)
    return levels


def _fold(xs: list[int], levels: list[list[int]]) -> list[int]:
    """Numerators over the nodes above ``levels``: x_L*Q_R + x_R*Q_L over Q_L*Q_R."""
    for q in levels:
        pairs = range(0, len(q) - 1, 2)
        xs = [xs[j] * q[j + 1] + xs[j + 1] * q[j] for j in pairs] + xs[len(xs) & ~1 :]
    return xs


def shapley_exact(
    ds: Dataset,
    portfolio: Iterable[str],
    baseline: Iterable[str],
    mode: ShapleyMode = ShapleyMode.EXACT,
) -> AttributionReport:
    """Exact attribution over all 2^n coalitions, if estimated to fit ``EXACT_BUDGET_S``.

    Player a gains (s-1)!(n-s)!/n! * v(S) from each coalition S of size s
    containing it and loses s!(n-s-1)!/n! * v(S) from each non-empty S without
    it (in sum mode both coefficients are 1 and there is no n!). Each
    coalition's total score is one incremental step of ``_coalition_totals``,
    and its value N/(T-N) is reduced once to p_S/q_S. One product tree of the
    q_S serves every player, whose numerators fold up it in plain integers
    with no gcd until its nodes average ``_REDUCED_BITS`` bits. From there the
    node sums are reduced Fractions added pairwise: each addition's gcd is
    between two halves' denominators, and a gcd costs the square of its size,
    so they cost about half of one gcd over the whole product. The estimate is
    checked before any coalition is scored; over budget raises DataError.
    """
    if mode is ShapleyMode.SAMPLED:
        raise DataError("shapley_exact: use shapley_sampled for sampled mode")
    scorer = SubsetScorer(ds, portfolio, baseline)
    players = scorer.space
    n = len(players)
    m = len(scorer.instances)
    estimate = _exact_seconds(n, m, scorer.denominator)
    if estimate > EXACT_BUDGET_S:
        raise DataError(
            f"shapley_exact: {n} solvers over {m} instances would take an estimated "
            f"{estimate:.3g} s, over the {EXACT_BUDGET_S:g} s exact-mode guard; "
            "use --mode sampled"
        )

    exact = mode is ShapleyMode.EXACT
    fact = [factorial(k) for k in range(n + 1)]
    # coefficients by coalition size for a member and a non-member
    inside = [fact[s - 1] * fact[n - s] if exact else 1 for s in range(1, n + 1)]
    outside = [-fact[s] * fact[n - s - 1] if exact else -1 for s in range(1, n)] + [0]
    total = m * scorer.denominator
    masks, ins, outs, qs = [], [], [], []
    for mask, size, numerator in _coalition_totals(scorer.rows, m):
        g = gcd(numerator, total - numerator)
        masks.append(mask)
        ins.append(numerator // g * inside[size - 1])
        outs.append(numerator // g * outside[size - 1])
        qs.append((total - numerator) // g)
    levels = _product_tree(qs, _REDUCED_BITS)
    values = {}
    for a, player in enumerate(players):
        xs = [x if mask >> a & 1 else y for mask, x, y in zip(masks, ins, outs)]
        parts = [Fraction(x, q) for x, q in zip(_fold(xs, levels[:-1]), levels[-1])]
        while len(parts) > 1:
            pairs = range(0, len(parts) - 1, 2)
            parts = [parts[j] + parts[j + 1] for j in pairs] + parts[len(parts) & ~1 :]
        values[player] = parts[0] / (fact[n] if exact else 1)
    return AttributionReport(values, mode, players, scorer.baseline)


def shapley_sampled(
    ds: Dataset,
    portfolio: Iterable[str],
    baseline: Iterable[str],
    samples: int,
    rng_seed: int = 0,
) -> AttributionReport:
    """Permutation-sampling estimate of the weighted attribution.

    Each sampled permutation credits every solver with its marginal value at
    its position; reported values are the sample means. Deterministic for a
    fixed seed. Values are floats (the estimator is approximate anyway).
    """
    if samples < 1:
        raise DataError("shapley_sampled: samples must be at least 1")
    scorer = SubsetScorer(ds, portfolio, baseline)
    players = scorer.space
    n = len(players)
    if n == 0:
        return AttributionReport({}, ShapleyMode.SAMPLED, players, scorer.baseline, samples)

    # int / int is correctly rounded, so each entry equals float(score); a zero
    # score never raises the running best, so only the others are kept
    rows = [[(i, x / scorer.denominator) for i, x in enumerate(row) if x] for row in scorer.rows]
    m = len(scorer.instances)
    rng = random.Random(rng_seed)
    acc = [0.0] * n
    order = list(range(n))
    for _ in range(samples):
        rng.shuffle(order)
        current = [0.0] * m
        numerator = 0.0
        previous = 0.0
        for a in order:
            for i, x in rows[a]:
                if x > current[i]:
                    numerator += x - current[i]
                    current[i] = x
            value = numerator / (m - numerator)
            acc[a] += value - previous
            previous = value
    values = {players[a]: acc[a] / samples for a in range(n)}
    return AttributionReport(values, ShapleyMode.SAMPLED, players, scorer.baseline, samples)
