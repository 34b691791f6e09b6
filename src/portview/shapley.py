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
from math import factorial, gcd, inf, prod
from typing import Iterable, NamedTuple

from .portfolio import SubsetScorer
from .render import log
from .runstore import DataError, Dataset

# Exact mode runs only when its estimated time (``_exact_seconds``) is within
# this many seconds; larger portfolios need ``sampled`` mode.
EXACT_BUDGET_S = 60.0
# Sampled mode runs only within this many work units, _PLAYER_UNITS per player and
# one per non-zero score per permutation: a player's step costs about 13 scores'
# (0.47 against 0.036 us). That is about 56 s at the slowest of 17.8-34.6 million
# units per CPU second measured (2-core x86, CPython 3.11, 8-60 players, 20-1,000
# instances, random and tie-heavy data).
SAMPLED_WORK_BUDGET = 1_000_000_000
_PLAYER_UNITS = 13


def _exact_seconds(n: int, m: int, denominator: int) -> float:
    """Estimated seconds of ``shapley_exact``, from its size alone.

    Calibrated on a 2-core x86 machine with CPython 3.11: each of the 2^n
    coalitions costs about 5 us per player, and the exact sums, 18 s for 12
    players over 100 instances with 2,384-bit scores (the bits of ``m *
    denominator``), grow x14 per two more players and with the square of the
    bits. It is at or above every run measured at 10-14 random players over
    100-150 instances, and 1.5-3x above those at 12-14 players.
    """
    bits = (m * denominator).bit_length()
    try:
        return 5e-6 * n * 2.0**n + 18 * 14 ** ((n - 12) / 2) * (bits / 2384) ** 2
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


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)`` of coprime ints, ``denominator > 0``, without a
    gcd: ``Fraction(numerator)`` runs none, and ``_denominator`` is the slot that holds the
    denominator on CPython 3.10-3.13, so the result is the reduced ``Fraction`` it equals."""
    value = Fraction(numerator)
    value._denominator = denominator
    return value


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
    and its value N/(T-N) is reduced once to p_S/q_S.

    All big gcds run once, for every player: one lcm tree over the q_S takes a
    gcd g of each two siblings, keeps the cofactors right/g and left/g, and
    multiplies g into a product of suspects that starts at n! (1 in sum mode).
    Each player's numerators fold up the tree in plain integers to X/D, with
    D = n!*L and L the lcm at the root, and X/D is reduced by gcd(X, R), R the
    part of D made of suspect primes. That is exact: a prime p of D that
    divides no coefficient and no two q_S (else it divides the sibling gcd at
    their lowest common ancestor) divides a single q_T. Every term of X but
    T's is then a multiple of p, and T's, coefficient * p_T * L/q_T, is not.
    No coefficient is 0 at a player's own coalitions, so a zero sum is 0/1.
    The estimate is checked before any coalition is scored; over budget
    raises DataError.
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
    suspects = scale = fact[n] if exact else 1
    levels = []  # per level, each merge's cofactors for its left and right child
    while len(qs) > 1:
        gs = [gcd(left, right) for left, right in zip(qs[::2], qs[1::2])]
        suspects *= prod(gs)
        level = [(right // g, left // g) for left, right, g in zip(qs[::2], qs[1::2], gs)]
        qs = [left * right for left, (right, _) in zip(qs[::2], level)] + qs[2 * len(level) :]
        levels.append(level)
    denominator = scale * prod(qs)
    suspect_part, g = 1, gcd(denominator, suspects)
    while g > 1:  # gather each suspect prime of the denominator to its full power
        suspect_part *= g
        g = gcd(denominator // suspect_part, g)
    line = "shapley_exact: %d coalitions, %d-bit denominator, estimate %.3g s"
    log(line, len(masks), denominator.bit_length(), estimate)
    values = {}
    for a, player in enumerate(players):
        xs = [x if mask >> a & 1 else y for mask, x, y in zip(masks, ins, outs)]
        for level in levels:
            pairs = zip(xs[::2], xs[1::2], level)
            xs = [x * left + y * right for x, y, (left, right) in pairs] + xs[2 * len(level) :]
        g = gcd(xs[0], suspect_part)
        values[player] = _coprime_fraction(xs[0] // g, denominator // g)
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
    fixed seed. Values are floats (the estimator is approximate anyway). Raises
    ``DataError`` before the first permutation when the samples would take more
    than ``SAMPLED_WORK_BUDGET`` work units.
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
    scores = sum(map(len, rows))
    per_sample = _PLAYER_UNITS * n + scores
    if samples * per_sample > SAMPLED_WORK_BUDGET:
        raise DataError(
            f"shapley_sampled: {samples} samples of {n} solvers with {scores} non-zero "
            f"scores are {samples * per_sample} work units, over the budget of "
            f"{SAMPLED_WORK_BUDGET}; use --samples {SAMPLED_WORK_BUDGET // per_sample} or fewer"
        )
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
