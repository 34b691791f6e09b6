"""Definitional references for the virtual best solver, oracle coverage, the
performance ratio, the lenient repair of a run, six-digit number rendering and
the canonical table.

The first two lift and rank every member's run on their own, with
``run_comparable`` and ``quality_key`` directly; the package reads the best
group of one shared ranking of the stored runs (``pairscore.best_group``)
instead, and the tests require equal results. ``reference_perf`` scores each
instance's portfolio VBS against the baseline VBS with ``score_ordered``; the
package scores every run from the baseline's best quality group instead
(``portfolio.SubsetScorer``), and the tests require the same ratios.
``reference_scorer_rows`` builds one ``Fraction`` per scored cell with
``score_ordered`` and scales every cell to their lcm; the package splits the
best group's integer ticks and reduces each score with ``gcd`` instead, and
the tests require the same ``rows``, ``denominator`` and ``tied_unsolved``.
``reference_coerce_run`` spells out each repair of a lenient read case by
case; the package repairs a run by following ``run_shape_violation``, and the
tests require the same runs and the same number of warnings.
``reference_fmt_sig`` and ``reference_fmt_pct`` render through ``Decimal``
division; the package rounds exact integers and fractions instead, and the
tests require the same text wherever the ``Decimal`` quotient is exact enough.
``reference_frac_str`` converts each integer with ``str(Decimal(n))``, which is
quadratic in the digits; the package splits an integer of over 4,096 bits into
halves and joins their conversions instead, and the tests require the same text.
``reference_format_duration`` and ``reference_write_canonical`` round
``Fraction`` milliseconds and format every run's cells on their own, in sorted
run-key order, through one ``csv`` writer call per row; the package rounds
integer milliseconds and, per call over the sorted grid, quotes each distinct
id once as the ``csv`` writer quotes that one cell, renders each instance's
and solver's cells and each status once, formats each distinct duration and
objective once, keyed by its numerator and denominator, and joins each row as
one string instead. The tests require the same text, byte for byte.
``reference_best_subsets`` scores every subset of the search space with
``SubsetScorer.evaluate_mask``; the package finds each size's best subset by
branch and bound instead, and the tests require the same curve, subset for
subset.
``reference_min_cover`` includes or excludes each set in solver order under a
greedy upper bound; the package branches on the instance with the fewest
coverers instead, and the tests require the same optima below the cap.
``reference_read_table`` reads rows through a generator that turns a
``csv.Error`` into a ``DataError``, strips every picked cell in a list,
upper-cases every token before its lookup, checks each run's time again in
``RunRecord``, fills the grid pair by pair and lists each instance's runs in
solver order to cross-check objectives; the package iterates the csv reader
directly, looks tokens up as written first, trusts the checked fields, groups
the solved runs while it clamps and skips the fill on a full grid, and the
tests require the same ``Dataset``, the same warnings in the same order, or
the same ``DataError`` text.
``reference_quality_ranking`` keys and sorts every run of an instance; the
package keys and sorts only the INCOMPLETE runs instead, and the tests require
the same ranking.
"""

from __future__ import annotations

import csv
import operator
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, groupby
from math import factorial, lcm

from portview.mincover import CoverageMap, CoverSolution
from portview.pairscore import HALF, Comparable, run_comparable, score_ordered
from portview.portfolio import PerfRatio, SubsetScorer, vbs_run
from portview.render import SIG_DIGITS, csv_text
from portview.runstore import (
    CANONICAL_COLUMNS,
    ColumnMapping,
    DataError,
    Dataset,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    format_duration,
    format_rational,
    known_solvers,
    parse_duration,
    parse_rational,
    quality_key,
    run_shape_violation,
)
from portview.shapley import ShapleyMode
from portview.tradeoff import TradeoffCurve, TradeoffEntry


def reference_vbs_run(ds: Dataset, solvers, instance_id: str) -> Comparable:
    """Best quality over the members, then the minimum time among its achievers."""
    if instance_id not in ds.instances:
        raise DataError(f"unknown instance {instance_id!r}")
    members = known_solvers(ds, solvers, "vbs_run")
    meta = ds.instances[instance_id]
    if not members:
        return Comparable(Status.UNSOLVED, meta.timeout, None, meta.kind)

    comps = {sid: run_comparable(ds, sid, instance_id) for sid in members}
    keys = {sid: quality_key(meta.kind, c.status, c.objective) for sid, c in comps.items()}
    best_key = max(keys.values())
    if best_key[0] == 0:
        return Comparable(Status.UNSOLVED, meta.timeout, None, meta.kind)

    achievers = [sid for sid in members if keys[sid] == best_key]
    best_time = min(comps[sid].time for sid in achievers)
    status = comps[achievers[0]].status
    if not meta.kind.is_optimization:
        objective = None
    elif status is Status.INCOMPLETE:
        objective = comps[achievers[0]].objective
    else:
        objectives = [comps[sid].objective for sid in achievers]
        objective = min(objectives) if meta.kind is ProblemKind.MINIMIZE else max(objectives)
    return Comparable(status, best_time, objective, meta.kind)


def reference_perf(ds: Dataset, portfolio, baseline) -> PerfRatio:
    """Sum, over instances, the scores of VBS(portfolio) against VBS(baseline).

    An instance neither VBS solves is a symmetric tie, half a point each.
    """
    mine = known_solvers(ds, portfolio, "perf portfolio")
    base = known_solvers(ds, baseline, "perf baseline")
    if not set(mine) <= set(base):
        raise DataError("perf: portfolio must be a subset of the baseline")
    instances = ds.instance_ids
    if not instances:
        raise DataError("perf: dataset has no instances")

    numerator = Fraction(0)
    denominator = Fraction(0)
    tied = 0
    baseline_solves = False
    for iid in instances:
        va = vbs_run(ds, mine, iid)
        vb = vbs_run(ds, base, iid)
        if vb.status is not Status.UNSOLVED:
            baseline_solves = True
        if va.status is Status.UNSOLVED and vb.status is Status.UNSOLVED:
            sa, sb = HALF, HALF
            tied += 1
        else:
            sa, sb = score_ordered(va, vb)
        numerator += sa
        denominator += sb
    if not baseline_solves:
        raise DataError("perf: baseline portfolio solves no instance")
    return PerfRatio(numerator, denominator, numerator / denominator, tied)


def reference_scorer_rows(ds: Dataset, space, baseline) -> tuple[list[list[int]], int, int]:
    """``SubsetScorer``'s ``rows``, ``denominator`` and ``tied_unsolved``, one ``Fraction`` per cell.

    Each run of ``space`` is scored against VBS(baseline) with ``score_ordered``
    (half a point where the baseline solves nothing), and every score is
    scaled to the lcm of all of them (and of 2 when an instance is tied
    unsolved).
    """
    members = known_solvers(ds, space, "scorer space")
    base = known_solvers(ds, baseline, "scorer baseline")
    cells: list[list[Fraction]] = [[] for _ in members]
    tied = 0
    for iid in ds.instance_ids:
        best = reference_vbs_run(ds, base, iid)
        if best.status is Status.UNSOLVED:
            tied += 1
        for sid, row in zip(members, cells):
            if best.status is Status.UNSOLVED:
                row.append(HALF)
            else:
                row.append(score_ordered(run_comparable(ds, sid, iid), best)[0])
    denominator = lcm(2 if tied else 1, *(x.denominator for row in cells for x in row))
    rows = [[int(x * denominator) for x in row] for row in cells]
    return rows, denominator, tied


def reference_coverage(ds: Dataset, solvers=None, epsilon: Fraction = Fraction(0)) -> CoverageMap:
    """Each member covers the instances where its run has the VBS quality and a
    time within ``epsilon`` of the VBS time."""
    members = known_solvers(ds, solvers, "build_coverage") if solvers is not None else ds.solver_ids
    best_sets: dict[str, set[str]] = {sid: set() for sid in members}
    universe: set[str] = set()
    unsolvable: set[str] = set()
    for iid in ds.instance_ids:
        best = reference_vbs_run(ds, members, iid)
        if best.status is Status.UNSOLVED:
            unsolvable.add(iid)
            continue
        universe.add(iid)
        best_key = quality_key(best.kind, best.status, best.objective)
        for sid in members:
            comp = run_comparable(ds, sid, iid)
            same_quality = quality_key(comp.kind, comp.status, comp.objective) == best_key
            if same_quality and comp.time - best.time <= epsilon:
                best_sets[sid].add(iid)
    return CoverageMap(
        {sid: frozenset(ids) for sid, ids in best_sets.items()},
        frozenset(universe),
        frozenset(unsolvable),
    )


def _greedy_cover_size(masks: list[int], full: int) -> int:
    covered = 0
    picks = 0
    while covered != full:
        gain, best = 0, -1
        for idx, m in enumerate(masks):
            g = bin(m & ~covered).count("1")
            if g > gain:
                gain, best = g, idx
        covered |= masks[best]
        picks += 1
    return picks


def _disjoint_lower_bound(uncovered: int, masks: list[int]) -> int:
    bound = 0
    rem = uncovered
    while rem:
        element = rem & -rem
        hit = element
        for m in masks:
            if m & element:
                hit |= m
        rem &= ~hit
        bound += 1
    return bound


def reference_min_cover(cov: CoverageMap, cap: int = 1000) -> CoverSolution:
    """Include or exclude each set in solver order, from a greedy cover's size;
    past the cap, the search goes on and only sets ``cap_reached``."""
    if cap < 1:
        raise DataError("min_cover: cap must be at least 1")
    universe = sorted(cov.universe)
    if not universe:
        raise DataError("min_cover: empty universe")
    index = {iid: pos for pos, iid in enumerate(universe)}
    full = (1 << len(universe)) - 1

    candidates = []
    for sid in sorted(cov.best_sets):
        mask = 0
        for iid in cov.best_sets[sid]:
            pos = index.get(iid)
            if pos is not None:
                mask |= 1 << pos
        if mask:
            candidates.append((sid, mask))
    names = [sid for sid, _ in candidates]
    masks = [mask for _, mask in candidates]
    suffix_union = [0] * (len(masks) + 1)
    for idx in range(len(masks) - 1, -1, -1):
        suffix_union[idx] = suffix_union[idx + 1] | masks[idx]
    if suffix_union[0] != full:
        raise DataError("min_cover: universe is not coverable by the given sets")

    best_size = _greedy_cover_size(masks, full)
    solutions: list[tuple[int, ...]] = []
    cap_reached = False

    def dfs(idx: int, chosen: tuple[int, ...], covered: int) -> None:
        nonlocal best_size, solutions, cap_reached
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                solutions = [chosen]
                cap_reached = False
            elif len(chosen) == best_size:
                if len(solutions) < cap:
                    solutions.append(chosen)
                else:
                    cap_reached = True
            return
        if covered | suffix_union[idx] != full:
            return
        remaining = masks[idx:]
        bound = _disjoint_lower_bound(full & ~covered, remaining)
        if len(chosen) + bound > best_size:
            return
        # a minimum cover never includes a set adding nothing
        if masks[idx] & ~covered:
            dfs(idx + 1, chosen + (idx,), covered | masks[idx])
        dfs(idx + 1, chosen, covered)

    dfs(0, (), 0)
    portfolios = sorted(tuple(names[i] for i in sol) for sol in solutions)
    return CoverSolution(
        tuple(portfolios),
        best_size,
        is_unique=len(portfolios) == 1 and not cap_reached,
        cap_reached=cap_reached,
    )


def reference_coerce_run(
    row_no: int,
    solver: str,
    meta: InstanceMeta,
    status: Status | None,
    time_text: str,
    objective: Fraction | None,
    warnings: list[str],
) -> RunRecord:
    """Lenient run: coerce an unusable time and data-model violations, with a warning.

    ``status`` None is an unknown status token, already reported: UNSOLVED, objective dropped.
    """
    if status is None:
        status, objective = Status.UNSOLVED, None
    try:
        time = parse_duration(time_text)
        if time < 0:
            raise DataError("negative time")
    except DataError:
        warnings.append(f"row {row_no}: unusable time {time_text!r}, recorded as UNSOLVED")
        time = meta.timeout
        status = Status.UNSOLVED
        objective = None

    if meta.kind.is_optimization:
        if status is not Status.UNSOLVED and objective is None:
            warnings.append(
                f"row {row_no}: {status.value} without an objective on an "
                "optimization instance, recorded as UNSOLVED"
            )
            status = Status.UNSOLVED
    else:
        if status is Status.INCOMPLETE:
            warnings.append(
                f"row {row_no}: INCOMPLETE on a decision instance, recorded as UNSOLVED"
            )
            status = Status.UNSOLVED
        if objective is not None:
            warnings.append(f"row {row_no}: objective on a decision instance, dropped")
            objective = None
    if status is Status.UNSOLVED and objective is not None:
        warnings.append(f"row {row_no}: objective on an UNSOLVED run, dropped")
        objective = None
    return RunRecord(solver, meta.instance_id, status, time, objective)


def _quoted(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:40] + "…")


def _reference_column_plan(header, mapping: ColumnMapping):
    names = [name.strip().lower() for name in header]
    positions = {name: idx for idx, name in enumerate(names)}
    picks: list[int] = []
    extras = []
    for name in CANONICAL_COLUMNS:
        if name not in mapping.columns and name in mapping.defaults:
            picks.append(len(header) + len(extras))
            extras.append(lambda cells, value=mapping.defaults[name]: value)
            continue
        idxs = []
        for col in mapping.columns.get(name, [name]):
            key = col.strip().lower()
            if key not in positions:
                raise DataError(f"missing required column {col!r}")
            if names.count(key) > 1:
                raise DataError(f"column {col!r} appears more than once in the header")
            idxs.append(positions[key])
        if len(idxs) == 1:
            picks.append(idxs[0])
        else:
            picks.append(len(header) + len(extras))
            extras.append(
                lambda cells, idxs=idxs: mapping.join.join(cells[i].strip() for i in idxs)
            )
    pick = operator.itemgetter(*picks)
    return lambda cells: [text.strip() for text in pick(cells + [f(cells) for f in extras])]


def _reference_checked_rows(reader):
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None


def _reference_complete(instances, solvers, runs, warnings) -> Dataset:
    for key, run in runs.items():
        timeout = instances[run.instance_id].timeout
        if run.time > timeout:
            warnings.append(
                f"run ({_quoted(run.solver_id)}, {_quoted(run.instance_id)}): time "
                f"{format_duration(run.time)} exceeds timeout, clamped to "
                f"{format_duration(timeout)}"
            )
            runs[key] = RunRecord(run.solver_id, run.instance_id, run.status, timeout, run.objective)
    for sid in solvers:
        for iid, meta in instances.items():
            if (sid, iid) not in runs:
                runs[(sid, iid)] = RunRecord(sid, iid, Status.UNSOLVED, meta.timeout)
    for iid, meta in sorted(instances.items()):
        if not meta.kind.is_optimization:
            continue
        here = [runs[(sid, iid)] for sid in sorted(solvers)]
        complete = [r for r in here if r.status is Status.COMPLETE]
        if not complete:
            continue
        objectives = {r.objective for r in complete}
        if len(objectives) > 1:
            warnings.append(
                f"instance {_quoted(iid)}: proven-optimal runs disagree on the objective value"
            )
        minimize = meta.kind is ProblemKind.MINIMIZE
        best = min(objectives) if minimize else max(objectives)
        for r in here:
            if r.status is Status.INCOMPLETE and (r.objective < best if minimize else r.objective > best):
                warnings.append(
                    f"run ({_quoted(r.solver_id)}, {_quoted(iid)}): incomplete objective "
                    f"{format_rational(r.objective)} is better than the proven optimum "
                    f"{format_rational(best)}"
                )
    return Dataset(instances, solvers, runs, tuple(warnings))


def reference_read_table(source, mapping: ColumnMapping, *, strict: bool) -> Dataset:
    """``read_table`` on an open text source, every cell stripped and every token
    upper-cased before its lookup, each run built through ``RunRecord``'s checks."""
    try:
        reader = _reference_checked_rows(csv.reader(source, delimiter=mapping.delimiter))
    except TypeError:
        raise DataError(f"delimiter {mapping.delimiter!r} is not a single character") from None
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: missing header row") from None
    canonical_cells = _reference_column_plan(header, mapping)
    kinds = {m.value: m for m in ProblemKind}
    kinds.update({t: kinds.get(c) for t, c in mapping.kind_map.items()})
    statuses = {m.value: m for m in Status}
    statuses.update({t: statuses.get(c) for t, c in mapping.status_map.items()})
    flags = {"1": True, "TRUE": True, "YES": True, "0": False, "FALSE": False, "NO": False}

    warnings: list[str] = []

    def violation(message: str, consequence: str) -> None:
        if strict:
            raise DataError(message)
        warnings.append(f"{message}, {consequence}")

    instances: dict[str, InstanceMeta] = {}
    durations: dict[str, Fraction] = {}
    objectives: dict[str, Fraction] = {}
    solver_flags: dict[str, bool] = {}
    runs: dict[tuple[str, str], RunRecord] = {}
    for row_no, cells in enumerate(reader, start=2):
        if not "".join(cells).strip():
            continue
        if len(cells) != len(header):
            raise DataError(f"row {row_no}: expected {len(header)} fields, got {len(cells)}")
        solver, instance, kind_text, status_text, time_text, objective_text, flag_text, \
            timeout_text = canonical_cells(cells)
        if not solver or not instance:
            raise DataError(f"row {row_no}: empty solver or instance id")
        key = (solver, instance)
        if key in runs:
            raise DataError(
                f"row {row_no}: duplicate run for solver {_quoted(solver)} "
                f"on instance {_quoted(instance)}"
            )
        kind = kinds.get(kind_text.upper())
        if kind is None:
            raise DataError(f"row {row_no}: unknown problem kind {_quoted(kind_text)}")
        status = statuses.get(status_text.upper())
        if status is None:
            violation(f"row {row_no}: unknown status {_quoted(status_text)}", "recorded as UNSOLVED")
        participant = flags.get(flag_text.upper())
        if participant is None:
            violation(
                f"row {row_no}: unparseable participant flag {_quoted(flag_text)}",
                "recorded as non-participant",
            )
            participant = False
        objective = objectives.get(objective_text)
        if objective is None and objective_text:
            try:
                objective = objectives[objective_text] = parse_rational(objective_text)
            except DataError as exc:
                violation(f"row {row_no}: {exc}", "dropped")
        try:
            timeout = durations.get(timeout_text)
            if timeout is None:
                timeout = durations[timeout_text] = parse_duration(timeout_text, what="timeout")
            meta = instances.get(instance) or InstanceMeta(instance, kind, timeout)
        except DataError as exc:
            raise DataError(f"row {row_no}: {exc}") from None
        try:
            time = durations.get(time_text)
            if time is None:
                time = durations[time_text] = parse_duration(time_text)
            if time < 0:
                raise DataError(f"run ({_quoted(solver)}, {_quoted(instance)}): negative time")
        except DataError as exc:
            violation(f"row {row_no}: {exc}", "recorded as UNSOLVED")
            time, status = timeout, None
        if status is None:
            status, objective = Status.UNSOLVED, None
        for _ in range(2):
            broken = run_shape_violation(kind, status, objective)
            if broken is None:
                break
            message = f"row {row_no}: run ({_quoted(solver)}, {_quoted(instance)}): {broken}"
            if objective is not None and run_shape_violation(kind, status, None) != broken:
                violation(message, "objective dropped")
                objective = None
            else:
                violation(message, "recorded as UNSOLVED")
                status = Status.UNSOLVED
        if meta.kind is not kind or meta.timeout != timeout:
            raise DataError(
                f"row {row_no}: instance {_quoted(instance)} redeclared with different "
                "kind or timeout"
            )
        instances[instance] = meta
        known_flag = solver_flags.get(solver)
        if known_flag is None:
            solver_flags[solver] = participant
        elif known_flag != participant:
            raise DataError(
                f"row {row_no}: solver {_quoted(solver)} redeclared with different "
                "participant flag"
            )
        runs[key] = RunRecord(solver, instance, status, time, objective)
    return _reference_complete(instances, solver_flags, runs, warnings)


def reference_quality_ranking(ds: Dataset) -> dict[str, tuple[tuple[str, ...], ...]]:
    """Per instance, every run keyed by ``quality_key``, best first, ids ascending within a key."""
    ranking = {}
    for iid, meta in ds.instances.items():
        keys = {
            sid: quality_key(meta.kind, ds.runs[(sid, iid)].status, ds.runs[(sid, iid)].objective)
            for sid in sorted(ds.solvers)
        }
        best_first = sorted(keys, key=keys.__getitem__, reverse=True)
        ranking[iid] = tuple(tuple(group) for _, group in groupby(best_first, keys.__getitem__))
    return ranking


def reference_fmt_sig(value: Fraction) -> str:
    """Decimal rendering at ``SIG_DIGITS`` significant digits (exact if shorter)."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = SIG_DIGITS
        d = Decimal(value.numerator) / Decimal(value.denominator)
    return format(d, "f")


def reference_fmt_pct(value: Fraction) -> str:
    """Percentage with one decimal through ``Decimal``'s default 28-digit context."""
    scaled = (Decimal(value.numerator) * 100 / Decimal(value.denominator)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_EVEN
    )
    return f"{scaled}%"


def reference_frac_str(value: Fraction) -> str:
    """Exact ``p/q`` text, each integer converted by ``Decimal`` directly."""
    return str(Decimal(value.numerator)) + "/" + str(Decimal(value.denominator))


def reference_format_duration(value: Fraction) -> str:
    """Seconds with 3 decimals: ``value`` in milliseconds, rounded as ``round(Fraction)`` does."""
    ms = value * 1000
    if ms.denominator != 1:
        ms = Fraction(round(ms))
    n = int(ms)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 1000}.{n % 1000:03d}"


def reference_write_canonical(ds: Dataset) -> str:
    """The canonical table, every cell of every run formatted on its own, rows in run-key order."""
    rows = (
        (
            sid,
            iid,
            ds.instances[iid].kind.value,
            run.status.value,
            reference_format_duration(run.time),
            format_rational(run.objective) if run.objective is not None else "",
            "1" if ds.solvers[sid] else "0",
            reference_format_duration(ds.instances[iid].timeout),
        )
        for (sid, iid), run in sorted(ds.runs.items())
    )
    return csv_text(CANONICAL_COLUMNS, rows)


def reference_best_subsets(ds: Dataset, space, baseline) -> TradeoffCurve:
    """Score every k-subset in combinatorial order; a later one wins only when strictly better."""
    names = known_solvers(ds, space, "scorer space")
    if not names:
        raise DataError("best_subsets: empty search space")
    scorer = SubsetScorer(ds, names, baseline)
    entries = []
    for k in range(1, len(names) + 1):
        best_num, best_combo = -1, ()
        for combo in combinations(range(len(names)), k):
            num = scorer.evaluate_mask(sum(1 << idx for idx in combo))
            if num > best_num:
                best_num, best_combo = num, combo
        subset = tuple(names[idx] for idx in best_combo)
        entries.append(TradeoffEntry(k, subset, scorer.ratio_from_numerator(best_num)))
    return TradeoffCurve(tuple(entries), names, scorer.baseline)


def reference_shapley_exact(ds: Dataset, portfolio, baseline, mode=ShapleyMode.EXACT) -> dict:
    """Per-size sums of coalition values, then weights applied n^2 times.

    Player a gains +w(|S|-1)*v(S) from each coalition S containing it and
    -w(|S|)*v(S) from each non-empty S without it (w(n) = 0; w = 1 in sum
    mode). With G_s = sum of v(S) over |S| = s and H_s[a] = the same sum over
    the S that contain a, phi_a = sum over s of (w(s-1) + w(s)) * H_s[a] - w(s) * G_s.
    """
    scorer = SubsetScorer(ds, portfolio, baseline)
    players = scorer.space
    n = len(players)
    if mode is ShapleyMode.EXACT:
        weights = [Fraction(factorial(s) * factorial(n - s - 1), factorial(n)) for s in range(n)]
    else:
        weights = [Fraction(1)] * n
    weights.append(Fraction(0))  # nobody joins the grand coalition
    by_size = [Fraction(0)] * (n + 1)
    by_size_member = [[Fraction(0)] * n for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        value = scorer.ratio_from_numerator(scorer.evaluate_mask(mask)).value
        size = bin(mask).count("1")
        by_size[size] += value
        member = by_size_member[size]
        for a in range(n):
            if mask >> a & 1:
                member[a] += value
    return {
        players[a]: sum(
            (
                (weights[s - 1] + weights[s]) * by_size_member[s][a] - weights[s] * by_size[s]
                for s in range(1, n + 1)
            ),
            Fraction(0),
        )
        for a in range(n)
    }


def reference_shapley_sampled(
    ds: Dataset, portfolio, baseline, samples: int, rng_seed: int = 0
) -> dict:
    """Mean marginal over seeded random permutations, each row scanned over every instance."""
    scorer = SubsetScorer(ds, portfolio, baseline)
    players = scorer.space
    n = len(players)
    rows = [[x / scorer.denominator for x in row] for row in scorer.rows]
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
            row = rows[a]
            for i in range(m):
                if row[i] > current[i]:
                    numerator += row[i] - current[i]
                    current[i] = row[i]
            value = numerator / (m - numerator)
            acc[a] += value - previous
            previous = value
    return {players[a]: acc[a] / samples for a in range(n)}
