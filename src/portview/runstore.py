"""Canonical data model for solver-competition results.

A dataset is a complete (solver x instance) grid of run records. The on-disk
canonical form is header-bearing delimiter-separated text with the columns

    solver,instance,kind,status,time,objective,participant,timeout

one row per (solver, instance) pair. Rows missing from an input file are
materialized as UNSOLVED so that the grid is always complete. All times are
stored as exact rationals at millisecond granularity; objectives are exact
rationals parsed from decimal (or ``p/q``) text. No floats touch stored data,
which keeps every downstream score ratio reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .render import csv_text


class DataError(ValueError):
    """Invalid input data or a violated operation precondition."""


class ProblemKind(Enum):
    DECISION = "DECISION"
    MINIMIZE = "MINIMIZE"
    MAXIMIZE = "MAXIMIZE"

    @property
    def is_optimization(self) -> bool:
        return self is not ProblemKind.DECISION


class Status(Enum):
    COMPLETE = "COMPLETE"      # decision answered, or optimum found and proven
    INCOMPLETE = "INCOMPLETE"  # some solution found, optimality not proven
    UNSOLVED = "UNSOLVED"


CANONICAL_COLUMNS = (
    "solver",
    "instance",
    "kind",
    "status",
    "time",
    "objective",
    "participant",
    "timeout",
)

_TRUE_TOKENS = {"1", "TRUE", "YES"}
_FALSE_TOKENS = {"0", "FALSE", "NO"}


def parse_duration(text: str, *, what: str = "time") -> Fraction:
    """Parse a duration in seconds to an exact rational, rounded to milliseconds."""
    try:
        d = Decimal(text.strip())
    except InvalidOperation:
        raise DataError(f"unparseable {what} {text!r}") from None
    if not d.is_finite():
        raise DataError(f"non-finite {what} {text!r}")
    ms = int((d * 1000).to_integral_value(rounding=ROUND_HALF_EVEN))
    return Fraction(ms, 1000)


def format_duration(value: Fraction) -> str:
    """Render a millisecond-granular duration as seconds with 3 decimals."""
    ms = value * 1000
    if ms.denominator != 1:
        ms = Fraction(round(ms))
    n = int(ms)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 1000}.{n % 1000:03d}"


def parse_rational(text: str, *, what: str = "objective") -> Fraction:
    """Parse decimal or ``p/q`` text to an exact rational."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError, ZeroDivisionError):
        raise DataError(f"unparseable {what} {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render exactly: a terminating decimal when one exists, else ``p/q``."""
    n, d = value.numerator, value.denominator
    if d == 1:
        return str(n)
    rest, e2, e5 = d, 0, 0
    while rest % 2 == 0:
        rest //= 2
        e2 += 1
    while rest % 5 == 0:
        rest //= 5
        e5 += 1
    if rest != 1:
        return f"{n}/{d}"
    exp = max(e2, e5)
    scaled = abs(n) * 10**exp // d
    digits = str(scaled).rjust(exp + 1, "0")
    sign = "-" if n < 0 else ""
    return f"{sign}{digits[:-exp]}.{digits[-exp:]}"


@dataclass(frozen=True)
class InstanceMeta:
    """Identity and problem kind of one benchmark instance."""

    instance_id: str
    kind: ProblemKind
    timeout: Fraction

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise DataError(f"instance {self.instance_id!r}: timeout must be positive")


@dataclass(frozen=True)
class RunRecord:
    """One solver's observed result on one instance."""

    solver_id: str
    instance_id: str
    status: Status
    time: Fraction
    objective: Fraction | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise DataError(
                f"run ({self.solver_id!r}, {self.instance_id!r}): negative time"
            )


@dataclass(frozen=True)
class Dataset:
    """Immutable, validated competition results for one track.

    ``solvers`` maps solver id to its participant flag. ``runs`` holds exactly
    one record per (solver, instance) pair. ``warnings`` collects non-fatal
    ingestion notes (clamped times, inconsistent objectives) and is excluded
    from equality.
    """

    instances: dict[str, InstanceMeta]
    solvers: dict[str, bool]
    runs: dict[tuple[str, str], RunRecord]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def solver_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.solvers))

    @property
    def participant_ids(self) -> tuple[str, ...]:
        return tuple(s for s in self.solver_ids if self.solvers[s])

    @property
    def instance_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.instances))

    def run(self, solver_id: str, instance_id: str) -> RunRecord:
        return self.runs[(solver_id, instance_id)]


def run_shape_violation(
    kind: ProblemKind, status: Status, objective: Fraction | None
) -> str | None:
    """The data-model rule a run of this shape breaks on a ``kind`` instance, or None."""
    if status is Status.UNSOLVED:
        if objective is not None:
            return "unsolved run must not carry an objective"
    elif kind.is_optimization:
        if objective is None:
            return "solved run on an optimization instance requires an objective"
    elif status is Status.INCOMPLETE:
        return "INCOMPLETE is not valid on a decision instance"
    elif objective is not None:
        return "decision instance must not carry an objective"
    return None


def _check_run_shape(run: RunRecord, kind: ProblemKind) -> None:
    broken = run_shape_violation(kind, run.status, run.objective)
    if broken:
        raise DataError(f"run ({run.solver_id!r}, {run.instance_id!r}): {broken}")


def _validate_run(run: RunRecord, meta: InstanceMeta) -> tuple[RunRecord, list[str]]:
    """Check one run against its instance metadata; clamp overlong times."""
    warnings: list[str] = []
    _check_run_shape(run, meta.kind)
    if run.time > meta.timeout:
        warnings.append(
            f"run ({run.solver_id}, {run.instance_id}): time "
            f"{format_duration(run.time)} exceeds timeout, clamped to "
            f"{format_duration(meta.timeout)}"
        )
        run = RunRecord(run.solver_id, run.instance_id, run.status, meta.timeout, run.objective)
    return run, warnings


def _objective_consistency(
    instances: Mapping[str, InstanceMeta],
    runs: Mapping[tuple[str, str], RunRecord],
) -> list[str]:
    """Flag objective values that contradict proven-optimal runs."""
    by_instance: dict[str, list[RunRecord]] = {}
    for run in runs.values():
        by_instance.setdefault(run.instance_id, []).append(run)
    warnings: list[str] = []
    for iid, meta in sorted(instances.items()):
        if not meta.kind.is_optimization:
            continue
        here = by_instance.get(iid, [])
        complete = [r for r in here if r.status is Status.COMPLETE]
        incomplete = [r for r in here if r.status is Status.INCOMPLETE]
        if not complete:
            continue
        objectives = {r.objective for r in complete}
        if len(objectives) > 1:
            warnings.append(
                f"instance {iid}: proven-optimal runs disagree on the objective value"
            )
        best = min(objectives) if meta.kind is ProblemKind.MINIMIZE else max(objectives)
        for r in sorted(incomplete, key=lambda r: r.solver_id):
            worse_ok = r.objective >= best if meta.kind is ProblemKind.MINIMIZE else r.objective <= best
            if not worse_ok:
                warnings.append(
                    f"run ({r.solver_id}, {iid}): incomplete objective "
                    f"{format_rational(r.objective)} is better than the proven optimum "
                    f"{format_rational(best)}"
                )
    return warnings


def build_dataset(
    instances: Iterable[InstanceMeta],
    solvers: Mapping[str, bool],
    runs: Iterable[RunRecord],
    extra_warnings: Sequence[str] = (),
) -> Dataset:
    """Assemble and validate a Dataset, filling missing pairs as UNSOLVED."""
    inst_map: dict[str, InstanceMeta] = {}
    for meta in instances:
        if meta.instance_id in inst_map:
            raise DataError(f"duplicate instance {meta.instance_id!r}")
        inst_map[meta.instance_id] = meta
    solver_map = dict(solvers)

    warnings = list(extra_warnings)
    run_map: dict[tuple[str, str], RunRecord] = {}
    for run in runs:
        key = (run.solver_id, run.instance_id)
        if run.solver_id not in solver_map:
            raise DataError(f"run references unknown solver {run.solver_id!r}")
        if run.instance_id not in inst_map:
            raise DataError(f"run references unknown instance {run.instance_id!r}")
        if key in run_map:
            raise DataError(f"duplicate run for solver {key[0]!r} on instance {key[1]!r}")
        run, notes = _validate_run(run, inst_map[run.instance_id])
        warnings.extend(notes)
        run_map[key] = run

    for sid in solver_map:
        for iid, meta in inst_map.items():
            key = (sid, iid)
            if key not in run_map:
                run_map[key] = RunRecord(sid, iid, Status.UNSOLVED, meta.timeout)

    warnings.extend(_objective_consistency(inst_map, run_map))
    return Dataset(inst_map, solver_map, run_map, tuple(warnings))


def _parse_flag(token: str, row: int) -> bool:
    key = token.strip().upper()
    if key in _TRUE_TOKENS:
        return True
    if key in _FALSE_TOKENS:
        return False
    raise DataError(f"row {row}: unparseable participant flag {token!r}")


@dataclass
class ColumnMapping:
    """How to pull canonical columns out of a results table.

    ``columns`` maps canonical names to one or more source column names
    (multiple names are joined with ``join`` to form a single id). ``defaults``
    supplies a constant cell value for canonical columns with no source column.
    A canonical column listed in neither is read from the source column of the
    same name. ``status_map`` / ``kind_map`` translate source tokens
    (case-insensitive) to canonical ones before normal parsing.
    """

    columns: dict[str, list[str]] = field(default_factory=dict)
    defaults: dict[str, str] = field(default_factory=dict)
    status_map: dict[str, str] = field(default_factory=dict)
    kind_map: dict[str, str] = field(default_factory=dict)
    delimiter: str = ","
    join: str = "/"


def _column_plan(header: Sequence[str], mapping: ColumnMapping):
    """Resolve ``mapping`` against ``header`` once.

    Returns a function from a row's cells to the stripped canonical cells.
    Joined and default columns are appended to the row; all are picked by index.
    """
    positions = {name.strip().lower(): idx for idx, name in enumerate(header)}
    picks: list[int] = []
    extras = []
    for name in CANONICAL_COLUMNS:
        if name not in mapping.columns and name in mapping.defaults:
            picks.append(len(header) + len(extras))
            extras.append(lambda cells, value=mapping.defaults[name]: value)
            continue
        idxs = []
        for col in mapping.columns.get(name, [name]):
            if col.strip().lower() not in positions:
                raise DataError(f"missing required column {col!r}")
            idxs.append(positions[col.strip().lower()])
        if len(idxs) == 1:
            picks.append(idxs[0])
        else:
            picks.append(len(header) + len(extras))
            extras.append(
                lambda cells, idxs=idxs: mapping.join.join(cells[i].strip() for i in idxs)
            )
    pick = operator.itemgetter(*picks)
    if not extras:
        return lambda cells: [text.strip() for text in pick(cells)]
    return lambda cells: [text.strip() for text in pick(cells + [f(cells) for f in extras])]


def _token_table(enum: type[Enum], synonyms: Mapping[str, str]) -> dict[str, Enum | None]:
    """Upper-case token -> member; a synonym of no canonical token maps to None."""
    table: dict[str, Enum | None] = {m.value: m for m in enum}
    table.update({token: table.get(canonical) for token, canonical in synonyms.items()})
    return table


def _checked_rows(reader):
    """The rows of a csv reader; a row the csv module cannot parse raises DataError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None


def read_table(
    source: str | Path | IO[str], mapping: ColumnMapping, *, strict: bool
) -> Dataset:
    """Read a delimiter-separated results table into a validated Dataset.

    Under the strict policy any data-model violation raises DataError. Under
    the lenient policy an unknown status, an unparseable participant flag,
    objective or time, and runs that break the data model are coerced
    (to UNSOLVED, a non-participant, or a dropped objective) with a warning.
    Both policies raise on unreadable input (not UTF-8, or a field the csv
    module rejects), a delimiter that is not one character, a malformed
    header or row shape, an empty id, an unknown problem kind, a bad timeout,
    and a redeclared instance or participant flag. Row numbers in messages
    count the header as row 1.
    """
    if isinstance(source, (str, Path)):
        try:
            source = io.StringIO(Path(source).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not UTF-8 text: {exc}") from None
    try:
        reader = _checked_rows(csv.reader(source, delimiter=mapping.delimiter))
    except TypeError:
        raise DataError(f"delimiter {mapping.delimiter!r} is not a single character") from None
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: missing header row") from None
    canonical_cells = _column_plan(header, mapping)
    kinds = _token_table(ProblemKind, mapping.kind_map)
    statuses = _token_table(Status, mapping.status_map)

    warnings: list[str] = []

    def violation(message: str, consequence: str) -> None:
        if strict:
            raise DataError(message)
        warnings.append(f"{message}, {consequence}")

    instances: dict[str, InstanceMeta] = {}
    solver_flags: dict[str, bool] = {}
    records: list[RunRecord] = []
    for row_no, cells in enumerate(reader, start=2):
        if not "".join(cells).strip():
            continue
        if len(cells) != len(header):
            raise DataError(f"row {row_no}: expected {len(header)} fields, got {len(cells)}")
        solver, instance, kind_text, status_text, time_text, objective_text, flag_text, \
            timeout_text = canonical_cells(cells)
        if not solver or not instance:
            raise DataError(f"row {row_no}: empty solver or instance id")
        kind = kinds.get(kind_text.upper())
        if kind is None:
            raise DataError(f"row {row_no}: unknown problem kind {kind_text!r}")
        status = statuses.get(status_text.upper())
        if status is None:
            violation(f"row {row_no}: unknown status {status_text!r}", "recorded as UNSOLVED")
        try:
            participant = _parse_flag(flag_text, row_no)
        except DataError as exc:
            violation(str(exc), "recorded as non-participant")
            participant = False
        objective = None
        if objective_text:
            try:
                objective = parse_rational(objective_text)
            except DataError as exc:
                violation(f"row {row_no}: {exc}", "dropped")
        try:
            timeout = parse_duration(timeout_text, what="timeout")
            meta = instances.get(instance) or InstanceMeta(instance, kind, timeout)
            if strict:
                record = RunRecord(solver, instance, status, parse_duration(time_text), objective)
                _check_run_shape(record, kind)
        except DataError as exc:
            raise DataError(f"row {row_no}: {exc}") from None
        if meta.kind is not kind or meta.timeout != timeout:
            raise DataError(
                f"row {row_no}: instance {instance!r} redeclared with different "
                "kind or timeout"
            )
        instances[instance] = meta
        if not strict:
            record = _coerce_run(row_no, solver, meta, status, time_text, objective, warnings)
        known_flag = solver_flags.get(solver)
        if known_flag is None:
            solver_flags[solver] = participant
        elif known_flag != participant:
            raise DataError(
                f"row {row_no}: solver {solver!r} redeclared with different "
                "participant flag"
            )
        records.append(record)

    return build_dataset(instances.values(), solver_flags, records, warnings)


def _coerce_run(
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


def ingest(source: str | Path | IO[str], *, delimiter: str = ",") -> Dataset:
    """Read a canonical results table into a validated Dataset.

    The header must carry the canonical column names (any order, any case).
    Strict: the first data-model violation raises DataError; see
    ``read_table``. Row numbers in error messages count the header as row 1.
    """
    return read_table(source, ColumnMapping(delimiter=delimiter), strict=True)


def write_canonical(ds: Dataset) -> str:
    """Emit the canonical form; deterministic for a given Dataset."""
    rows = (
        (
            sid,
            iid,
            ds.instances[iid].kind.value,
            run.status.value,
            format_duration(run.time),
            format_rational(run.objective) if run.objective is not None else "",
            "1" if ds.solvers[sid] else "0",
            format_duration(ds.instances[iid].timeout),
        )
        for (sid, iid), run in sorted(ds.runs.items())
    )
    return csv_text(CANONICAL_COLUMNS, rows)


def save_canonical(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(write_canonical(ds), encoding="utf-8")


def known_solvers(ds: Dataset, solvers: Iterable[str], what: str) -> tuple[str, ...]:
    """``solvers`` deduplicated and sorted; DataError naming ``what`` if any is not in ``ds``."""
    ordered = tuple(sorted(set(solvers)))
    unknown = [s for s in ordered if s not in ds.solvers]
    if unknown:
        raise DataError(f"{what}: unknown solver ids {unknown}")
    return ordered


def filter_solvers(ds: Dataset, keep: Iterable[str]) -> Dataset:
    """Restrict a dataset to the given solvers; instances are unchanged."""
    keep_set = set(known_solvers(ds, keep, "filter_solvers"))
    solvers = {s: p for s, p in ds.solvers.items() if s in keep_set}
    runs = {key: r for key, r in ds.runs.items() if key[0] in keep_set}
    return Dataset(dict(ds.instances), solvers, runs)
