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
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .render import EXACT, csv_cell, format_duration, format_rational


class DataError(ValueError):
    """Invalid input data or a violated operation precondition."""


class ProblemKind(Enum):
    DECISION = "DECISION"
    MINIMIZE = "MINIMIZE"
    MAXIMIZE = "MAXIMIZE"

    def __init__(self, value: str) -> None:
        # a plain attribute: every row's shape check reads it, and an enum property is slow
        self.is_optimization = value != "DECISION"


class Status(Enum):
    COMPLETE = "COMPLETE"      # decision answered, or optimum found and proven
    INCOMPLETE = "INCOMPLETE"  # some solution found, optimality not proven
    UNSOLVED = "UNSOLVED"


# on CPython 3.11 a member read off its class costs about 20 global reads; loops test every run
_COMPLETE, _INCOMPLETE, _UNSOLVED = Status.COMPLETE, Status.INCOMPLETE, Status.UNSOLVED

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

# upper-case participant-flag token -> flag
_FLAG_TOKENS = {"1": True, "TRUE": True, "YES": True, "0": False, "FALSE": False, "NO": False}
_STATUS_RANK = {_UNSOLVED: 0, _INCOMPLETE: 1, _COMPLETE: 2}


# Most digits a number's integer numerator or power-of-ten denominator may need: a cap on
# the size of an input number alone, since any exact value prints however long it is.
_MAX_DIGITS = 4300

# Most characters of a cell that a message quotes, so a huge cell gives a short line.
_QUOTED_CHARS = 40


def _quoted(text: str) -> str:
    """``repr`` of ``text``, cut to ``_QUOTED_CHARS`` characters plus an ellipsis."""
    return repr(text if len(text) <= _QUOTED_CHARS else text[:_QUOTED_CHARS] + "…")


def _decimal(text: str, what: str) -> Decimal:
    """Finite decimal ``text`` within ``_MAX_DIGITS``; checked before any integer is built."""
    try:
        d = Decimal(text.strip(), EXACT)
    except InvalidOperation:
        raise DataError(f"unparseable {what} {_quoted(text)}") from None
    if not d.is_finite():
        raise DataError(f"non-finite {what} {_quoted(text)}")
    if len(text) <= _MAX_DIGITS and "e" not in text and "E" not in text:
        return d  # the text's own digits bound the numerator and the denominator
    _, digits, exponent = d.as_tuple()
    # zeros that end a fraction count in neither the numerator nor the denominator
    zeros = min(len(digits) - len(bytes(digits).rstrip(b"\0")), max(-exponent, 0))
    if max(len(digits) - zeros + max(exponent, 0), 1 - exponent - zeros) > _MAX_DIGITS:
        raise DataError(f"{what} {_quoted(text)} needs more than {_MAX_DIGITS} digits")
    return d


def parse_duration(text: str, *, what: str = "time") -> Fraction:
    """Parse a duration in seconds to an exact rational, rounded to milliseconds."""
    d = _decimal(text, what)
    ms = int(d.scaleb(3, EXACT).to_integral_value(ROUND_HALF_EVEN, EXACT))
    return Fraction(ms, 1000)


def parse_rational(text: str, *, what: str = "objective") -> Fraction:
    """Parse finite decimal or ``p/q`` text to an exact rational."""
    text = text.strip()
    if "/" not in text:
        return Fraction(_decimal(text, what))
    # p and q are integers: their digits, leading zeros too, are what int() would convert
    if any(sum(map(str.isdigit, part)) > _MAX_DIGITS for part in text.split("/")):
        raise DataError(f"{what} {_quoted(text)} needs more than {_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DataError(f"unparseable {what} {_quoted(text)}") from None


class CheckedRecord:
    """Mixin, listed before a record's fields: ``_make`` and ``_replace`` run ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class _InstanceFields(NamedTuple):
    instance_id: str
    kind: ProblemKind
    timeout: Fraction


class InstanceMeta(CheckedRecord, _InstanceFields):
    """Identity and problem kind of one benchmark instance."""

    __slots__ = ()

    def __new__(cls, instance_id: str, kind: ProblemKind, timeout: Fraction) -> InstanceMeta:
        if timeout.numerator <= 0:
            raise DataError(f"instance {_quoted(instance_id)}: timeout must be positive")
        return tuple.__new__(cls, (instance_id, kind, timeout))


class _RunFields(NamedTuple):
    solver_id: str
    instance_id: str
    status: Status
    time: Fraction
    objective: Fraction | None = None


class RunRecord(CheckedRecord, _RunFields):
    """One solver's observed result on one instance."""

    __slots__ = ()

    def __new__(
        cls,
        solver_id: str,
        instance_id: str,
        status: Status,
        time: Fraction,
        objective: Fraction | None = None,
    ) -> RunRecord:
        if time.numerator < 0:  # the sign alone: cheaper than a Fraction compare
            raise DataError(f"run ({_quoted(solver_id)}, {_quoted(instance_id)}): negative time")
        return tuple.__new__(cls, (solver_id, instance_id, status, time, objective))


class Dataset:
    """Immutable, validated competition results for one track.

    ``solvers`` maps solver id to its participant flag. ``runs`` holds exactly
    one record per (solver, instance) pair. ``warnings`` collects non-fatal
    ingestion notes (clamped times, inconsistent objectives) and is excluded
    from equality. ``quality_ranking``, keyed by ``quality_key``, is ranked once
    per ingest (``filter_solvers`` filters its parent's ranking) and is not a
    field, so it takes no part in equality or repr either. Setting or deleting
    an attribute raises ``AttributeError``.
    """

    def __init__(
        self,
        instances: dict[str, InstanceMeta],
        solvers: dict[str, bool],
        runs: dict[tuple[str, str], RunRecord],
        warnings: tuple[str, ...] = (),
    ) -> None:
        vars(self).update(instances=instances, solvers=solvers, runs=runs, warnings=warnings)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"a Dataset is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.instances, self.solvers, self.runs) == (
            other.instances, other.solvers, other.runs
        )

    __hash__ = None  # equal datasets hold equal dicts, which have no hash

    def __repr__(self) -> str:
        return (
            f"Dataset(instances={self.instances!r}, solvers={self.solvers!r}, "
            f"runs={self.runs!r}, warnings={self.warnings!r})"
        )

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

    @cached_property
    def quality_ranking(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """Per instance, all solver ids best first, in sorted tuples of equal ``quality_key``.

        COMPLETE runs share the top key and UNSOLVED runs the bottom one, so only
        INCOMPLETE runs are keyed and sorted. Ranked once per ingest (``filter_solvers``
        filters its parent's ranking); ``borda`` and ``best_group`` read it.
        """
        buckets = {iid: ([], [], []) for iid in self.instances}  # COMPLETE, INCOMPLETE, UNSOLVED
        for run in self.runs.values():
            complete, incomplete, unsolved = buckets[run.instance_id]
            if run.status is _INCOMPLETE:
                incomplete.append(run)
            else:
                (complete if run.status is _COMPLETE else unsolved).append(run.solver_id)
        ranking = {}
        for iid, (complete, incomplete, unsolved) in buckets.items():
            kind = self.instances[iid].kind
            incomplete.sort()  # by solver id: an instance's runs differ there first
            keys = {r.solver_id: quality_key(kind, r.status, r.objective) for r in incomplete}
            best_first = sorted(keys, key=keys.__getitem__, reverse=True)  # stable: ids ascend
            groups = (tuple(group) for _, group in groupby(best_first, keys.__getitem__))
            ranked = (tuple(sorted(complete)), *groups, tuple(sorted(unsolved)))
            ranking[iid] = tuple(group for group in ranked if group)
        return ranking


def run_shape_violation(
    kind: ProblemKind, status: Status, objective: Fraction | None
) -> str | None:
    """The data-model rule a run of this shape breaks on a ``kind`` instance, or None."""
    if status is _UNSOLVED:
        if objective is not None:
            return "unsolved run must not carry an objective"
    elif kind.is_optimization:
        if objective is None:
            return "solved run on an optimization instance requires an objective"
    elif status is _INCOMPLETE:
        return "INCOMPLETE is not valid on a decision instance"
    elif objective is not None:
        return "decision instance must not carry an objective"
    return None


def quality_key(
    kind: ProblemKind, status: Status, objective: Fraction | None
) -> tuple[int, Fraction | int]:
    """Totally ordered quality of a well-shaped run on a ``kind`` instance; larger is better.

    Only two incomplete solutions compare by objective: a proven-complete run
    outranks any incomplete one regardless of recorded objective values.
    """
    if status is _INCOMPLETE:
        return _STATUS_RANK[status], -objective if kind is ProblemKind.MINIMIZE else objective
    return _STATUS_RANK[status], 0


def _complete(
    instances: dict[str, InstanceMeta],
    solvers: dict[str, bool],
    runs: dict[tuple[str, str], RunRecord],
    warnings: list[str],
) -> Dataset:
    """Complete checked ``runs`` in place: clamp times, fill missing pairs, and warn of
    each objective value that contradicts proven-optimal runs."""
    complete, incomplete = {}, {}  # instance id -> its COMPLETE runs, its INCOMPLETE runs
    for key, run in runs.items():
        timeout, time = instances[run.instance_id].timeout, run.time
        # read_table shares parsed values; an integer compare (positive denominators) for the rest
        if time is not timeout and (
            time.numerator * timeout.denominator > timeout.numerator * time.denominator
        ):
            warnings.append(
                f"run ({_quoted(run.solver_id)}, {_quoted(run.instance_id)}): time "
                f"{format_duration(run.time)} exceeds timeout, clamped to "
                f"{format_duration(timeout)}"
            )
            run = runs[key] = RunRecord(
                run.solver_id, run.instance_id, run.status, timeout, run.objective
            )
        if run.status is not _UNSOLVED:
            by_status = complete if run.status is _COMPLETE else incomplete
            by_status.setdefault(run.instance_id, []).append(run)
    if len(runs) < len(solvers) * len(instances):  # every key is a (solver, instance) pair
        for sid in solvers:
            for iid, meta in instances.items():
                if (sid, iid) not in runs:
                    runs[(sid, iid)] = RunRecord(sid, iid, _UNSOLVED, meta.timeout)
    for iid, meta in sorted(instances.items()):
        if not meta.kind.is_optimization or iid not in complete:
            continue
        objectives = {r.objective for r in complete[iid]}
        if len(objectives) > 1:
            warnings.append(
                f"instance {_quoted(iid)}: proven-optimal runs disagree on the objective value"
            )
        minimize = meta.kind is ProblemKind.MINIMIZE
        best = min(objectives) if minimize else max(objectives)
        for r in sorted(incomplete.get(iid, ())):  # an instance's runs sort by solver id
            worse_ok = r.objective >= best if minimize else r.objective <= best
            if not worse_ok:
                warnings.append(
                    f"run ({_quoted(r.solver_id)}, {_quoted(iid)}): incomplete objective "
                    f"{format_rational(r.objective)} is better than the proven optimum "
                    f"{format_rational(best)}"
                )
    return Dataset(instances, solvers, runs, tuple(warnings))


def build_dataset(
    instances: Iterable[InstanceMeta],
    solvers: Mapping[str, bool],
    runs: Iterable[RunRecord],
) -> Dataset:
    """Assemble and validate a Dataset, filling missing pairs as UNSOLVED."""
    inst_map: dict[str, InstanceMeta] = {}
    for meta in instances:
        if meta.instance_id in inst_map:
            raise DataError(f"duplicate instance {_quoted(meta.instance_id)}")
        inst_map[meta.instance_id] = meta
    solver_map = dict(solvers)
    for what, ids in (("instance", inst_map), ("solver", solver_map)):
        for ident in ids:  # the ids that read_table never produces from a file
            if not ident or ident != ident.strip() or "\r" in ident:
                raise DataError(f"{what} id {_quoted(ident)} is empty, padded or holds a "
                                "carriage return, which the canonical table cannot carry")

    run_map: dict[tuple[str, str], RunRecord] = {}
    for run in runs:
        key = (run.solver_id, run.instance_id)
        if run.solver_id not in solver_map:
            raise DataError(f"run references unknown solver {_quoted(run.solver_id)}")
        if run.instance_id not in inst_map:
            raise DataError(f"run references unknown instance {_quoted(run.instance_id)}")
        if key in run_map:
            raise DataError(
                f"duplicate run for solver {_quoted(key[0])} on instance {_quoted(key[1])}"
            )
        broken = run_shape_violation(inst_map[run.instance_id].kind, run.status, run.objective)
        if broken:
            raise DataError(f"run ({_quoted(run.solver_id)}, {_quoted(run.instance_id)}): {broken}")
        run_map[key] = run
    return _complete(inst_map, solver_map, run_map, [])


class ColumnMapping:
    """How to pull canonical columns out of a results table.

    ``columns`` maps canonical names to one or more source column names
    (multiple names are joined with ``join`` to form a single id). ``defaults``
    supplies a constant cell value for canonical columns with no source column.
    A canonical column listed in neither is read from the source column of the
    same name. ``status_map`` / ``kind_map`` translate source tokens
    (case-insensitive) to canonical ones before normal parsing. A mapping left
    out starts as a new empty dict.
    """

    def __init__(
        self,
        columns: dict[str, list[str]] | None = None,
        defaults: dict[str, str] | None = None,
        status_map: dict[str, str] | None = None,
        kind_map: dict[str, str] | None = None,
        delimiter: str = ",",
        join: str = "/",
    ) -> None:
        self.columns = {} if columns is None else columns
        self.defaults = {} if defaults is None else defaults
        self.status_map = {} if status_map is None else status_map
        self.kind_map = {} if kind_map is None else kind_map
        self.delimiter = delimiter
        self.join = join


def _column_plan(header: Sequence[str], mapping: ColumnMapping):
    """Resolve ``mapping`` against ``header`` once.

    Returns a function from a row's cells to the canonical cells, unstripped.
    Joined and default columns are appended to the row; all are picked by index.
    """
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
    if not extras:
        return pick
    return lambda cells: pick(cells + [f(cells) for f in extras])


def _token_table(enum: type[Enum], synonyms: Mapping[str, str]) -> dict[str, Enum | None]:
    """Upper-case token -> member; a synonym of no canonical token maps to None.

    Holds no token that upper-casing changes: a cell found as written maps as its upper case.
    """
    table: dict[str, Enum | None] = {m.value: m for m in enum}
    table.update({t: table.get(c) for t, c in synonyms.items() if t == t.upper()})
    return table


def read_table(
    source: str | Path | IO[str], mapping: ColumnMapping, *, strict: bool
) -> Dataset:
    """Read a delimiter-separated results table into a validated Dataset.

    Every row takes one path, and the policy only decides what a violation
    does: strict raises its message as a DataError, lenient repairs the row and
    warns with the message and its consequence. An unknown status or unusable
    time makes the run UNSOLVED without an objective, a bad flag makes a
    non-participant, a bad objective is dropped, and each broken
    ``run_shape_violation`` rule drops the objective if that clears or changes
    the complaint, else records the run as UNSOLVED.
    Both policies raise on unreadable input (not UTF-8, or a field the csv
    module rejects), a delimiter that is not one character, a malformed
    header or row shape, an empty id, a repeated (solver, instance) pair, an
    unknown problem kind, a bad timeout, and a redeclared instance or
    participant flag. Row numbers in messages count the header as row 1.
    A path is read once, as bytes, and checked to be UTF-8 before any row is
    parsed; the rows are then decoded from those bytes as they are read, with
    universal newlines. While parsing, the reader holds the file's bytes and
    one string per distinct solver or instance id, which every key and record
    shares.
    """
    if isinstance(source, (str, Path)):
        raw = Path(source).read_bytes()  # once: a pipe gives its bytes to one read only
        try:
            raw.decode("utf-8-sig")  # whole: a message counts bytes from the text's start
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not UTF-8 text: {exc}") from None
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig") as text:
            return read_table(text, mapping, strict=strict)
    try:
        reader = csv.reader(source, delimiter=mapping.delimiter)
    except TypeError:
        raise DataError(f"delimiter {mapping.delimiter!r} is not a single character") from None
    try:
        return _read_rows(reader, mapping, strict)
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: {exc}") from None


def _read_rows(reader, mapping: ColumnMapping, strict: bool) -> Dataset:
    """``read_table``'s pass over the rows of a csv reader, header first."""
    header = next(reader, None)
    if header is None:
        raise DataError("empty input: missing header row")
    canonical_cells = _column_plan(header, mapping)
    kinds = _token_table(ProblemKind, mapping.kind_map)
    statuses = _token_table(Status, mapping.status_map)

    warnings: list[str] = []

    def violation(message: str, consequence: str) -> None:
        if strict:
            raise DataError(message)
        warnings.append(f"{message}, {consequence}")

    instances: dict[str, InstanceMeta] = {}
    # rows repeat times, timeouts and objectives: parse each text once, keep only successes
    durations: dict[str, Fraction] = {}
    objectives: dict[str, Fraction] = {}
    solver_flags: dict[str, bool] = {}
    runs: dict[tuple[str, str], RunRecord] = {}
    ids: dict[str, str] = {}  # one string per distinct id, shared by every key and record
    strip, width, flags = str.strip, len(header), _FLAG_TOKENS
    for row_no, cells in enumerate(reader, start=2):
        if not "".join(cells).strip():
            continue
        if len(cells) != width:
            raise DataError(f"row {row_no}: expected {width} fields, got {len(cells)}")
        solver, instance, kind_text, status_text, time_text, objective_text, flag_text, \
            timeout_text = map(strip, canonical_cells(cells))
        if not solver or not instance:
            raise DataError(f"row {row_no}: empty solver or instance id")
        solver, instance = ids.setdefault(solver, solver), ids.setdefault(instance, instance)
        key = (solver, instance)
        if key in runs:
            raise DataError(
                f"row {row_no}: duplicate run for solver {_quoted(solver)} "
                f"on instance {_quoted(instance)}"
            )
        # a token is looked up as written first: canonical files spell it in upper case
        kind = kinds.get(kind_text) or kinds.get(kind_text.upper())
        if kind is None:
            raise DataError(f"row {row_no}: unknown problem kind {_quoted(kind_text)}")
        status = statuses.get(status_text) or statuses.get(status_text.upper())
        if status is None:
            violation(f"row {row_no}: unknown status {_quoted(status_text)}", "recorded as UNSOLVED")
        participant = flags[flag_text] if flag_text in flags else flags.get(flag_text.upper())
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
            if time.numerator < 0:  # the sign alone: cheaper than a Fraction compare
                raise DataError(f"run ({_quoted(solver)}, {_quoted(instance)}): negative time")
        except DataError as exc:
            violation(f"row {row_no}: {exc}", "recorded as UNSOLVED")
            time, status = timeout, None
        if status is None:
            # unknown status or unusable time, already reported: drop the objective too
            status, objective = _UNSOLVED, None
        # one broken rule at a time; the objective and the status each change at most once
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
                status = _UNSOLVED
        if meta.kind is not kind or (meta.timeout is not timeout and meta.timeout != timeout):
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
        # checked above: the time's sign, or the instance's timeout in its place
        runs[key] = tuple.__new__(RunRecord, (solver, instance, status, time, objective))

    return _complete(instances, solver_flags, runs, warnings)


def ingest(source: str | Path | IO[str], *, delimiter: str = ",") -> Dataset:
    """Read a canonical results table into a validated Dataset.

    The header must carry the canonical column names (any order, any case).
    Strict: the first data-model violation raises DataError; see
    ``read_table``. Row numbers in error messages count the header as row 1.
    """
    return read_table(source, ColumnMapping(delimiter=delimiter), strict=True)


def _canonical_lines(ds: Dataset) -> Iterator[str]:
    """The canonical form's lines, header first, over the sorted solver x instance grid. Per
    call, each distinct id (as ``csv_cell`` quotes it), instance, solver and status is rendered
    once, and each distinct duration and objective once, keyed by its (numerator, denominator)."""
    texts = {}  # (renderer, numerator, denominator) -> cell: a Fraction hashes slowly

    def cell(render, value):
        key = render, value.numerator, value.denominator
        return texts.get(key) or texts.setdefault(key, render(value))

    statuses = {id(member): member.value for member in Status}  # an enum member hashes slowly
    yield ",".join(CANONICAL_COLUMNS) + "\n"
    cells = [(iid, f",{csv_cell(iid)},{meta.kind.value},",
              f",{cell(format_duration, meta.timeout)}\n")
             for iid, meta in sorted(ds.instances.items())]
    for sid in ds.solver_ids:
        solver, flag = csv_cell(sid), "1" if ds.solvers[sid] else "0"
        for iid, head, tail in cells:
            run = ds.runs[sid, iid]
            time = cell(format_duration, run.time)
            value = "" if run.objective is None else cell(format_rational, run.objective)
            yield f"{solver}{head}{statuses[id(run.status)]},{time},{value},{flag}{tail}"


def write_canonical(ds: Dataset) -> str:
    """Emit the canonical form; deterministic for a given Dataset (see ``_canonical_lines``)."""
    return "".join(_canonical_lines(ds))


def save_canonical(ds: Dataset, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as out:
        out.writelines(_canonical_lines(ds))  # line by line: no whole-text copy, no encoded one


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
    child = Dataset(dict(ds.instances), solvers, runs)
    # the parent's ranking, filtered: stored where ``cached_property`` keeps its value
    ranking = vars(child)["quality_ranking"] = {}
    for iid, groups in ds.quality_ranking.items():
        kept = (tuple(s for s in group if s in keep_set) for group in groups)
        ranking[iid] = tuple(group for group in kept if group)
    return child
