"""Adapter from external results tables to the canonical dataset format.

External competition result dumps rarely match the canonical schema, so a
column-mapping config describes how to read them: which source columns feed
each canonical column (several may be joined into one id), synonym tables for
status and problem-kind tokens, and constant defaults for columns the source
lacks (a global timeout, say). Conversion takes each row down the same path
as ``ingest``, under the lenient policy: where ``ingest`` would fail, the row
is repaired and the warning is the same message plus its consequence
(``..., objective dropped``), so one bad line does not sink a whole table.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from .runstore import CANONICAL_COLUMNS, ColumnMapping, DataError, read_table, write_canonical


def _object(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise DataError(f"mapping: {key!r} must be a JSON object")
    return value


def _synonyms(raw: dict, key: str) -> dict[str, str]:
    table = _object(raw, key)
    for token, canonical in table.items():
        if not isinstance(canonical, str):
            raise DataError(f"mapping: {key!r} synonym for {token!r} must be a string")
    return {token.upper(): canonical.upper() for token, canonical in table.items()}


def load_mapping(path: str | Path) -> ColumnMapping:
    """Read a mapping config from JSON; unlisted columns default to themselves."""
    import json  # here alone: a run without ``--mapping`` never loads it

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"mapping: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError("mapping: the top level must be a JSON object")
    columns: dict[str, list[str]] = {}
    for name, value in _object(raw, "columns").items():
        if name not in CANONICAL_COLUMNS:
            raise DataError(f"mapping: unknown canonical column {name!r}")
        sources = [value] if isinstance(value, str) else value
        if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
            raise DataError(f"mapping: column {name!r} must be a string or a list of strings")
        columns[name] = sources
    join = raw.get("join", "/")
    if not isinstance(join, str):
        raise DataError("mapping: 'join' must be a string")
    return ColumnMapping(
        columns=columns,
        defaults={str(k): str(v) for k, v in _object(raw, "defaults").items()},
        status_map=_synonyms(raw, "status"),
        kind_map=_synonyms(raw, "kind"),
        delimiter=raw.get("delimiter", ","),
        join=join,
    )


def convert_table(
    source: str | Path | IO[str], mapping: ColumnMapping | None = None
) -> tuple[str, list[str]]:
    """Convert an external table to canonical text; returns (text, warnings)."""
    ds = read_table(source, mapping or ColumnMapping(), strict=False)
    return write_canonical(ds), list(ds.warnings)
