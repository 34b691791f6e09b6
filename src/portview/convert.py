"""Adapter from external results tables to the canonical dataset format.

External competition result dumps rarely match the canonical schema, so a
column-mapping config describes how to read them: which source columns feed
each canonical column (several may be joined into one id), synonym tables for
status and problem-kind tokens, and constant defaults for columns the source
lacks (a global timeout, say). Conversion uses the same reader as ``ingest``
under its lenient policy: rows that violate the data model are coerced with a
warning instead of failing, so one bad line does not sink a whole table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from .runstore import CANONICAL_COLUMNS, ColumnMapping, DataError, read_table, write_canonical


def identity_mapping() -> ColumnMapping:
    return ColumnMapping()


def load_mapping(path: str | Path) -> ColumnMapping:
    """Read a mapping config from JSON; unlisted columns default to themselves."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    columns: dict[str, list[str]] = {}
    for name, value in raw.get("columns", {}).items():
        if name not in CANONICAL_COLUMNS:
            raise DataError(f"mapping: unknown canonical column {name!r}")
        columns[name] = [value] if isinstance(value, str) else list(value)
    return ColumnMapping(
        columns=columns,
        defaults={str(k): str(v) for k, v in raw.get("defaults", {}).items()},
        status_map={k.upper(): v.upper() for k, v in raw.get("status", {}).items()},
        kind_map={k.upper(): v.upper() for k, v in raw.get("kind", {}).items()},
        delimiter=raw.get("delimiter", ","),
        join=raw.get("join", "/"),
    )


def convert_table(
    source: str | Path | IO[str], mapping: ColumnMapping | None = None
) -> tuple[str, list[str]]:
    """Convert an external table to canonical text; returns (text, warnings)."""
    ds = read_table(source, mapping or identity_mapping(), strict=False)
    return write_canonical(ds), list(ds.warnings)
