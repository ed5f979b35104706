"""Tabular results and their CSV/JSON renderings.

Both formats are byte-deterministic for identical table values: no wall
clock, no environment, no dict-ordering hazards. Floats render with 17
significant digits in CSV, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

from .constants import SCHEMA_VERSION, constants_fingerprint

Cell = float | int | str | bool | None


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    grid_n: int | None = None
    extra_metadata: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        if not self.columns:
            raise ValueError("table needs at least one column")
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(self.rows) if len(r) != width)
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    def metadata(self) -> dict[str, object]:
        md: dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "constants_fingerprint": constants_fingerprint(),
        }
        if self.grid_n is not None:
            md["grid_n"] = self.grid_n
        for k, v in self.extra_metadata:
            md[k] = v
        return md


def _csv_cell(v: Cell) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    if any(ch in v for ch in ",\n\r"):
        raise ValueError(f"cell {v!r} would corrupt the CSV layout")
    return v


def to_csv(table: ResultTable) -> str:
    md = table.metadata()
    head = f"# schema={md['schema_version']}, constants={md['constants_fingerprint']}"
    if "grid_n" in md:
        head += f", grid_n={md['grid_n']}"
    for k, v in table.extra_metadata:
        head += f", {k}={v}"
    head += "\n" + ",".join(table.columns) + "\n"
    if set(map(type, chain.from_iterable(table.rows))) == {float}:
        # "%.17g" % v is format(v, ".17g"). One template over every cell keeps
        # the per-cell work in C; the head goes into the template (its "%"
        # escaped) so a large table is not copied once more to prepend it.
        row = ",".join(["%.17g"] * len(table.columns)) + "\n"
        template = head.replace("%", "%%") + row * len(table.rows)
        return template % tuple(chain.from_iterable(table.rows))
    return head + "".join(",".join(map(_csv_cell, row)) + "\n" for row in table.rows)


def _json_cell(v: Cell) -> Cell:
    # JSON has no NaN; a fringe-null cell is an absent value either way
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def to_json(table: ResultTable) -> str:
    obj = {
        "metadata": table.metadata(),
        "columns": list(table.columns),
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(obj, indent=1) + "\n"


def from_json(text: str) -> ResultTable:
    obj = json.loads(text)
    md = obj["metadata"]
    known = {"schema_version", "constants_fingerprint", "grid_n"}
    extra = tuple((k, str(v)) for k, v in md.items() if k not in known)
    return ResultTable(
        columns=tuple(obj["columns"]),
        rows=tuple(tuple(v for v in row) for row in obj["rows"]),
        grid_n=md.get("grid_n"),
        extra_metadata=extra,
    )


def render(table: ResultTable, fmt: str) -> str:
    if fmt == "csv":
        return to_csv(table)
    if fmt == "json":
        return to_json(table)
    raise ValueError(f"unknown output format {fmt!r}")
