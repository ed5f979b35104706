"""Tabular results and their CSV/JSON renderings.

A table holds one entry per column: a 1-D float64 array, or a tuple of
cells. Both renderers read the columns directly and produce the text as
pieces of at most ``_PIECE`` rows, each one %-fill of a row template with
that piece's cells in row order, so rendering holds one piece at a time
and ``render`` is the join of the pieces:

* CSV: a tuple column's cell text is ``_csv_cell``; an array column's floats
  fill "%.17g" slots, the same text (17 digits round-trip a double exactly).
* JSON: the exact ``json.dumps(obj, indent=1)`` layout, each cell's text
  being ``_json_text``: ``repr`` of a finite float, else ``json.dumps`` of
  ``_json_cell`` (NaN becomes null; +-inf stays Infinity/-Infinity).

``_csv_cell`` and ``_json_text`` are the definitions of a cell's text.
Every check of a table (``_csv_text``: text that would break the CSV
layout) runs before its first piece is produced.

The pieces are formatted through ``_fork.ordered_map``. A piece's text
depends only on its rows, so the bytes are the same for any worker count.
Both formats are byte-deterministic for identical table values: no wall
clock, no environment, no dict-ordering hazards.
"""

from __future__ import annotations

import json
import math
from collections.abc import Generator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._fork import ordered_map
from .constants import SCHEMA_VERSION, constants_fingerprint

Cell = float | int | str | bool | None
Column = np.ndarray | tuple[Cell, ...]


def _cells(col: Column) -> list[Cell] | tuple[Cell, ...]:
    return col.tolist() if isinstance(col, np.ndarray) else col


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Named columns of equal length; ``cells[j]`` holds column ``columns[j]``."""

    columns: tuple[str, ...]
    cells: tuple[Column, ...]
    grid_n: int | None = None
    extra_metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.columns:
            raise ValueError("table needs at least one column")
        if len(self.cells) != len(self.columns):
            raise ValueError(f"{len(self.cells)} columns of cells for {len(self.columns)} names")
        for name, col in zip(self.columns, self.cells):
            if isinstance(col, np.ndarray):
                ok = col.ndim == 1 and col.dtype == np.float64
            else:
                ok = isinstance(col, tuple)
            if not ok:
                raise ValueError(f"column {name!r} is not a 1-D float64 array or a tuple of cells")
        if len(set(map(len, self.cells))) > 1:
            raise ValueError(f"column lengths differ: {[len(c) for c in self.cells]}")

    @classmethod
    def from_rows(
        cls,
        columns: tuple[str, ...],
        rows: tuple[tuple[Cell, ...], ...],
        grid_n: int | None = None,
        extra_metadata: tuple[tuple[str, str], ...] = (),
    ) -> ResultTable:
        """A table of tuple columns, from rows of ``len(columns)`` cells."""
        width = len(columns)
        if set(map(len, rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(rows) if len(r) != width)
            raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
        cells = tuple(zip(*rows)) if rows else ((),) * width
        return cls(tuple(columns), cells, grid_n, extra_metadata)

    @property
    def n_rows(self) -> int:
        return len(self.cells[0])

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        """The cells row by row, array cells as Python floats."""
        return tuple(zip(*map(_cells, self.cells)))

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


# rows per %-fill: a piece's cells, template and text are all that one
# rendering step holds, whatever the length of the table
_PIECE = 1 << 12


def _pieces(
    head: str, row: str, sep: str, tail: str, n: int, cells_of
) -> Generator[str, None, None]:
    """``head``; ``n`` copies of the ``row`` template joined by ``sep``, filled
    with ``cells_of(lo, hi)`` (the cells of rows [lo, hi) in row order) in
    pieces of at most ``_PIECE`` rows, through ``ordered_map``; and ``tail``."""
    yield head

    def piece(lo: int) -> str:
        # one %-operation per piece keeps the per-cell work in C
        hi = min(lo + _PIECE, n)
        template = (sep + row) * (hi - lo)
        return (template[len(sep):] if lo == 0 else template) % tuple(cells_of(lo, hi))

    yield from ordered_map(piece, range(0, n, _PIECE))
    yield tail


def _filler(table: ResultTable, converters):
    """``cells_of`` for ``_pieces``: rows [lo, hi) as (hi - lo) * k slots, column
    j's cells, through ``converters[j]`` unless that is None, in slots ``j::k``."""
    k = len(table.cells)

    def cells_of(lo: int, hi: int) -> list:
        slots = [None] * ((hi - lo) * k)
        for j, (col, text_of) in enumerate(zip(table.cells, converters)):
            cells = _cells(col[lo:hi])
            slots[j::k] = cells if text_of is None else map(text_of, cells)
        return slots

    return cells_of


def _csv_text(v: str, what: str) -> str:
    if any(ch in v for ch in ",\n\r"):
        raise ValueError(f"{what} {v!r} would corrupt the CSV layout")
    return v


def _csv_cell(v: Cell) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _csv_pieces(table: ResultTable) -> Generator[str, None, None]:
    md = table.metadata()
    head = f"# schema={md['schema_version']}, constants={md['constants_fingerprint']}"
    if "grid_n" in md:
        head += f", grid_n={md['grid_n']}"
    for k, v in table.extra_metadata:
        head += f", {_csv_text(k, 'metadata key')}={_csv_text(v, 'metadata value')}"
    head += "\n" + ",".join(_csv_text(c, "column name") for c in table.columns) + "\n"
    # text cells are checked here, before the first piece is taken
    for v in chain.from_iterable(c for c in table.cells if isinstance(c, tuple)):
        if isinstance(v, str):
            _csv_text(v, "cell")
    # "%.17g" % v is format(v, ".17g"), _csv_cell's text of a float
    converters = [None if isinstance(col, np.ndarray) else _csv_cell for col in table.cells]
    row = ",".join(["%.17g" if f is None else "%s" for f in converters]) + "\n"
    return _pieces(head, row, "", "", table.n_rows, _filler(table, converters))


def _json_cell(v: Cell) -> Cell:
    # JSON has no NaN; a fringe-null cell is an absent value either way
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def _json_text(v: Cell) -> str:
    """The text json.dumps writes for _json_cell(v)."""
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(_json_cell(v))


def _json_pieces(table: ResultTable) -> Generator[str, None, None]:
    obj = {"metadata": table.metadata(), "columns": list(table.columns), "rows": []}
    head = json.dumps(obj, indent=1).removesuffix("[]\n}")
    n = table.n_rows
    row = "  [\n   " + ",\n   ".join(["%s"] * len(table.columns)) + "\n  ]"
    brackets = ("[\n", "\n ]\n}\n") if n else ("[", "]\n}\n")
    cells_of = _filler(table, [_json_text] * len(table.columns))
    return _pieces(head + brackets[0], row, ",\n", brackets[1], n, cells_of)


def render_pieces(table: ResultTable, fmt: str) -> Generator[str, None, None]:
    """The text of ``render(table, fmt)`` as pieces of at most ``_PIECE``
    rows, each formatted as it is taken. Every check of the table and its
    header runs before this returns."""
    if fmt == "csv":
        return _csv_pieces(table)
    if fmt == "json":
        return _json_pieces(table)
    raise ValueError(f"unknown output format {fmt!r}")


def render(table: ResultTable, fmt: str) -> str:
    return "".join(render_pieces(table, fmt))
