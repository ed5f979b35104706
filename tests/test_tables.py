"""Result tables: cell rendering, headers, JSON round trip."""

import json
import math
import random
import struct

import numpy as np
import pytest

from focsim.constants import SCHEMA_VERSION, constants_fingerprint
from focsim.tables import (
    _PIECE,
    ResultTable,
    _csv_cell,
    _json_cell,
    render,
    render_pieces,
)

import _oracles


def test_row_width_is_enforced():
    with pytest.raises(ValueError):
        ResultTable.from_rows(columns=(), rows=())
    with pytest.raises(ValueError):
        ResultTable.from_rows(columns=("a", "b"), rows=((1.0,),))
    # the message names the first bad row, whichever way it is wrong
    rows = ((1.0, 2.0), (3.0, 4.0), (5.0,), (6.0, 7.0, 8.0))
    with pytest.raises(ValueError, match=r"^row 2 has 1 cells, expected 2$"):
        ResultTable.from_rows(columns=("a", "b"), rows=rows)
    with pytest.raises(ValueError, match=r"^row 0 has 3 cells, expected 2$"):
        ResultTable.from_rows(columns=("a", "b"), rows=rows[3:] + rows[:3])


def test_columns_are_checked():
    bad_cells = (
        (np.zeros(2),),  # one column of cells for two names
        (np.zeros(2), (1.0,)),  # unequal lengths
        (np.zeros((2, 1)), (1.0, 2.0)),  # not 1-D
        (np.arange(2), (1.0, 2.0)),  # not float64
        ([1.0, 2.0], (1.0, 2.0)),  # neither an array nor a tuple
    )
    for cells in bad_cells:
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), cells=cells)


def test_rows_are_derived_from_the_columns():
    t = ResultTable(columns=("a", "b"), cells=(np.array([0.5, -0.0]), (1, None)))
    assert t.n_rows == 2
    assert t.rows == ((0.5, 1), (-0.0, None))
    assert all(type(row[0]) is float for row in t.rows)
    view = _oracles.table_view
    assert view(t) == view(ResultTable.from_rows(columns=("a", "b"), rows=t.rows))
    assert view(t) != view(ResultTable.from_rows(columns=("a", "c"), rows=t.rows))
    assert ResultTable.from_rows(columns=("a",), rows=()).rows == ()


def _per_cell_csv(t: ResultTable) -> str:
    """Reference rendering: every cell through _csv_cell, one row at a time."""
    head = f"# schema={SCHEMA_VERSION}, constants={constants_fingerprint()}"
    if t.grid_n is not None:
        head += f", grid_n={t.grid_n}"
    for k, v in t.extra_metadata:
        head += f", {k}={v}"
    lines = [head, ",".join(t.columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in t.rows)
    return "\n".join(lines) + "\n"


def _dumps_json(t: ResultTable) -> str:
    """Reference rendering: json.dumps over every cell through _json_cell."""
    obj = {
        "metadata": t.metadata(),
        "columns": list(t.columns),
        "rows": [[_json_cell(v) for v in row] for row in t.rows],
    }
    return json.dumps(obj, indent=1) + "\n"


def _assert_reference_renderings(t: ResultTable) -> None:
    assert render(t, "csv") == _per_cell_csv(t)
    assert render(t, "json") == _dumps_json(t)


def _random_doubles(rng: random.Random, n: int) -> list[float]:
    """Doubles from uniform random bit patterns: every exponent, NaN payloads."""
    return [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(n)]


_EDGE_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0,
)


@pytest.mark.parametrize("width", [1, 2, 5])
def test_all_float_csv_matches_the_per_cell_rendering(width):
    rng = random.Random(width)
    cells = list(_EDGE_FLOATS) + _random_doubles(rng, 2000)
    cells += [0.0] * (-len(cells) % width)
    n_first = len(cells) // width
    # then enough rows for both seams of two pieces and a row: every count
    # at a seam, and one row either side of it
    cells += _random_doubles(rng, (2 * _PIECE + 1) * width - len(cells))
    cols = [cells[j::width] for j in range(width)]
    # "%" in the column names and the metadata must come out literally
    names = tuple(f"c{j}%s" for j in range(width))
    md = {"grid_n": 7, "extra_metadata": (("metric", "100%d"),)}
    for n in (n_first, 1, 0, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 1):
        arrays = ResultTable(names, tuple(np.array(c[:n], dtype=np.float64) for c in cols), **md)
        tuples = ResultTable(names, tuple(tuple(c[:n]) for c in cols), **md)
        for fmt in ("csv", "json"):
            # the array template and the per-cell path give the same bytes
            assert render(arrays, fmt) == render(tuples, fmt), (fmt, n)
        _assert_reference_renderings(arrays)


@pytest.mark.parametrize(
    "odd",
    [
        7, 0, True, False, None, "linear", 'say "\u00e9t\u00e9" \\ \u2019',
        np.float64(0.1), np.float64(math.nan), np.float64(-math.inf),
    ],
    ids=repr,
)
def test_mixed_csv_matches_the_per_cell_rendering(odd):
    # one cell of another type among floats takes its column through the
    # per-cell path
    rows = ((0.5, -0.0, math.inf), (1e-300, odd, math.nan), (2.0, 3.0, -math.inf))
    md = {"extra_metadata": (("k%s", "50%"),)}
    t = ResultTable.from_rows(columns=("a%", "b", "c"), rows=rows, **md)
    _assert_reference_renderings(t)
    a, b, c = t.cells
    with_arrays = ResultTable(t.columns, (np.array(a), b, np.array(c)), **md)
    assert render(with_arrays, "csv") == render(t, "csv")
    assert render(with_arrays, "json") == render(t, "json")
    _assert_reference_renderings(ResultTable.from_rows(columns=("b",), rows=((odd,),)))


def test_csv_cell_forms():
    t = ResultTable.from_rows(
        columns=("f", "i", "s", "b", "n"),
        rows=((0.1, 7, "linear", True, None), (-2.5e-17, 0, "x", False, None)),
    )
    body = render(t, "csv").splitlines()
    assert body[1] == "f,i,s,b,n"
    assert body[2] == "0.10000000000000001,7,linear,true,"
    assert body[3] == "-2.4999999999999999e-17,0,x,false,"
    with pytest.raises(ValueError):
        render(ResultTable.from_rows(columns=("s",), rows=(("a,b",),)), "csv")


@pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb"], ids=repr)
def test_csv_header_text_is_checked_like_a_cell(bad):
    # a 2-name header over 1-cell rows, or a broken metadata line, is refused
    tables = (
        ResultTable.from_rows(columns=(bad,), rows=((1.0,),)),
        ResultTable(columns=(bad,), cells=(np.array([1.0]),)),
        ResultTable.from_rows(columns=("a",), rows=((1.0,),), extra_metadata=(("metric", bad),)),
        ResultTable.from_rows(columns=("a",), rows=((1.0,),), extra_metadata=((bad, "x"),)),
        ResultTable.from_rows(columns=("a",), rows=((1.0,),) * _PIECE + ((bad,),)),
    )
    for t in tables:
        with pytest.raises(ValueError, match="would corrupt the CSV layout"):
            render(t, "csv")
        # before the first piece is taken, so nothing of it is written
        with pytest.raises(ValueError, match="would corrupt the CSV layout"):
            render_pieces(t, "csv")
        # JSON escapes the same text
        assert _oracles.table_view_from_json(render(t, "json")) == _oracles.table_view(t)


def test_csv_header_carries_the_build_metadata():
    t = ResultTable.from_rows(
        columns=("a",),
        rows=((1.0,),),
        grid_n=4096,
        extra_metadata=(("metric", "principal"),),
    )
    head = render(t, "csv").splitlines()[0]
    assert head == (
        f"# schema={SCHEMA_VERSION}, constants={constants_fingerprint()},"
        " grid_n=4096, metric=principal"
    )
    bare = render(ResultTable.from_rows(columns=("a",), rows=()), "csv").splitlines()[0]
    assert "grid_n" not in bare


def test_json_replaces_nan_and_round_trips():
    t = ResultTable.from_rows(
        columns=("x", "err"),
        rows=((1.0, float("nan")), (2.0, 0.25)),
        grid_n=16,
        extra_metadata=(("metric", "axis_ratio"),),
    )
    obj = json.loads(render(t, "json"))
    assert obj["rows"][0][1] is None
    assert obj["metadata"]["constants_fingerprint"] == constants_fingerprint()
    assert obj["metadata"]["grid_n"] == 16
    columns, grid_n, extra_metadata, rows = _oracles.table_view_from_json(render(t, "json"))
    assert columns == t.columns
    assert grid_n == 16
    assert extra_metadata == t.extra_metadata
    assert rows[1] == (2.0, 0.25)
    assert rows[0][1] is None  # the gap stays a gap


def test_render_dispatch():
    t = ResultTable.from_rows(columns=("a",), rows=((1,),))
    assert render(t, "csv") == _per_cell_csv(t)
    assert render(t, "json") == _dumps_json(t)
    with pytest.raises(ValueError):
        render(t, "yaml")


def test_seventeen_digits_round_trip_doubles():
    values = [0.1, 1.0 / 3.0, 2.718281828459045, 1e-300, 6.02e23, -0.0]
    for v in values:
        assert float(format(v, ".17g")) == v
    assert math.copysign(1.0, float(format(-0.0, ".17g"))) == -1.0
