"""CSV and JSON writers: the template renderer writes the same bytes as the old writers.

reference_write_csv and reference_write_json are the writers as they were
before rows were rendered through cached % templates (cell by cell through
_fmt / _json_value, and json.dump with indent=2).  Every table below must come
out byte for byte the same from cli.write_csv and cli.write_json.
"""

import io
import json
import math

import numpy as np
import pytest

from fockport.cli import _RowRenderer, write_csv, write_json


def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.*g" % (precision, value)
    return str(value)


def _json_value(value, precision: int):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    # round through the same %g formatting as CSV so both formats agree
    return float("%.*g" % (precision, float(value)))


def reference_write_csv(stream, columns, rows, precision: int):
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v, precision) for v in row) + "\n")


def reference_write_json(stream, meta, columns, rows, precision: int):
    payload = {
        "meta": meta,
        "rows": [
            {col: _json_value(v, precision) for col, v in zip(columns, row)}
            for row in rows
        ],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


COLUMNS = ("q", "fidelity", "bound", "probability")
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
               1.0, 100.0, 1e-5, 1e16, 0.1, 2.0 / 3.0, 123456789012345.67]

TABLES = {
    "empty": (COLUMNS, []),
    "teleport": (COLUMNS, [(0, 0.25, 1.0, 0.5), (1, None, 0.75, 0.0),
                           (2, 0.9927, 0.999, 1e-20), ("average", 0.875, None, None)]),
    "edge floats": (("x", "y"), [(i, v) for i, v in enumerate(EDGE_FLOATS)]),
    "numpy cells": (COLUMNS, [(np.int64(3), np.float64(0.1), np.float64(-0.0), np.int64(-7)),
                              (np.int32(2), np.float32(0.1), np.bool_(True), np.uint8(255))]),
    "int and bool": (("a", "b", "c"), [(True, False, 2 ** 70), (-5, 0, np.int64(2 ** 62))]),
    "escaping": (("name", "50%", 'say "hi"'),
                 [('a "quoted" \\ path\n\ttab é ✓ %s %d', 1.5, "x"), ("average", None, "%")]),
    "signature changes": (COLUMNS, [(0, 0.5, 0.5, 0.5), (1, None, 0.5, 0.0), (2, 0.5, 0.5, 0.5),
                                    ("average", 0.5, None, None), (3, 0.25, 1, np.float64(1.5)),
                                    [4, 0.125, 0.5, 0.25]]),
    "all none": (("a", "b"), [(None, None), ()]),
    "ragged": (("a", "b", "c"), [(1.5,), (1, 2.5, 3, 4.5, "extra"), (0.5, 0.25, 0.125)]),
}
META = {"kind": "teleport", "n": 20, "beta_deg": 85.5, "alpha": 3.0, "flag": True,
        "spec": {"q_list": [1, 2, {"deep": [None, -0.0, math.inf]}], "empty": {}, "none": []},
        "text": 'a "b" \\ é'}


@pytest.mark.parametrize("precision", [1, 12, 17])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_csv_matches_reference(table, precision):
    columns, rows = TABLES[table]
    got, want = io.StringIO(), io.StringIO()
    write_csv(got, columns, rows, precision)
    reference_write_csv(want, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("meta", [META, {}], ids=["nested meta", "empty meta"])
@pytest.mark.parametrize("precision", [1, 12, 17])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_json_matches_reference(table, precision, meta):
    columns, rows = TABLES[table]
    got, want = io.StringIO(), io.StringIO()
    write_json(got, meta, columns, rows, precision)
    reference_write_json(want, meta, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


def test_rows_may_be_a_generator():
    columns, rows = TABLES["teleport"]
    got, want = io.StringIO(), io.StringIO()
    write_json(got, META, columns, iter(rows), 12)
    reference_write_json(want, META, columns, rows, 12)
    assert got.getvalue() == want.getvalue()


# Rows are rendered a block at a time; these tables put every kind of type
# change at, next to and away from the block edges.
B = _RowRenderer.BLOCK_ROWS


def _uniform(count):
    return [(i, 0.1 * i + 1e-3, math.sqrt(i), -1.0 / (i + 1)) for i in range(count)]


def _with(rows, changes):
    rows = list(rows)
    for i, row in changes.items():
        rows[i] = row
    return rows


def _typed_cells(count):
    cells = (lambda i: (bool(i % 3), np.float64(i / 7), np.int64(i - 500), np.float32(i / 3)),
             lambda i: (np.bool_(i % 2), np.int32(i), np.uint8(i % 256), i / 9))
    return [cells[i * 2 // count](i) for i in range(count)]


def _figure_4_shape(sizes=(201, 2 * B + 1, B + 3)):
    """Runs of rows whose first two cells are one int and one float object, as figure 4's N and
    beta_deg are, each run ending inside a block and the longest spanning three."""
    rows = []
    for size in sizes:
        n, beta = 10 ** 6 + size, 90.0 / (size + 0.5)
        rows += [(n, beta, k, 1.0 / (k + 1)) for k in range(size)]
    return rows


def _constant(cell, count=B + 2, changes=()):
    """count rows whose second cell is the one object cell, but at the rows in changes."""
    return _with([(i, cell, i / 3, 0.5) for i in range(count)],
                 {i: (i, other, i / 3, 0.5) for i, other in changes})


_ZERO, _NAN, _TEXT = 0.0, math.nan, '50% "q" %s'

BLOCK_TABLES = {
    **{f"{count} rows": (COLUMNS, _uniform(count)) for count in (0, 1, B - 1, B, B + 1, 2 * B + 1)},
    **{f"type change at row {i}": (COLUMNS, _with(_uniform(2 * B), {i: (float(i), 0.5, 1, "x")}))
       for i in (B - 2, B - 1, B, B + 1)},
    "new types from the block edge on": (COLUMNS, _uniform(B) + [
        (str(i), i, None, True) for i in range(B + 1)]),
    "ragged row inside a block": (COLUMNS, _with(_uniform(B + 5),
                                                 {500: (1.5, 2), 501: (1, 2, 3, 4, 5)})),
    "row length changes at the block edge": (COLUMNS, _uniform(B - 1) + [(B - 1, 0.5, None)] + [
        (i, 0.25, i / 3, 1.5, "extra") for i in range(B, B + 3)]),
    "None cell inside a block": (COLUMNS, _with(_uniform(B + 5), {7: (7, None, 1.0, 0.5)})),
    "types alternate every row": (COLUMNS, [(i, None, "%d" % i, 0.5) if i % 2 else
                                            (i, 0.25, i, True) for i in range(B + 2)]),
    "trailing average row": (COLUMNS, [(q, 1.0 - q / 7e3, 1.0, 1.0 / (q + 2)) for q in range(B + 1)]
                             + [("average", 0.987654321, None, None)]),
    "bool and numpy cells": (COLUMNS, _typed_cells(B + 3)),
    # a column that holds one object over a run is formatted once into the run's template
    "constant int and float columns over blocks": (COLUMNS, _figure_4_shape()),
    "equal floats, distinct objects": (COLUMNS, [(i, float("2.5"), float("-0.0"), i / 3)
                                                 for i in range(B + 2)]),
    "zeros with one negative zero": (COLUMNS, _constant(_ZERO, changes=[(600, -_ZERO)])),
    "one nan object": (COLUMNS, _constant(_NAN)),
    "distinct nans": (COLUMNS, [(i, float("nan"), i / 3, 0.5) for i in range(B + 2)]),
    "constant None column": (COLUMNS, _constant(None)),
    "constant text with % and quotes": (COLUMNS, _constant(_TEXT)),
    "same first and last cell, other cells between": (COLUMNS, _constant(
        0.25, count=B, changes=[(i, 0.75) for i in range(300, 320)])),
    "constant column split by a type change": (COLUMNS, _constant(
        _ZERO, changes=[(i, 7) for i in range(500, B + 2)])),
    "constant column across a run cut": (COLUMNS, _with(_constant(_TEXT), {
        400: (400, _TEXT, None, 0.5)})),
}


@pytest.mark.parametrize("precision", [1, 12, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", sorted(BLOCK_TABLES))
def test_blocks_match_reference(table, fmt, precision):
    columns, rows = BLOCK_TABLES[table]
    got, want = io.StringIO(), io.StringIO()
    if fmt == "csv":
        write_csv(got, columns, iter(rows), precision)
        reference_write_csv(want, columns, rows, precision)
    else:
        write_json(got, META, columns, iter(rows), precision)
        reference_write_json(want, META, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


class _Counted:
    """A cell written as %s by CSV and through float() by JSON; counts both."""
    calls = 0

    def __str__(self):
        _Counted.calls += 1
        return "counted"

    def __float__(self):
        _Counted.calls += 1
        return 0.5


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_constant_column_is_formatted_once_per_run(fmt):
    # three blocks, each one run; the counted column is one object throughout, the q column not
    cell = _Counted()
    rows = [(i, cell) for i in range(2 * B + 5)]
    got, want = io.StringIO(), io.StringIO()
    _Counted.calls = 0
    if fmt == "csv":
        write_csv(got, ("q", "x"), rows, 12)
        reference_write_csv(want, ("q", "x"), rows, 12)
    else:
        write_json(got, {}, ("q", "x"), rows, 12)
        reference_write_json(want, {}, ("q", "x"), rows, 12)
    assert got.getvalue() == want.getvalue()
    assert _Counted.calls == 3 + len(rows)  # once per block, then once per row by the reference


# JSON float columns are converted a column at a time where every %g text is its own repr
# (cli._RowRenderer._numbers), else cell by cell.  These columns mix both kinds of text.
SPECIAL_FLOATS = [5e-324, 2.5e-308, 1e-300, -0.0, 1e14, 1e15, 9.99999999999e15, 1e16,
                  math.inf, math.nan]
SPECIAL_COLUMNS = tuple(f"c{i}" for i in range(len(SPECIAL_FLOATS)))
COLUMN_TABLES = {
    "special floats alone": (SPECIAL_COLUMNS, [tuple(SPECIAL_FLOATS)]),
    "special floats among plain ones": (SPECIAL_COLUMNS, [
        tuple(0.5 + i for i in range(len(SPECIAL_FLOATS))), tuple(SPECIAL_FLOATS),
        tuple(-v for v in SPECIAL_FLOATS),
        tuple(1.0 / (i + 3) for i in range(len(SPECIAL_FLOATS)))]),
    "one e+ cell": (("q", "x"), [(i, 1e20 if i == 25 else 0.1 * i) for i in range(50)]),
}


@pytest.mark.parametrize("precision", [1, 12, 15, 16, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", sorted(COLUMN_TABLES))
def test_float_columns_match_reference(table, fmt, precision):
    columns, rows = COLUMN_TABLES[table]
    got, want = io.StringIO(), io.StringIO()
    if fmt == "csv":
        write_csv(got, columns, rows, precision)
        reference_write_csv(want, columns, rows, precision)
    else:
        write_json(got, META, columns, rows, precision)
        reference_write_json(want, META, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


def _families(rng, count):
    """count floats of every magnitude the writers meet, a family at a time: uniform, near 1,
    powers of ten from 1e-307 to 1e16 with and without a mantissa, integral."""
    part = count // 5
    tens, digits = rng.integers(-307, 17, part), rng.integers(0, 17, count - 4 * part)
    return np.concatenate([
        rng.uniform(-1e3, 1e3, part),
        1.0 + rng.uniform(-1.0, 1.0, part) * 10.0 ** -rng.integers(1, 17, part),
        rng.uniform(1.0, 10.0, part) * 10.0 ** tens,
        [float(f"1e{t}") for t in tens],
        np.rint(rng.uniform(-1.0, 1.0, len(digits)) * 10.0 ** digits),
    ])


def _mixed_floats(count, seed=20240611):
    """Half of count floats a family at a time, half with the families shuffled together."""
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(_families(rng, count - count // 2))
    return _families(rng, count // 2).tolist() + shuffled.tolist()


@pytest.mark.parametrize("precision", range(1, 18))
def test_column_conversion_matches_cells(precision):
    # columns of 1 to 64 cells, as runs of a block give them; each is converted at once
    renderer = _RowRenderer(precision, COLUMNS)
    values = _mixed_floats(20000)
    rng = np.random.default_rng(precision)
    at_once = 0
    first = 0
    while first < len(values):
        column = tuple(values[first:first + int(rng.integers(1, 65))])
        first += len(column)
        assert renderer._numbers(column) == [renderer._number(v) for v in column], column
        text = "".join(renderer.g % v for v in column)
        at_once += precision <= 15 and not any(s in text for s in ("e+", "e-3", "n"))
    # the column conversion itself, not only its per-cell fallback, must have been checked
    assert at_once > 0 if precision <= 15 else at_once == 0
