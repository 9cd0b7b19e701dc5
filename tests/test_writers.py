"""CSV and JSON writers: the template renderer writes the same bytes as the old writers.

reference_write_csv and reference_write_json are the writers as they were
before rows were rendered through cached % templates (cell by cell through
_fmt / _json_value, and json.dump with indent=2), and take row tuples.
cli.write_csv and cli.write_json take column blocks: each table below is cut
into column blocks by _blocks, and must come out byte for byte the same.
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


def _kind(cell):
    """How the writers class a cell: None, int, float, str or any other object."""
    if cell is None:
        return None
    return next((kind for kind in ((int, np.integer), float, str) if isinstance(cell, kind)),
                object)


def _blocks(rows):
    """Rows as column blocks, cut wherever a row's length or a cell's kind changes (None aside):
    each column of a block holds one kind of cell, or one kind and None."""
    blocks, kinds = [], None
    for row in rows:
        cells = [_kind(cell) for cell in row]
        if kinds is None or len(cells) != len(kinds) or any(
                kind is not None and held not in (None, kind) for kind, held in zip(cells, kinds)):
            blocks.append([[] for _ in row])
            kinds = [None] * len(row)
        kinds = [held or kind for held, kind in zip(kinds, cells)]
        for column, cell in zip(blocks[-1], row):
            column.append(cell)
    return blocks


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
}
META = {"kind": "teleport", "n": 20, "beta_deg": 85.5, "alpha": 3.0, "flag": True,
        "spec": {"q_list": [1, 2, {"deep": [None, -0.0, math.inf]}], "empty": {}, "none": []},
        "text": 'a "b" \\ é'}


@pytest.mark.parametrize("precision", [1, 12, 17])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_csv_matches_reference(table, precision):
    columns, rows = TABLES[table]
    got, want = io.StringIO(), io.StringIO()
    write_csv(got, columns, _blocks(rows), precision)
    reference_write_csv(want, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("meta", [META, {}], ids=["nested meta", "empty meta"])
@pytest.mark.parametrize("precision", [1, 12, 17])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_json_matches_reference(table, precision, meta):
    columns, rows = TABLES[table]
    got, want = io.StringIO(), io.StringIO()
    write_json(got, meta, columns, _blocks(rows), precision)
    reference_write_json(want, meta, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


def test_blocks_may_be_a_generator():
    columns, rows = TABLES["teleport"]
    got, want = io.StringIO(), io.StringIO()
    write_json(got, META, columns, (block for block in _blocks(rows)), 12)
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
        write_csv(got, columns, iter(_blocks(rows)), precision)
        reference_write_csv(want, columns, rows, precision)
    else:
        write_json(got, META, columns, iter(_blocks(rows)), precision)
        reference_write_json(want, META, columns, rows, precision)
    assert got.getvalue() == want.getvalue()


def _column_blocks(sizes=(1, B - 1, B + 1, 3)):
    """Column blocks as the table producers give them: a range, lists and one repeated object
    per block, the object of the second block repeated on through the third."""
    blocks, first = [], 0
    for i, size in enumerate(sizes):
        shared = _TEXT if i in (1, 2) else 0.5 + i
        blocks.append([range(first, first + size), [k / 7 for k in range(size)], [shared] * size,
                       [None if k % 3 else -k / 3 for k in range(size)]])
        first += size
    return blocks


@pytest.mark.parametrize("precision", [1, 12, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_blocks_are_cut_into_blocks_of_rows(fmt, precision):
    # blocks of 1, 1023 and 1025 rows meet inside the writer's blocks of 1024 rows
    blocks = _column_blocks()
    rows = [row for block in blocks for row in zip(*block)]
    got, want = io.StringIO(), io.StringIO()
    if fmt == "csv":
        write_csv(got, COLUMNS, iter(blocks), precision)
        reference_write_csv(want, COLUMNS, rows, precision)
    else:
        write_json(got, META, COLUMNS, iter(blocks), precision)
        reference_write_json(want, META, COLUMNS, rows, precision)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", [[1, 2.5, 3], [None, 0.5, 7, None], [0, 1, "average"]],
                         ids=["int and float", "float, int and None", "int and str"])
def test_column_of_two_kinds_is_refused(column, fmt):
    # one row template per run: a float cell in an int column would be written through %d
    blocks = [[range(len(column)), column]]
    with pytest.raises(TypeError, match="column 1 "):
        if fmt == "csv":
            write_csv(io.StringIO(), ("q", "x"), blocks, 12)
        else:
            write_json(io.StringIO(), META, ("q", "x"), blocks, 12)


# a one-cell column whose cell would be taken as constant over the block's 3 rows, a column
# longer than the first, a block of one column under two names and of three under two
MALFORMED = {
    "short column": ([[range(3), [1.0]]], "column 'b' holds 1 cells, not 3"),
    "long column": ([[[0, 1], [1.0, 2.0, 3.0]]], "column 'b' holds 3 cells, not 2"),
    "short column after a good block": ([[[0], [1.0]], [[1, 2], [None]]], "column 'b' "),
    "one column under two names": ([[[1]]], "a block of 1 columns under 2 names"),
    "three columns under two names": ([[[1], [2.0], [3.0]]], "a block of 3 columns under 2 names"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_block_is_refused(case, fmt):
    blocks, message = MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        if fmt == "csv":
            write_csv(io.StringIO(), ("a", "b"), blocks, 12)
        else:
            write_json(io.StringIO(), META, ("a", "b"), blocks, 12)


@pytest.mark.parametrize("column, by_cell", [
    ([1.5e-35, 2.5e-31, 3e-30, 0.25], False), ([1.5e-35, 1e-300], True),
    ([1.5e-35, 5e-324, 2.5e-310], True), ([1.5e-35, 1e20], True), ([1e-30, math.inf], True)],
    ids=["e-30 to e-35", "e-300", "subnormal", "e+", "inf"])
def test_json_float_column_goes_cell_by_cell_only_when_needed(monkeypatch, column, by_cell):
    # exponents e-30 to e-39 are normal: their %g texts are their own repr, and the column
    # is converted at once; a subnormal, e+ or non-finite text is converted cell by cell
    calls = []
    number = _RowRenderer._number
    monkeypatch.setattr(_RowRenderer, "_number",
                        lambda self, value: calls.append(value) or number(self, value))
    rows = list(enumerate(column))
    got, want = io.StringIO(), io.StringIO()
    write_json(got, META, ("q", "x"), _blocks(rows), 12)
    reference_write_json(want, META, ("q", "x"), rows, 12)
    assert got.getvalue() == want.getvalue()
    assert calls == (column if by_cell else [])


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
        write_csv(got, ("q", "x"), _blocks(rows), 12)
        reference_write_csv(want, ("q", "x"), rows, 12)
    else:
        write_json(got, {}, ("q", "x"), _blocks(rows), 12)
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
        write_csv(got, columns, _blocks(rows), precision)
        reference_write_csv(want, columns, rows, precision)
    else:
        write_json(got, META, columns, _blocks(rows), precision)
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
