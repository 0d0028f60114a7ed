import math
import re

import numpy as np
import pytest

from fdia_lab.errors import DataError
from fdia_lab.io_utils import parse_column, parse_labels, parse_ticks, read_csv, write_columns

HEADER = ["t", "value", "flag", "count"]


def ref_cell(value) -> str:
    """Reference cell format: str as is, bools 1/0, integers with str,
    floats with repr, None and NaN as the empty cell."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    return "" if math.isnan(x) else repr(x)


def write_both(tmp_path, header, columns):
    """The reference bytes, formatted row by row, and write_columns' bytes."""
    rows = [",".join(header)] + [",".join(map(ref_cell, row)) for row in zip(*columns)]
    path = tmp_path / "cols.csv"
    write_columns(path, header, columns)
    return ("\n".join(rows) + "\n").encode(), path.read_bytes()


def test_column_writer_equals_row_writer_bytes(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=400) * 10.0 ** rng.integers(-20, 20, size=400)
    values[::7] = np.nan
    values[:6] = [0.0, -0.0, np.inf, -np.inf, 1e16, 5e-324]
    columns = [np.arange(400), values, rng.random(400) < 0.3,
               rng.integers(-5, 5, size=400)]
    by_rows, by_columns = write_both(tmp_path, HEADER, columns)
    assert by_rows == by_columns
    assert b"\n7,,0," in by_rows or b"\n7,,1," in by_rows  # NaN is the empty cell


def test_column_writer_takes_lists_and_float32(tmp_path):
    columns = [[0, 1, 2], np.array([0.1, np.nan, 2.5], dtype=np.float32),
               [True, False, True], np.array([3, 4, 5], dtype=np.int32)]
    by_rows, by_columns = write_both(tmp_path, HEADER, columns)
    assert by_rows == by_columns


def test_column_writer_passes_string_columns_through(tmp_path):
    columns = [["0", "1"], ["", "0.25"], np.array(["1", "0"]), ["x", "-inf"]]
    by_rows, by_columns = write_both(tmp_path, HEADER, columns)
    assert by_rows == by_columns == b"t,value,flag,count\n0,,1,x\n1,0.25,0,-inf\n"


def test_column_writer_empty_table(tmp_path):
    by_rows, by_columns = write_both(tmp_path, HEADER, [np.array([])] * 4)
    assert by_rows == by_columns == b"t,value,flag,count\n"


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(DataError):
        write_columns(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(DataError):
        write_columns(tmp_path / "x.csv", ["a"], [np.zeros(3), np.zeros(3)])
    with pytest.raises(DataError):
        write_columns(tmp_path / "x.csv", ["a"], [np.zeros((3, 2))])


def test_parse_column_values_and_errors():
    t, z = ["0", "1", "2"], ["1.5", "-2e-3", "7"]
    np.testing.assert_array_equal(parse_column("f.csv", t, "t", int), [0, 1, 2])
    np.testing.assert_array_equal(parse_column("f.csv", z, "z"), [1.5, -2e-3, 7.0])
    with pytest.raises(DataError, match="f.csv: row 2, column 't' is not a number: '1.0'"):
        parse_column("f.csv", ["0", "1.0"], "t", int)
    with pytest.raises(DataError, match="f.csv: row 1, column 'z' is not finite: 'inf'"):
        parse_column("f.csv", ["inf", "1"], "z")


def test_parse_column_empty_is_missing():
    cells = ["1.5", "", "-2"]
    values = parse_column("f.csv", cells, "x", empty_is_missing=True)
    np.testing.assert_array_equal(np.isnan(values), [False, True, False])
    assert values[0] == 1.5 and values[2] == -2.0
    with pytest.raises(DataError, match="f.csv: row 2, column 'x' is empty"):
        parse_column("f.csv", cells, "x")
    for cell, problem in (("abc", "is not a number: 'abc'"), ("-inf", "is not finite: '-inf'"),
                          ("nan", "is not finite: 'nan'")):
        with pytest.raises(DataError, match=f"f.csv: row 3, column 'x' {problem}"):
            parse_column("f.csv", ["1", "", cell], "x", empty_is_missing=True)


def test_read_csv_returns_the_header_and_the_columns(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,z,label\n0,0.5,0\n1,,1\n")
    assert read_csv(path) == (["t", "z", "label"], ["0", "1"], ["0.5", ""], ["0", "1"])
    assert read_csv(path, ["t", "z", "label"]) == read_csv(path)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: unexpected header ['t', 'z', 'label'], expected ['t', 'label', 'z']")):
        read_csv(path, ["t", "label", "z"])


def test_tick_and_label_rules():
    np.testing.assert_array_equal(parse_ticks("f.csv", ["0", "1", "2"]), [0, 1, 2])
    np.testing.assert_array_equal(parse_labels("f.csv", ["0", "1", "1"]), [0, 1, 1])
    with pytest.raises(DataError, match=r"f.csv: row 2 has tick 2, expected 1; ticks run 0..n-1"):
        parse_ticks("f.csv", ["0", "2", "1"])
    with pytest.raises(DataError, match="f.csv: row 3, column 'label' is not 0 or 1: '-1'"):
        parse_labels("f.csv", ["0", "1", "-1"])
