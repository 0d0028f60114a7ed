import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdia_lab.cli import STAGES
from fdia_lab.errors import DataError
from fdia_lab.io_utils import fmt_column, read_csv, write_columns

HEADER = ["t", "value", "flag", "count"]


def ref_cell(value) -> str:
    """Reference cell format: bools 1/0, integers with str, floats with repr
    and NaN as the empty cell."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    return "" if math.isnan(x) else repr(x)


def write_both(tmp_path, header, columns):
    """The reference bytes, formatted row by row, and the bytes of
    write_columns on fmt_column's cells."""
    rows = [",".join(header)] + [",".join(map(ref_cell, row)) for row in zip(*columns)]
    path = tmp_path / "cols.csv"
    write_columns(path, header, [fmt_column(c) for c in columns])
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


def test_column_writer_empty_table(tmp_path):
    by_rows, by_columns = write_both(tmp_path, HEADER, [np.array([])] * 4)
    assert by_rows == by_columns == b"t,value,flag,count\n"


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(DataError):
        write_columns(tmp_path / "x.csv", ["a", "b"], [["0"] * 3, ["0"] * 4])
    with pytest.raises(DataError):
        write_columns(tmp_path / "x.csv", ["a"], [["0"] * 3, ["0"] * 3])
    with pytest.raises(DataError):
        fmt_column(np.zeros((3, 2)))


def read_text(tmp_path, text, header=None, empty_is_missing=False):
    """``read_csv`` on a file holding ``text``."""
    path = tmp_path / "f.csv"
    path.write_text(text)
    return read_csv(path, header, empty_is_missing)


def raises_data_error(tmp_path, message):
    """A ``pytest.raises`` for the DataError ``message`` about f.csv."""
    return pytest.raises(DataError, match=re.escape(f"{tmp_path / 'f.csv'}: {message}"))


def test_read_csv_values_and_errors(tmp_path):
    _, t, z = read_text(tmp_path, "t,z\n0,1.5\n1,-2e-3\n2,7\n")
    np.testing.assert_array_equal(t, [0, 1, 2])
    np.testing.assert_array_equal(z, [1.5, -2e-3, 7.0])
    with raises_data_error(tmp_path, "row 2, column 't' is not a number: '1.0'"):
        read_text(tmp_path, "t,z\n0,1\n1.0,2\n")
    with raises_data_error(tmp_path, "row 1, column 'z' is not finite: 'inf'"):
        read_text(tmp_path, "t,z\n0,inf\n1,1\n")
    # float() and int() take these, numpy's reader does not
    for cell in ("1_0", "\uff12"):
        for text, name in ((f"t,z\n0,{cell}\n", "z"), (f"t,z\n{cell},1\n", "t")):
            with raises_data_error(tmp_path, f"row 1, column '{name}' is not a number: {cell!r}"):
                read_text(tmp_path, text)


def test_read_csv_names_an_integer_beyond_int64(tmp_path):
    for cell in ("9223372036854775808", "-99999999999999999999"):
        with raises_data_error(tmp_path, f"row 2, column 't' is beyond the int64 range: {cell!r}"):
            read_text(tmp_path, f"t,z\n0,1\n{cell},1\nx,1\n")
    # the largest int64 is read, and then breaks the tick rule
    with raises_data_error(tmp_path, "row 1 has tick 9223372036854775807, expected 0"):
        read_text(tmp_path, "t,z\n9223372036854775807,1\n")
    assert read_text(tmp_path, "t,z\n0,99999999999999999999\n")[2][0] == 1e20


def test_read_csv_empty_is_missing(tmp_path):
    _, _, x = read_text(tmp_path, "t,x\n0,1.5\n1,\n2,-2\n", empty_is_missing=True)
    np.testing.assert_array_equal(np.isnan(x), [False, True, False])
    assert x[0] == 1.5 and x[2] == -2.0
    with raises_data_error(tmp_path, "row 2, column 'x' is empty"):
        read_text(tmp_path, "t,x\n0,1.5\n1,\n2,-2\n")
    for cell, problem in (("abc", "is not a number: 'abc'"), ("-inf", "is not finite: '-inf'"),
                          ("nan", "is not finite: 'nan'")):
        with raises_data_error(tmp_path, f"row 3, column 'x' {problem}"):
            read_text(tmp_path, f"t,x\n0,1\n1,\n2,{cell}\n", empty_is_missing=True)
    with raises_data_error(tmp_path, "row 1, column 'x' is not finite: 'nan'"):
        read_text(tmp_path, "t,x\n0,nan\n1,2\n", empty_is_missing=True)
    # only a float column reads an empty cell as missing
    for text, name in (("t,x\n,1\n", "t"), ("t,x,label\n0,,\n", "label")):
        with raises_data_error(tmp_path, f"row 1, column '{name}' is empty"):
            read_text(tmp_path, text, empty_is_missing=True)


def test_read_csv_returns_the_header_and_the_columns(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,z,label\n0,0.5,0\n1,,1\n")
    header, t, z, label = read_csv(path, empty_is_missing=True)
    assert header == ["t", "z", "label"]
    assert t.dtype == label.dtype == np.int64 and z.dtype == np.float64
    assert t.tolist() == [0, 1] and label.tolist() == [0, 1]
    assert z[0] == 0.5 and math.isnan(z[1])
    with pytest.raises(DataError, match=re.escape(f"{path}: row 2, column 'z' is empty")):
        read_csv(path, ["t", "z", "label"])
    with pytest.raises(DataError, match=re.escape(
            f"{path}: unexpected header ['t', 'z', 'label'], expected ['t', 'label', 'z']")):
        read_csv(path, ["t", "label", "z"])


def test_tick_and_label_rules(tmp_path):
    _, t, label = read_text(tmp_path, "t,label\n0,0\n1,1\n2,1\n")
    np.testing.assert_array_equal(t, [0, 1, 2])
    np.testing.assert_array_equal(label, [0, 1, 1])
    with raises_data_error(tmp_path, "row 2 has tick 2, expected 1; ticks run 0..n-1"):
        read_text(tmp_path, "t,label\n0,0\n2,1\n1,1\n")
    with raises_data_error(tmp_path, "row 3, column 'label' is not 0 or 1: '-1'"):
        read_text(tmp_path, "t,label\n0,0\n1,1\n2,-1\n")


def test_row_of_the_wrong_width_is_named(tmp_path):
    for row, width in (("1,0.5", 2), ("1,0.5,0,", 4), (" ", 1)):
        with raises_data_error(tmp_path, f"row 2 has {width} cells, expected 3"):
            read_text(tmp_path, f"t,z,label\n0,abc,0\n{row}\n")


def test_columns_are_checked_in_order(tmp_path):
    # a later column's refused cell in an earlier row waits for the rule of 't'
    with raises_data_error(tmp_path, "row 2 has tick 5, expected 1"):
        read_text(tmp_path, "t,z\n0,abc\n5,1\n")
    with raises_data_error(tmp_path, "row 2, column 'z' is not finite: 'inf'"):
        read_text(tmp_path, "t,z,label\n0,1,x\n1,inf,0\n")
    with raises_data_error(tmp_path, "row 3, column 'z' is not a number: 'abc'"):
        read_text(tmp_path, "t,z,label\n0,1,x\n1,1,0\n2,abc,0\n")


# --- numpy's reader against float() and int() -----------------------------------

FLOAT_FORMATS = (repr, "%.17g".__mod__, "%.25e".__mod__)
BIG = "99999999999999999999"  # beyond int64
RAGGED, TRAILING_COMMA, BLANK_LINE = "<ragged row>", "<trailing comma>", "<whitespace line>"
CORRUPTIONS = ("", "-1", "nan", "inf", "1e400", "1_0", "0x10", "\uff12", BIG,
               RAGGED, TRAILING_COMMA, BLANK_LINE)


@st.composite
def csv_files(draw, plain=False):
    """A well-formed trace, labels or dataset file: its header, data rows
    (lists of cells) and whether an empty cell is a missing value, as it is
    in a dataset's feature cells. Unless ``plain``, cells come space-padded
    and ``+``-signed at random."""
    kind = draw(st.sampled_from(["trace", "labels", "dataset"]))
    header = {"trace": list(STAGES["simulate"][1]["trace.csv"]),
              "labels": list(STAGES["simulate"][1]["labels.csv"]),
              "dataset": ["t", *(f"f{i}" for i in range(draw(st.integers(1, 3)))),
                          "label"]}[kind]
    rows = []
    for tick in range(draw(st.integers(1, 12))):
        row = []
        for name in header:
            if name == "t":
                cell = str(tick)
            elif name == "label":
                cell = str(draw(st.integers(0, 1)))
            elif kind == "dataset" and draw(st.integers(0, 4)) == 0:
                row.append("")  # a missing value
                continue
            else:
                value = draw(st.floats(allow_nan=False, allow_infinity=False))
                cell = draw(st.sampled_from(FLOAT_FORMATS))(value)
            if not plain:
                if not cell.startswith("-") and draw(st.booleans()):
                    cell = "+" + cell
                cell = (draw(st.sampled_from(["", " ", "\t", "  "])) + cell
                        + draw(st.sampled_from(["", " ", "\t"])))
            row.append(cell)
        rows.append(row)
    return header, rows, kind == "dataset"


def write_csv_text(path, header, rows, blank_after=(), newline="\n"):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(row if isinstance(row, str) else ",".join(row))
        lines.extend([""] * (i in blank_after))
    path.write_text(newline.join(lines) + newline, newline="")


def reference_reader(path, empty_is_missing):
    """``read_csv``'s header and columns of a well-formed file, each cell
    converted by ``int`` (ticks and labels) or ``float``."""
    names, *lines = path.read_text().splitlines()
    names = names.split(",")
    rows = [line.split(",") for line in lines if line != ""]
    columns = []
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        if name in ("t", "label"):
            columns.append(np.array([int(c) for c in cells], dtype=np.int64))
        else:
            columns.append(np.array([math.nan if c == "" and empty_is_missing else float(c)
                                     for c in cells]))
    return (names, *columns)


def outcome(read, *args):
    """The columns' dtypes and bytes, or the DataError message."""
    try:
        header, *columns = read(*args)
    except DataError as exc:
        return str(exc)
    return header, [(c.dtype.str, c.tobytes()) for c in columns]


@settings(max_examples=150, deadline=None)
@given(csv_files(), st.sets(st.integers(0, 11)), st.sampled_from(["\n", "\r\n"]))
def test_c_reader_reads_well_formed_files_bit_identically(file, blank_after, newline):
    header, rows, empty_is_missing = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_csv_text(path, header, rows, blank_after, newline)
        read = outcome(read_csv, path, header, empty_is_missing)
        assert isinstance(read, tuple), read
        assert read == outcome(reference_reader, path, empty_is_missing)


@settings(max_examples=300, deadline=None)
@given(csv_files(plain=True), st.sampled_from(CORRUPTIONS), st.data())
def test_a_corrupt_cell_is_named_by_its_row_and_column(file, corruption, data):
    header, rows, empty_is_missing = file
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(header) - 1))
    name = header[j]
    if corruption == RAGGED:
        rows[i] = rows[i][:-1]  # every header has two names or more
    elif corruption == TRAILING_COMMA:
        rows[i] = ",".join(rows[i]) + ","
    elif corruption == BLANK_LINE:
        rows[i] = data.draw(st.sampled_from([" ", "\t", "  "]))
    else:
        rows[i][j] = corruption
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_csv_text(path, header, rows)
        read = outcome(read_csv, path, header, empty_is_missing)
        integer = name in ("t", "label")
        if corruption in (RAGGED, TRAILING_COMMA, BLANK_LINE):
            assert isinstance(read, str) and re.fullmatch(
                rf"{re.escape(str(path))}: row {i + 1} has \d+ cells, expected {len(header)}", read)
        elif (corruption in ("nan", "inf", "1e400", "0x10", "1_0", "\uff12")
              or (corruption in (BIG, "-1") and integer)
              or (corruption == "" and (integer or not empty_is_missing))):
            where = (f"row {i + 1} has tick -1" if name == "t" and corruption == "-1"
                     else f"row {i + 1}, column '{name}' ")
            assert isinstance(read, str) and read.startswith(f"{path}: {where}"), read
        else:  # a value float() reads: an empty feature cell, -1 or 1e20
            assert read == outcome(reference_reader, path, empty_is_missing)


def test_header_only_file_never_reaches_numpy(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,z,label\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns of a file with no data
        with pytest.raises(DataError, match=re.escape(f"{path} has a header but no data rows")):
            read_csv(path)
