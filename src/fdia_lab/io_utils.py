"""CSV/JSON helpers shared by the module-level exporters, and the typed
reading of config values.

All writers are byte-deterministic: floats are serialized with ``repr``
(shortest round-trip form), JSON keys are sorted, and no timestamps are
emitted anywhere.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, DataError

REQUIRED = object()  # config_value's default for a key without one


class Cells(list):
    """A column's CSV cells as ``fmt_column`` made them."""


def fmt_column(values) -> Cells:
    """Format a 1-D column as CSV cells: bools as 1/0, integers with ``str``,
    floats with ``repr``, NaN as the empty cell (= missing) and strings as
    they are; the ``Cells`` it made are returned as is.

    Float ``repr`` is the cost floor of every writer, so a stage that writes
    one column into several files formats it once and hands the cells on.
    """
    if type(values) is Cells:
        return values
    a = np.asarray(values)
    if a.ndim != 1:
        raise DataError(f"a CSV column must be 1-D, got shape {a.shape}")
    if a.dtype.kind == "U":
        return Cells(a.tolist())
    if a.dtype == bool:
        return Cells(["1" if v else "0" for v in a.tolist()])
    if np.issubdtype(a.dtype, np.integer):
        return Cells(map(str, a.tolist()))
    a = a.astype(float, copy=False)
    cells = Cells(map(repr, a.tolist()))
    for i in np.flatnonzero(np.isnan(a)).tolist():
        cells[i] = ""
    return cells


def write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length 1-D columns as CSV, each cell formatted by
    ``fmt_column``; a column may be given as the cells it already made."""
    if len(columns) != len(header):
        raise DataError(f"{len(header)} header names for {len(columns)} columns")
    cells = [fmt_column(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise DataError("CSV columns have different lengths")
    lines = [",".join(header), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path, header: Sequence[str] | None = None,
             empty_is_missing: bool = False) -> tuple:
    """The header and then each column of a CSV file as an array:
    ``header, *columns = read_csv(path)``. A ``t`` column holds ticks that run
    0..n-1 and a ``label`` column 0/1 labels, both int64; every other column
    holds finite float64 values, and with ``empty_is_missing`` an empty cell
    there reads as NaN, a missing value.

    A missing or empty file, a header other than ``header`` (when given), a
    file without data rows, a row of the wrong width or a cell that breaks
    its column's rule is a DataError naming the file (and the row and column).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    lines = path.read_text().splitlines()
    if not lines:
        raise DataError(f"empty CSV file: {path}")
    names = lines[0].split(",")
    if header is not None and names != list(header):
        raise DataError(f"{path}: unexpected header {names}, expected {list(header)}")
    lines = [line for line in lines[1:] if line != ""]
    if not lines:  # and loadtxt would warn of no data
        raise DataError(f"{path} has a header but no data rows")
    columns = _read_table(names, lines)
    if columns is None:
        columns = _read_cells(path, names, lines, empty_is_missing)
    return (names, *columns)


def _read_table(names: list[str], lines: list[str]) -> list[np.ndarray] | None:
    """``read_csv``'s columns as numpy's C reader converts them, bit-identical
    to ``float`` and ``int`` but stricter; None when it refuses a cell or a
    column breaks its rule, for the cell reader to name the bad cell."""
    kinds = [np.int64 if name in ("t", "label") else np.float64 for name in names]
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                           dtype=[(f"c{j}", kind) for j, kind in enumerate(kinds)])
    except ValueError:
        return None
    # contiguous copies, as the cell reader makes, that let the table go
    columns = [table[field].copy() for field in table.dtype.names]
    del table
    if any(_breaks_rule(name, column).any() for name, column in zip(names, columns)):
        return None
    return columns


def _breaks_rule(name: str, column: np.ndarray) -> np.ndarray:
    """Which values break their column's rule: ticks run 0..n-1, labels are
    0 or 1, and every other value is finite."""
    if name == "t":
        return column != np.arange(len(column))
    if name == "label":
        return (column != 0) & (column != 1)
    return ~np.isfinite(column)


def _read_cells(path, names: list[str], lines: list[str],
                empty_is_missing: bool) -> list[np.ndarray]:
    """``read_csv``'s columns, parsed cell by cell in Python: the first bad
    cell raises DataError naming its file, row and column."""
    rows = [line.split(",") for line in lines]
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(names)}")
    columns = []
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        if name == "t":
            columns.append(parse_ticks(path, cells))
        elif name == "label":
            columns.append(parse_labels(path, cells))
        else:
            columns.append(parse_column(path, cells, name, empty_is_missing=empty_is_missing))
    return columns


def parse_cell(text: str) -> float:
    return math.nan if text == "" else float(text)


def _problem(text: str, convert, kind) -> str | None:
    """Why ``text`` is not a cell of ``kind`` read by ``convert``, or None."""
    try:
        value = convert(text)
    except ValueError:
        return "is empty" if text == "" else f"is not a number: {text!r}"
    try:
        np.array(value, dtype=kind)
    except OverflowError:
        return f"is beyond the int64 range: {text!r}"
    return None


def parse_column(path, cells: Sequence[str], name: str, kind=float,
                 empty_is_missing: bool = False) -> np.ndarray:
    """The cells of column ``name`` as a finite array of ``kind``; an empty,
    unparsable, out-of-range or non-finite cell raises DataError naming the
    file, the row (1-based, counting data rows) and the column. With
    ``empty_is_missing`` (float columns only) an empty cell reads as NaN, a
    missing value."""
    convert = parse_cell if empty_is_missing else kind
    try:
        values = np.array([convert(c) for c in cells], dtype=kind)
    except (ValueError, OverflowError):
        bad, problem = next((i, problem) for i, c in enumerate(cells)
                            if (problem := _problem(c, convert, kind)))
    else:
        nonfinite = np.flatnonzero(~np.isfinite(values)).tolist()
        if empty_is_missing:
            nonfinite = [i for i in nonfinite if cells[i] != ""]
        if not nonfinite:
            return values
        bad = nonfinite[0]
        problem = f"is not finite: {cells[bad]!r}"
    raise DataError(f"{path}: row {bad + 1}, column '{name}' {problem}")


def parse_ticks(path, cells: Sequence[str]) -> np.ndarray:
    """The ``t`` column, which must run 0..n-1: windows slide over
    consecutive rows, and a tick sets the filter's observation phase."""
    ticks = parse_column(path, cells, "t", int)
    if len(off := np.flatnonzero(_breaks_rule("t", ticks))):
        raise DataError(f"{path}: row {off[0] + 1} has tick {ticks[off[0]]}, expected "
                        f"{off[0]}; ticks run 0..n-1")
    return ticks


def parse_labels(path, cells: Sequence[str]) -> np.ndarray:
    """The ``label`` column, each cell 0 (benign) or 1 (attacked)."""
    labels = parse_column(path, cells, "label", int)
    if len(bad := np.flatnonzero(_breaks_rule("label", labels))):
        raise DataError(f"{path}: row {bad[0] + 1}, column 'label' is not 0 or 1: "
                        f"{cells[bad[0]]!r}")
    return labels


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def finite_number(value) -> bool:
    """Whether ``value`` is a finite JSON number (a bool is not one)."""
    return type(value) in (int, float) and math.isfinite(value)


def reject_unknown_keys(section: dict, where: str, known) -> None:
    """Raise ConfigError naming ``where.key`` for a key not in ``known``."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        name = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"unknown config key '{name}'")


def config_value(section: dict, where: str, key: str, kind, default=REQUIRED):
    """``section[key]``, or ``default`` when absent, converted by ``kind``;
    ``int`` takes integral numbers in [0, 2**63) only (never truncating: every
    integer key is a count, a size, a tick or a seed, and numpy holds it in an
    int64), ``float`` finite ones.

    A missing required key or a value ``kind`` rejects raises ConfigError
    naming ``where.key``.
    """
    name = f"{where}.{key}" if where else key
    if key not in section and default is REQUIRED:
        raise ConfigError(f"missing config key '{name}'")
    value = section.get(key, default)
    try:
        if kind is int and (type(value) not in (int, float) or value != int(value)
                            or not 0 <= value < 2**63):
            raise ValueError("not an integral number in [0, 2**63)")
        if kind is float and not finite_number(value):
            raise ValueError("not a finite number")
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key '{name}' has an invalid value {value!r}: {exc}") from exc


@functools.cache
def _field_kinds(cls) -> dict:
    """``cls``'s field types, resolved on the first call for each class."""
    return get_type_hints(cls)


def config_dataclass(section: dict, where: str, cls, **fixed):
    """``cls(**fixed, **section)`` with every value converted to its field's
    type (int or float) by ``config_value``; other keys are rejected."""
    kinds = _field_kinds(cls)
    reject_unknown_keys(section, where, [name for name in kinds if name not in fixed])
    return cls(**fixed, **{key: config_value(section, where, key, kinds[key])
                           for key in section})
