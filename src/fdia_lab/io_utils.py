"""CSV/JSON readers and writers, through which every stage file of
``cli.STAGES`` goes, and the one typed reader of config sections.

Writers are byte-deterministic: floats are written with ``repr`` (shortest
round-trip form), JSON keys are sorted, and no timestamps are emitted.
``fmt_column`` turns an array into CSV cells and ``write_columns`` writes
cells alone, so each column is formatted once however many files hold it.
``read_csv``'s one ``np.loadtxt`` call converts every CSV cell to a value.
``read_fields`` reads a config section by its rows, each a key's type,
default and rule; it serves the run config's sections and the checkpoint's
``config`` alike. Every file is read through ``read_text``, so a file that
cannot be read is an error naming it, as a malformed one is.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

REQUIRED = object()  # the default of a config row whose key has none


def fmt_column(values: np.ndarray) -> list[str]:
    """Format a 1-D bool, integer or float array as CSV cells: bools as 1/0,
    integers with ``str``, floats with ``repr`` and NaN as the empty cell
    (= missing); an all-NaN column is empty cells, with no ``repr`` called.

    Float ``repr`` is the cost floor of every writer, so a stage that writes
    one column into several files formats it once and hands the cells on.
    """
    a = np.asarray(values)
    if a.ndim != 1 or a.dtype.kind not in "biuf":
        raise DataError(f"a CSV column must be a 1-D bool, integer or float array, "
                        f"got {a.dtype} of shape {a.shape}")
    if a.dtype == bool:
        return ["1" if v else "0" for v in a.tolist()]
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    missing = np.isnan(a)
    if missing.all():
        return [""] * len(a)
    cells = list(map(repr, a.astype(float, copy=False).tolist()))
    for i in np.flatnonzero(missing).tolist():
        cells[i] = ""
    return cells


def write_columns(path, header: Sequence[str], cells: Sequence[list[str]]) -> None:
    """Write equal-length columns of CSV cells, each made by ``fmt_column``."""
    if len(cells) != len(header):
        raise DataError(f"{len(header)} header names for {len(cells)} columns")
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
    there reads as NaN, a missing value. numpy's C reader converts the cells.
    A missing or empty file, a header other than ``header`` (when given), a
    file without data rows, a row of the wrong width, or a cell that numpy
    refuses or whose value breaks its column's rule is a DataError naming the
    file (and the row and column).
    """
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"empty CSV file: {path}")
    names = lines[0].split(",")
    if header is not None and names != list(header):
        raise DataError(f"{path}: unexpected header {names}, expected {list(header)}")
    lines = [line for line in lines[1:] if line != ""]
    if not lines:  # and loadtxt would warn of no data
        raise DataError(f"{path} has a header but no data rows")
    kinds = [np.int64 if name in ("t", "label") else np.float64 for name in names]
    text = lines
    # with each line wrapped in commas, an empty cell shows as ",,"
    if empty_is_missing and ",," in "," + ",\n,".join(lines) + ",":
        text = [",".join(cell or "nan" for cell in line.split(",")) for line in lines]
    table = _load(text, kinds)
    if table is None:
        _locate(path, names, kinds, lines, text)
        raise DataError(f"{path}: numpy's reader refused it")  # _locate raises first
    # contiguous copies that let the table go
    columns = [table[field].copy() for field in table.dtype.names]
    del table
    for j, column in enumerate(columns):
        _check_rule(path, names[j], j, column, lines)
    return (names, *columns)


def _load(lines: list[str], kinds: list, usecols: list[int] | None = None):
    """numpy's C reader, the one conversion of CSV cells to values: a field
    ``c<j>`` of ``kinds[j]`` per column read, or None if it refuses a cell."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, usecols=usecols,
                          dtype=[(f"c{j}", kind) for j, kind in enumerate(kinds)])
    except ValueError:
        return None


def _check_rule(path, name: str, j: int, column: np.ndarray, lines: list[str]) -> None:
    """Raise the DataError for the first value of column ``j`` that breaks its
    rule, from its index and its cell in ``lines``: ticks run 0..n-1, labels
    are 0 or 1, and every other value is finite or is NaN from an empty cell
    (which numpy reads only as ``empty_is_missing`` rewrites it)."""
    breaks = (column != np.arange(len(column)) if name == "t" else
              (column != 0) & (column != 1) if name == "label" else ~np.isfinite(column))
    for i in np.flatnonzero(breaks).tolist():
        cell = lines[i].split(",")[j]
        if name == "t":
            raise DataError(f"{path}: row {i + 1} has tick {column[i]}, expected {i}; "
                            "ticks run 0..n-1")
        if name == "label":
            raise DataError(f"{path}: row {i + 1}, column 'label' is not 0 or 1: {cell!r}")
        if cell != "":
            raise DataError(f"{path}: row {i + 1}, column '{name}' is not finite: {cell!r}")


def _locate(path, names: list[str], kinds: list, lines: list[str], text: list[str]) -> None:
    """Raise the DataError naming what numpy refused in ``text``, the data
    ``lines`` as it read them: the first row of the wrong width or else,
    column by column, the first cell it refuses or value that breaks a rule."""
    for i, line in enumerate(lines):
        if (width := line.count(",") + 1) != len(names):
            raise DataError(f"{path}: row {i + 1} has {width} cells, expected {len(names)}")
    for j, (name, kind) in enumerate(zip(names, kinds)):
        column = _load(text, [kind], [j])
        if column is None:
            i = next(i for i, line in enumerate(text) if _load([line], [kind], [j]) is None)
            cell = lines[i].split(",")[j]
            integer = kind is np.int64 and re.fullmatch(r"\s*[+-]?[0-9]+\s*", cell)
            problem = ("is empty" if cell == "" else f"is beyond the int64 range: {cell!r}"
                       if integer else f"is not a number: {cell!r}")
            raise DataError(f"{path}: row {i + 1}, column '{name}' {problem}")
        _check_rule(path, name, j, column["c0"], lines)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_text(path: Path, error=DataError) -> str:
    """The text of the file at ``path``. A missing file, one that cannot be
    read (a directory, say) or one that is not text in the locale's encoding
    raises ``error`` naming it."""
    try:
        return path.read_text()
    except FileNotFoundError:
        raise error(f"missing file: {path}") from None
    except OSError as exc:
        raise error(f"{path} cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} cannot be read: {exc}") from exc


def read_json(path, error=DataError) -> dict:
    """The JSON object in ``path``: every JSON file here has an object root.
    A file that cannot be read or holds no JSON object raises ``error``."""
    path = Path(path)
    try:
        obj = json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: the root must be a JSON object")
    return obj


def finite_number(value) -> bool:
    """Whether ``value`` is a finite JSON number (a bool is not one)."""
    return type(value) in (int, float) and math.isfinite(value)


def read_fields(section: dict, where: str, rows: dict) -> dict:
    """The values that ``rows`` reads from the config section ``section``,
    named ``where`` ("" for the root). A row is ``key: (type, default,
    rule)``: the key's value, or its default when absent, is converted by
    ``config_value`` and must pass the rule, a (predicate, "must ...") pair,
    if the row has one. A default of None leaves out a key that is absent or
    null, and a dotted key names a nested section, which is read on its own.

    A key no row names, a missing required key, or a value that its type or
    rule refuses raises ConfigError naming ``where.key``.
    """
    prefix = f"{where}." if where else ""
    unknown = sorted(set(section) - {key.partition(".")[0] for key in rows})
    if unknown:
        raise ConfigError(f"unknown config key '{prefix}{unknown[0]}'")
    values = {}
    for key, (kind, default, rule) in rows.items():
        if "." in key or default is None and section.get(key) is None:
            continue
        values[key] = value = config_value(section, prefix, key, kind, default)
        if rule and not rule[0](value):
            raise ConfigError(f"config key '{prefix}{key}' {rule[1]}")
    return values


def config_value(section: dict, prefix: str, key: str, kind, default):
    """``section[key]``, or ``default`` when absent, converted by ``kind``;
    ``int`` takes integral numbers in [0, 2**63) only (never truncating: every
    integer key is a count, a size, a tick or a seed, and numpy holds it in an
    int64), ``float`` finite ones.

    A missing required key or a value ``kind`` rejects raises ConfigError
    naming the key as ``prefix + key``.
    """
    name = prefix + key
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
