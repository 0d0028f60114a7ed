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


def fmt_column(values) -> list[str]:
    """Format a 1-D column as CSV cells: bools as 1/0, integers with ``str``,
    floats with ``repr`` and NaN as the empty cell (= missing); a column of
    strings passes through unchanged, and a list of str is returned as is.

    Float ``repr`` is the cost floor of every writer, so a stage that writes
    one column into several files formats it once and hands the cells on.
    """
    if type(values) is list and set(map(type, values)) == {str}:
        return values
    a = np.asarray(values)
    if a.ndim != 1:
        raise DataError(f"a CSV column must be 1-D, got shape {a.shape}")
    if a.dtype.kind == "U":
        return a.tolist()
    if a.dtype == bool:
        return ["1" if v else "0" for v in a.tolist()]
    if np.issubdtype(a.dtype, np.integer):
        return [str(v) for v in a.tolist()]
    a = a.astype(float, copy=False)
    cells = [repr(v) for v in a.tolist()]
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


def read_csv(path, header: Sequence[str] | None = None) -> tuple[list[str], ...]:
    """The header and then each column of a CSV file, as lists of cells:
    ``header, *columns = read_csv(path)``. A missing or empty file, a header
    other than ``header`` (when given), a file without data rows or a row of
    the wrong width is a DataError naming the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    lines = path.read_text().splitlines()
    if not lines:
        raise DataError(f"empty CSV file: {path}")
    names = lines[0].split(",")
    if header is not None and names != list(header):
        raise DataError(f"{path}: unexpected header {names}, expected {list(header)}")
    rows = [line.split(",") for line in lines[1:] if line != ""]
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(names)}")
    return (names, *([row[i] for row in rows] for i in range(len(names))))


def parse_cell(text: str) -> float:
    return math.nan if text == "" else float(text)


def _parses(text: str, kind) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def parse_column(path, cells: Sequence[str], name: str, kind=float,
                 empty_is_missing: bool = False) -> np.ndarray:
    """The cells of column ``name`` as a finite array of ``kind``; an empty,
    unparsable or non-finite cell raises DataError naming the file, the row
    (1-based, counting data rows) and the column. With ``empty_is_missing``
    (float columns only) an empty cell reads as NaN, a missing value."""
    convert = parse_cell if empty_is_missing else kind
    try:
        values = np.array([convert(c) for c in cells], dtype=kind)
    except ValueError:
        bad = next(i for i, c in enumerate(cells) if not _parses(c, convert))
        problem = "is empty" if cells[bad] == "" else f"is not a number: {cells[bad]!r}"
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
    if len(off := np.flatnonzero(ticks != np.arange(len(ticks)))):
        raise DataError(f"{path}: row {off[0] + 1} has tick {ticks[off[0]]}, expected "
                        f"{off[0]}; ticks run 0..n-1")
    return ticks


def parse_labels(path, cells: Sequence[str]) -> np.ndarray:
    """The ``label`` column, each cell 0 (benign) or 1 (attacked)."""
    labels = parse_column(path, cells, "label", int)
    if len(bad := np.flatnonzero((labels != 0) & (labels != 1))):
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
