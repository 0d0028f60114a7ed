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

_REQUIRED = object()


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


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    lines = path.read_text().splitlines()
    if not lines:
        raise DataError(f"empty CSV file: {path}")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line != ""]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}")
    return header, rows


def parse_cell(text: str) -> float:
    return math.nan if text == "" else float(text)


def _parses(text: str, kind) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def parse_column(path, rows: Sequence[Sequence[str]], index: int, name: str,
                 kind=float, empty_is_missing: bool = False) -> np.ndarray:
    """Column ``index`` of ``read_csv`` rows as a finite array of ``kind``.

    An empty, unparsable or non-finite cell raises DataError naming the
    file, the row (1-based, as ``read_csv`` counts them) and the column.
    With ``empty_is_missing`` (float columns only) an empty cell reads as
    NaN, a missing value, instead.
    """
    cells = [row[index] for row in rows]
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


def finite_float(value) -> float:
    """A finite JSON number as a float; anything else raises ValueError."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError("not a finite number")
    return float(value)


def reject_unknown_keys(section: dict, where: str, known) -> None:
    """Raise ConfigError naming ``where.key`` for a key not in ``known``."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        name = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError(f"unknown config key '{name}'")


def config_value(section: dict, where: str, key: str, kind, default=_REQUIRED):
    """``section[key]``, or ``default`` when absent, converted by ``kind``;
    ``int`` takes integral numbers only (never truncating), ``float`` finite ones.

    A missing required key or a value ``kind`` rejects raises ConfigError
    naming ``where.key``.
    """
    name = f"{where}.{key}" if where else key
    if key not in section and default is _REQUIRED:
        raise ConfigError(f"missing config key '{name}'")
    value = section.get(key, default)
    try:
        if kind is int and (type(value) not in (int, float) or value != int(value)):
            raise ValueError("not an integral number")
        return (finite_float if kind is float else kind)(value)
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
