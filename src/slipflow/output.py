"""The one output format of every data file the package writes.

Floats are printed with 17 significant digits, enough to round-trip every
double exactly, so reruns reproduce each CSV byte for byte and a reader
recovers the stored values bit for bit.  Each CSV row is formatted by one
``%`` of its header's count of ``%.17g`` fields over the row's values, so
a row has one value per header column.  ``%.17g`` prints a float and its
NumPy scalar alike (and an integer as its digits), so a row of Python
numbers, such as a ``tolist()`` of stacked columns, gives the bytes of
``csv_row``.  JSON is indented by two spaces with sorted keys and ends in
a newline; a non-finite float (a quantity a failed run never measured) is
written as null.

Standard library only: the command-line module imports it before numpy is
loaded.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = ["fmt", "csv_row", "write_lines", "write_csv", "write_json"]

_FLOAT = "%.17g"


def fmt(x) -> str:
    """One number as printed in every CSV file."""
    return _FLOAT % x


def csv_row(values) -> str:
    """Comma-separated numbers, each through ``fmt``."""
    return ",".join(_FLOAT % v for v in values)


def write_lines(path, lines) -> Path:
    """Write text lines, each terminated by a newline."""
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_csv(path, header: str, rows) -> Path:
    """A header line followed by one line per row of numbers, each the
    ``csv_row`` of the row, formatted by one ``%`` over the row's values."""
    line = ",".join([_FLOAT] * (header.count(",") + 1))
    return write_lines(path, [header, *(line % tuple(row) for row in rows)])


def _finite(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def write_json(path, obj) -> Path:
    """Indented, key-sorted JSON with a trailing newline; NaN and +-inf as null."""
    path = Path(path)
    path.write_text(json.dumps(_finite(obj), indent=2, sort_keys=True) + "\n")
    return path
