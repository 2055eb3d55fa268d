"""Stable serialization for reports: decimal strings with 30 significant
digits for all non-integer numerics, canonical JSON, and LF-terminated CSV.
Running the same computation twice must produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

DIGITS = 30


def dec30(x) -> str:
    """Decimal string with 30 significant digits (deterministic)."""
    import mpmath as mp  # imported here: a command that renders no float never loads it

    if isinstance(x, bool):
        raise TypeError("booleans are not numerics here")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        with mp.workdps(DIGITS + 10):
            return mp.nstr(mp.mpf(x.numerator) / mp.mpf(x.denominator), DIGITS)
    with mp.workdps(DIGITS + 10):
        return mp.nstr(mp.mpf(x), DIGITS)


def fmt_cell(x) -> str:
    """CSV cell rendering: ints in decimal, bools lowercase, exact rationals
    as num/den, everything float-like via dec30."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if x is None:
        return ""
    return dec30(x)


def render_csv(header: Sequence[str], rows: Sequence[Sequence] | np.ndarray) -> str:
    """CSV text of a table.  `rows` is a sequence of rows, each cell rendered
    by fmt_cell (a list or a tuple), or a 2-D numpy array of integers (int64,
    or object holding Python ints), rendered column by column: a decimal
    integer never needs quoting, so both give the same bytes.  An empty
    header writes no header row, so a table can be rendered a block of rows
    at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(header)
    if isinstance(rows, (list, tuple)):
        writer.writerows([fmt_cell(x) for x in row] for row in rows)
        return buf.getvalue()
    lines = map(",".join, zip(*(map(str, column) for column in rows.T.tolist())))
    return buf.getvalue() + "".join(line + "\n" for line in lines)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return {"fraction": f"{x.numerator}/{x.denominator}", "decimal": dec30(x)}
    if isinstance(x, complex):
        return {"re": dec30(x.real), "im": dec30(x.imag)}
    return dec30(x)  # floats, mpf


def render_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
