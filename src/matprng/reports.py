"""Stable serialization for reports: decimal strings with 30 significant
digits for all non-integer numerics, canonical JSON, and LF-terminated CSV.
Running the same computation twice must produce byte-identical artifacts.

`dec30` runs on the standard library alone and keeps the format the
artifacts have always had: the value's leading digits, floored, rounded
half up at the 30th digit; fixed notation when the decimal exponent lies
in (-10, 30), scientific notation (`1.5e+30`, `2.0e-11`) otherwise,
trailing zeros stripped; `0.0`, `+inf`, `-inf` and `nan` for the special
values.  A `Decimal`, the value type of the bound formulas, is rendered
from its own digits, a float from its exact value, and a Fraction from
its quotient correctly rounded to 136 bits (40 digits).
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

DIGITS = 30
# fixed notation iff _MIN_FIXED < decimal exponent < _MAX_FIXED
_MIN_FIXED, _MAX_FIXED = -(DIGITS // 3), DIGITS
# binary precision of a Fraction's numerator, denominator and quotient:
# that of 40 decimal digits
_QUOTIENT_BITS = 136
# the format reads a binary value's digits after flooring it to this many
# bits (the precision of DIGITS + 3 digits); the cut leaves a 53-bit float
# as it is, but it can move the 31st digit of a 136-bit quotient
_CUT_BITS = int((DIGITS + 3) * math.log(10, 2)) + 10
# the cut applies between 2**-_CUT_RANGE and 2**_CUT_RANGE; only a
# Fraction gets beyond, and there its digits are read uncut
_CUT_RANGE = 3500


def dec30(x) -> str:
    """Decimal string with 30 significant digits (deterministic)."""
    if isinstance(x, bool):
        raise TypeError("booleans are not numerics here")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Decimal):
        return _decimal_str(x)
    if isinstance(x, Fraction):
        if not x:
            return "0.0"
        man, exp = _nearest(abs(x.numerator), 1)
        den_man, den_exp = _nearest(x.denominator, 1)
        man, quot_exp = _nearest(man, den_man)
        return _layout(x < 0, *_floor_digits(man, quot_exp + exp - den_exp))
    return _decimal_str(Decimal(float(x)))  # exact: a float never needs the cut


def _nearest(num: int, den: int) -> tuple[int, int]:
    """(man, exp) with man * 2**exp the positive num/den rounded to
    _QUOTIENT_BITS bits, ties to even."""
    shift = _QUOTIENT_BITS + 1 - num.bit_length() + den.bit_length()
    q, rem = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    n = q.bit_length() - _QUOTIENT_BITS  # 1 or 2 bits to drop
    low, q = q & ((1 << n) - 1), q >> n
    half = 1 << (n - 1)
    if low > half or (low == half and (rem or q & 1)):
        q += 1
    return q, n - shift


def _floor_digits(man: int, exp: int) -> tuple[str, int]:
    """At least DIGITS + 1 leading decimal digits of man * 2**exp > 0,
    floored, after the cut to _CUT_BITS, and the decimal exponent of the
    first digit."""
    top = exp + man.bit_length()
    if abs(top) <= _CUT_RANGE:
        # floor to a multiple of 2**-fixprec
        fixprec = max(_CUT_BITS - top, 0)
        if exp + fixprec < 0:
            man, exp = man >> -(exp + fixprec), -fixprec
    # man * 2**exp * 10**k has DIGITS + 3 or DIGITS + 4 digits
    k = DIGITS + 3 - math.floor(top * math.log10(2))
    num, den = man * 10 ** max(k, 0), 10 ** max(-k, 0)
    if exp >= 0:
        num <<= exp
    else:
        den <<= -exp
    digits = str(num // den)
    return digits, len(digits) - 1 - k


def _decimal_str(x: Decimal) -> str:
    if x.is_nan():
        return "nan"
    if x.is_infinite():
        return "-inf" if x.is_signed() else "+inf"
    if not x:
        return "0.0"
    sign, digits, _ = x.as_tuple()
    return _layout(bool(sign), "".join(map(str, digits)), x.adjusted())


def _layout(negative: bool, digits: str, exponent: int) -> str:
    """Round the digit string `digits` (first digit nonzero, at decimal
    exponent `exponent`) half up to DIGITS digits and lay it out."""
    if len(digits) > DIGITS and digits[DIGITS] >= "5":
        head = digits[:DIGITS].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1)
        else:
            digits, exponent = "1", exponent + 1
    else:
        digits = digits[:DIGITS]
    if _MIN_FIXED < exponent < _MAX_FIXED:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
            digits = digits.ljust(split, "0")
        exponent = 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if negative:
        text = "-" + text
    return text if exponent == 0 else f"{text}e{exponent:+d}"


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
    or object holding Python ints), rendered with one `%d` format over the
    whole block: a decimal integer never needs quoting, so both give the
    same bytes.  An empty header writes no header row, so a table can be
    rendered a block of rows at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(header)
    if isinstance(rows, (list, tuple)):
        writer.writerows([fmt_cell(x) for x in row] for row in rows)
        return buf.getvalue()
    n, c = rows.shape
    line = "%d," * (c - 1) + "%d\n"
    return buf.getvalue() + (line * n) % tuple(rows.ravel().tolist())


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
    return dec30(x)  # floats, Decimals


def render_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
