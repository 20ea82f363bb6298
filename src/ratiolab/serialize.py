"""Exact-rational wire formats and byte-stable report writers.

Rationals travel as "p/q" strings so no precision is ever lost; wherever a
human-facing table is written, a companion column carries a 20-significant-
digit decimal approximation (labeled approximate by its column name).
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ParameterError

APPROX_DIGITS = 20


def _exact(value: Fraction | int) -> Fraction:
    if isinstance(value, (float, bool)):
        raise ParameterError(f"a wire-form value must be int or Fraction, got {type(value).__name__}")
    return Fraction(value)


def frac_to_str(value: Fraction | int) -> str:
    f = _exact(value)
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ParameterError(f"a wire-form rational must be a string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a valid rational: {text!r} (expected p/q)") from exc


def approx_str(value: Fraction | int) -> str:
    """Decimal approximation with 20 significant digits."""
    f = _exact(value)
    with localcontext() as ctx:
        ctx.prec = APPROX_DIGITS
        return str(Decimal(f.numerator) / Decimal(f.denominator))


def write_csv(path, columns: list[str], rows, meta: dict | None = None) -> None:
    """Write a CSV with optional '# key: value' header lines, LF line endings."""
    text = render_csv(columns, rows, meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def render_csv(columns: list[str], rows, meta: dict | None = None) -> str:
    buf = io.StringIO()
    if meta:
        for key, value in meta.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_json(payload))


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
