"""Deterministic CSV output: RFC-4180 line endings, 10 significant digits."""

from __future__ import annotations

import math
from pathlib import Path


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def format_float(x: float) -> str:
    """Positional decimal with exactly 10 significant digits.

    0.0477 renders as 0.04770000000 and 5000.0 as 5000.000000; no locale, no
    exponent for the magnitudes this package emits.
    """
    if not math.isfinite(x):
        return repr(x)
    if x == 0.0:
        return "0.000000000"
    mantissa, exp = f"{x:.9e}".split("e")
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")   # 10 significant digits
    e = int(exp)
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    if e >= len(digits) - 1:
        return f"{sign}{digits}{'0' * (e - len(digits) + 1)}.0"
    return f"{sign}{digits[:e + 1]}.{digits[e + 1:]}"


def emit_csv(path, header, rows) -> Path:
    """Write one table, making its directory if need be; every cell is
    formatted through format_value."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    # bytes, not text mode: CRLF must survive on every platform
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
    return path


def read_csv(path):
    """Parse a file written by emit_csv back into (header, rows of strings)."""
    text = Path(path).read_bytes().decode("ascii")
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows
