"""Byte-size, time and text-table formatting helpers.

Experiment configs express per-node data sizes the way the paper does
("16 MB" .. "1 GB"); these helpers convert between human strings and the
float byte counts used throughout the simulator.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.util.errors import ConfigError

KiB: float = 1024.0
MiB: float = 1024.0**2
GiB: float = 1024.0**3

_SUFFIXES = {
    "b": 1.0,
    "kb": 1000.0,
    "kib": KiB,
    "mb": 1000.0**2,
    "mib": MiB,
    "gb": 1000.0**3,
    "gib": GiB,
    "tb": 1000.0**4,
    "tib": 1024.0**4,
}


def parse_size(value: "str | int | float") -> float:
    """Parse a human byte size (``"256MB"``, ``"1 GiB"``, ``4096``) to bytes.

    Numeric inputs are returned unchanged (as float).  String inputs accept
    an optional decimal value followed by an optional SI or IEC suffix,
    case-insensitively, with optional whitespace in between.

    Raises:
        ConfigError: if the string cannot be parsed or the size is negative.
    """
    if isinstance(value, (int, float)):
        if value < 0:
            raise ConfigError(f"negative size: {value!r}")
        return float(value)
    text = value.strip().lower()
    if not text:
        raise ConfigError("empty size string")
    idx = len(text)
    while idx > 0 and (text[idx - 1].isalpha()):
        idx -= 1
    number, suffix = text[:idx].strip(), text[idx:].strip()
    if not number:
        raise ConfigError(f"size string has no numeric part: {value!r}")
    try:
        magnitude = float(number)
    except ValueError as exc:
        raise ConfigError(f"bad size string: {value!r}") from exc
    if magnitude < 0:
        raise ConfigError(f"negative size: {value!r}")
    if not suffix:
        return magnitude
    try:
        scale = _SUFFIXES[suffix]
    except KeyError as exc:
        raise ConfigError(f"unknown size suffix {suffix!r} in {value!r}") from exc
    return magnitude * scale


def format_size(nbytes: float) -> str:
    """Render a byte count with a binary suffix, e.g. ``format_size(2*MiB)
    == "2.0MiB"``."""
    nbytes = float(nbytes)
    for suffix, scale in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(nbytes) >= scale:
            return f"{nbytes / scale:.1f}{suffix}"
    return f"{nbytes:.0f}B"


def format_time(seconds: float) -> str:
    """Render a duration in the most readable unit (us/ms/s)."""
    if seconds == 0:
        return "0s"
    if abs(seconds) < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if abs(seconds) < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def format_table(
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    rule: bool = False,
    align: Callable[[str, int], str] = str.ljust,
) -> List[str]:
    """Lines of an aligned text table: each column as wide as its widest
    cell, two spaces apart.  ``rule`` draws a dashed line under the
    header; ``align=str.rjust`` right-aligns (columns of numbers)."""
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = ["  ".join(align(h, w) for h, w in zip(header, widths))]
    if rule:
        lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(align(c, w) for c, w in zip(row, widths))
              for row in rows]
    return lines
