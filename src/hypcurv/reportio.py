"""Deterministic report serialization: JSON and CSV with 17-significant-digit floats.

The standard json encoder does not expose float formatting, so reports go through a
small recursive writer, and CSV tables through a row writer that spells floats the
same way.  Output is bitwise-stable for a fixed manifest and build, and every report
embeds the manifest that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunManifest", "csv_rows", "dumps", "format_float"]

TOOL_VERSION = "0.1.0"


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    text = f"{x:.17g}"
    # a JSON reader takes "-0" for the integer 0 and drops the sign
    return "-0.0" if text == "-0" else text


#: text that ``%.17g`` writes only for NaN, the infinities and -0.0, which
#: format_float spells otherwise
_ODD = ("nan", "inf", "-0,", "-0\n")


def _csv_line(row) -> str:
    return ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def csv_rows(rows) -> str:
    """CSV lines of ``rows``, each float spelt by :func:`format_float`, any other value
    by ``str``.

    Every row has the column types of the first, so one C-level ``%`` formats a row.
    Its ``%.17g`` is format_float's own routine; only the rare line where it wrote
    ``nan``, ``inf`` or a bare ``-0`` is written again value by value.
    """
    if not rows:
        return ""
    spec = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
    lines = [spec % tuple(row) for row in rows]
    text = "".join(lines)
    if any(odd in text for odd in _ODD):
        text = "".join(_csv_line(row) if any(odd in line for odd in _ODD) else line
                       for row, line in zip(rows, lines))
    return text


def _encode(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}{json.dumps(str(k))}: {_encode(v, indent, level + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad_in}{_encode(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), indent, level)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize to JSON text with all floats at 17 significant digits."""
    return _encode(obj, indent, 0) + "\n"


@dataclass
class RunManifest:
    """Reproducibility record embedded in every emitted report."""

    command: str
    inputs: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    seed: int = 0
    version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "config": self.config,
            "outputs": list(self.outputs),
            "seed": self.seed,
            "version": self.version,
        }
