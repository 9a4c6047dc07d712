"""Deterministic report serialization: JSON and CSV with 17-significant-digit floats.

The standard json encoder does not expose float formatting, so reports go through a
small recursive writer, and CSV tables, a float block with text columns beside it,
through a table writer that spells floats the same way.  A scan table repeats most of
its floats to the bit (constant curvatures, lattice coordinates), so the table writer
spells each distinct float once and gathers the spellings.  Output is bitwise-stable
for a fixed manifest and build, and every report embeds the manifest that produced it.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote
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


#: bits of -0.0, which compares equal to 0.0 but is spelt apart from it
_NEG_ZERO = np.float64(-0.0).view(np.int64)


def _spell_distinct(values, spec: str, spell_odd):
    """Fields for the float64 array ``values`` and the ``%`` spec that writes each.

    Each distinct bit pattern is spelt once, by one C-level ``spec % v`` over all of
    them, or by ``spell_odd`` for NaN, the infinities and -0.0; the fields are then
    these spellings, an object array shaped like ``values``, and the spec is ``%s``.
    The key is the bits, never float equality, which would merge -0.0 with 0.0.  When
    more than three quarters of the values are distinct and none is odd, spelling and
    gathering them costs more than spelling every value, so the fields are ``values``
    and the spec is ``spec``.  ``spec`` must not write a comma.
    """
    bits = values.view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    distinct = keys.view(np.float64)
    odd = np.flatnonzero(~np.isfinite(distinct) | (keys == _NEG_ZERO)).tolist()
    if 4 * len(keys) > 3 * bits.size and not odd:
        return values, spec
    spelt = (f"{spec}," * len(keys) % tuple(distinct.tolist())).split(",")[:-1]
    for i in odd:
        spelt[i] = spell_odd(float(distinct[i]))
    # numpy 1.x returns a flat inverse, numpy 2.x may shape it like bits
    return np.array(spelt, dtype=object)[inverse.reshape(bits.shape)], "%s"


def csv_rows(values, text=None) -> str:
    """CSV lines of the float block ``values`` (P, m), with the text columns ``text``
    spliced in: a mapping from a column's position in the line to its P values, each
    written by ``str``.  Every float is spelt by :func:`format_float`.

    Each distinct value of the block is spelt once (:func:`_spell_distinct`): by
    ``%.17g``, which is format_float's own routine, or by format_float itself for NaN,
    the infinities and -0.0.  One C-level ``%`` then writes the whole table.
    """
    values = np.asarray(values, dtype=np.float64)
    text = text or {}
    rows, width = len(values), values.shape[1] + len(text)
    if rows == 0:
        return ""
    cells, spec = _spell_distinct(values, "%.17g", format_float)
    table = np.empty((rows, width), dtype=object)
    table[:, [c for c in range(width) if c not in text]] = cells
    for c, column in text.items():
        table[:, c] = column
    line = ",".join("%s" if c in text else spec for c in range(width)) + "\n"
    return line * rows % tuple(table.ravel().tolist())


def _encode(obj, step: str, pad: str) -> str:
    """JSON text of ``obj`` at indent ``pad``, each nested level ``step`` deeper.  Exact
    built-in types come first; numpy values, bools, None and subclasses go by isinstance."""
    kind = type(obj)
    if kind is float:
        return format_float(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + step
        items = [f"{inner}{_quote(str(k))}: {_encode(v, step, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        inner = pad + step
        items = [f"{inner}{_encode(v, step, inner)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), step, pad)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _quote(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize to JSON text with all floats at 17 significant digits."""
    return _encode(obj, " " * indent, "") + "\n"


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
