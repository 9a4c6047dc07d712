"""Lattice scalar fields: the substrate for the p-harmonic solver and sublevel analysis.

A :class:`GridFunction` stores node values on a regular axis-aligned lattice with a
single scalar spacing.  Values may be ``-inf`` at excised nodes (e.g. where a height
function diverges); every ``-inf`` node must be masked.  The boundary mask marks nodes
that are held fixed by the solver; it always covers the topological boundary of the
lattice box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .reportio import _spell_distinct

__all__ = ["GridFunction", "load_grid_function", "save_grid_function"]

#: nodes that save_grid_function spells and writes at a time
WRITE_BLOCK = 4096


@dataclass
class GridFunction:
    """Node values on a regular lattice.

    Parameters
    ----------
    dims : tuple of int
        Node counts per axis, each >= 3.
    spacing : float
        Lattice spacing, shared by all axes.
    origin : ndarray
        Coordinates of node (0, ..., 0).
    values : ndarray
        Node values, shape ``dims``; ``-inf`` marks excised nodes.
    boundary_mask : ndarray of bool
        Nodes held fixed (Dirichlet data or excised), shape ``dims``.
    """

    dims: tuple
    spacing: float
    origin: np.ndarray
    values: np.ndarray
    boundary_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float).reshape(self.dims)
        if self.boundary_mask is None:
            self.boundary_mask = box_face_mask(self.dims)
        self.boundary_mask = np.asarray(self.boundary_mask, dtype=bool).reshape(self.dims)
        self.validate()

    # -- invariants ----------------------------------------------------------------
    def validate(self):
        if len(self.dims) < 1 or any(d < 3 for d in self.dims):
            raise ParameterError(f"grid needs >= 3 nodes per axis, got dims={self.dims}")
        if not self.spacing > 0:
            raise ParameterError(f"spacing must be positive, got {self.spacing}")
        if self.origin.shape != (len(self.dims),):
            raise ParameterError("origin dimension does not match dims")
        if not all(self.boundary_mask[face].all() for face in _box_faces(self.ndim)):
            raise ParameterError("boundary_mask must cover the topological boundary")
        finite = np.isfinite(self.values)
        if finite.all():
            return
        # the diagnostics read the non-finite nodes alone
        odd = np.logical_not(finite, out=finite)
        values, masked = self.values[odd], self.boundary_mask[odd]
        bad = np.isneginf(values) & ~masked
        if np.any(bad):
            raise DataError(f"-inf at {int(bad.sum())} unmasked node(s)")
        if np.any(np.isnan(values)) or np.any(np.isposinf(values)):
            raise DataError("grid values must be finite or -inf")

    # -- geometry helpers ----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    def axes(self):
        """Per-axis node coordinate arrays."""
        return [self.origin[k] + self.spacing * np.arange(d) for k, d in enumerate(self.dims)]

    def active_mask(self):
        """Nodes carrying a finite value."""
        return np.isfinite(self.values)

    def interior_mask(self):
        """Nodes the solver may update: active and not boundary."""
        return self.active_mask() & ~self.boundary_mask

    def copy(self) -> "GridFunction":
        return GridFunction(self.dims, self.spacing, self.origin.copy(),
                            self.values.copy(), self.boundary_mask.copy())


def _box_faces(ndim: int):
    """Index tuples of the 2 ndim faces of a lattice box."""
    for axis in range(ndim):
        for end in (0, -1):
            yield (slice(None),) * axis + (end,)


def box_face_mask(dims) -> np.ndarray:
    """Mask of the nodes on the faces of the lattice box."""
    mask = np.zeros(dims, dtype=bool)
    for face in _box_faces(len(dims)):
        mask[face] = True
    return mask


# -- CSV + JSON-header persistence -------------------------------------------------

def save_grid_function(gf: GridFunction, csv_path, header_path):
    """Write node values as one CSV column (C order) plus a JSON header."""
    header = {
        "dims": list(gf.dims),
        "spacing": gf.spacing,
        "origin": gf.origin.tolist(),
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    values, boundary = gf.values.ravel(), gf.boundary_mask.ravel()
    with open(csv_path, "w") as fh:
        fh.write("value,boundary\n")
        # per block of nodes, values spelt as %r, each distinct one once, and one %
        # writes every line; the blocks bound the text held at once
        for start in range(0, values.size, WRITE_BLOCK):
            block = slice(start, start + WRITE_BLOCK)
            table = np.empty((len(values[block]), 2), dtype=object)
            table[:, 0], spec = _spell_distinct(values[block], "%r", repr)
            table[:, 1] = boundary[block]
            fh.write(f"{spec},%d\n" * len(table) % tuple(table.ravel().tolist()))


def load_grid_function(csv_path, header_path) -> GridFunction:
    """Inverse of :func:`save_grid_function`; DataError on a malformed cell or a row
    count that does not match the header's dims."""
    with open(header_path) as fh:
        header = json.load(fh)
    dims = tuple(int(d) for d in header["dims"])
    try:
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        values = rows[:, 0].reshape(dims)
        boundary = rows[:, 1].reshape(dims).astype(bool)
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed grid values in {csv_path}: {exc}") from exc
    return GridFunction(dims, float(header["spacing"]), np.asarray(header["origin"], float),
                        values, boundary)
