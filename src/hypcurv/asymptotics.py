"""Sublevel components of the height function and recession-set bookkeeping.

Deep sublevel sets {h < -M} of the height h = log f localize the finite part of the
recession set: each surviving component whose diameter keeps shrinking as M grows is
counted as one asymptotic boundary point, and an unbounded graph domain contributes
the projection point p_0 on top.  Components use face adjacency on the analysis
lattice and diameters are Euclidean in the horosphere coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.ndimage
from scipy.spatial import ConvexHull, QhullError

from .errors import ParameterError
from .gridfn import GridFunction
from .heightfield import HeightField, sample_height_grid

__all__ = ["Component", "RecessionReport", "sublevel_components", "recession_report",
           "recession_json"]

#: a final-level component counts as decaying if its diameter halves across the levels
DECAY_RATIO = 0.5


@dataclass(frozen=True)
class Component:
    """One face-connected component of a sublevel set."""

    indices: np.ndarray   # node multi-indices, shape (N, n)
    coords: np.ndarray    # node coordinates, shape (N, n)
    diameter: float


@dataclass(frozen=True)
class RecessionReport:
    levels: tuple
    counts: tuple              # component count per level
    max_diameters: tuple       # max component diameter per level (0.0 when empty)
    boundary_points: int       # decaying components + p_0 for unbounded domains
    includes_projection_point: bool
    fat_recession: bool        # some final-level component failed to decay
    trajectories: tuple        # per final-level component: diameters across levels
    dims: tuple                # node counts of the analysis lattice


def _set_diameter(pts: np.ndarray) -> float:
    """Exact max pairwise distance; convex hull first, brute force on small sets."""
    if pts.shape[0] <= 1:
        return 0.0
    if pts.shape[0] <= 512:
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diff, diff))))
    # drop degenerate axes so the hull is full-dimensional
    spans = pts.max(axis=0) - pts.min(axis=0)
    keep = spans > 0
    core = pts[:, keep]
    if core.shape[1] == 0:
        return 0.0
    if core.shape[1] == 1:
        return float(spans[keep][0])
    try:
        hull = ConvexHull(core)
        verts = pts[hull.vertices]
    except QhullError:
        verts = pts
    diff = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diff, diff))))


def _check_levels(levels) -> tuple:
    """Sublevel depths as floats; ParameterError unless finite and strictly increasing."""
    levels = tuple(float(M) for M in levels)
    if (not levels or not all(math.isfinite(M) for M in levels)
            or any(b <= a for a, b in zip(levels, levels[1:]))):
        raise ParameterError(f"levels must be finite and strictly increasing, got {levels}")
    return levels


def _label_sublevel(grid: GridFunction, level: float, box: tuple):
    """Face-adjacency labelling of {h < -level} within the index box ``box``.

    ``box`` (a slice per axis) must hold the whole set; the labelling covers the set's
    own bounding box, which is returned with it as (labels, count, box).  An empty set
    returns (None, 0, None).  A translated sub-box keeps C order, so the labels are
    numbered as on the full lattice.  Excised nodes (-inf) lie in every sublevel set.
    """
    inset = grid.values[box] < -level
    crop = []
    for d in range(grid.ndim):
        hit = np.flatnonzero(inset.any(axis=tuple(a for a in range(grid.ndim) if a != d)))
        if hit.size == 0:
            return None, 0, None
        crop.append(slice(hit[0], hit[-1] + 1))
    box = tuple(slice(b.start + c.start, b.start + c.stop) for b, c in zip(box, crop))
    structure = scipy.ndimage.generate_binary_structure(grid.ndim, 1)
    labels, count = scipy.ndimage.label(inset[tuple(crop)], structure=structure)
    return labels, count, box


def _components_from_labels(grid: GridFunction, labels, count, box) -> list:
    """Components of a labelling of the index box ``box``, from one pass over its
    labelled nodes.

    Nodes stay in C order within each component; coordinates are gathered per axis.
    """
    if count == 0:
        return []
    idx = np.argwhere(labels)
    lab = labels[tuple(idx.T)]
    idx += [b.start for b in box]
    order = np.argsort(lab, kind="stable")
    idx = idx[order]
    pts = np.stack([axis[idx[:, d]] for d, axis in enumerate(grid.axes())], axis=-1)
    ends = np.cumsum(np.bincount(lab, minlength=count + 1))
    # a node between two others of its lattice row lies on their segment, so it is no
    # extreme point and the diameter needs only the ends of each row of a component
    first = np.r_[True, np.any(idx[1:, :-1] != idx[:-1, :-1], axis=1)]
    first[ends[:-1]] = True
    edge = first | np.r_[first[1:], True]
    return [Component(idx[a:b], pts[a:b], _set_diameter(pts[a:b][edge[a:b]]))
            for a, b in zip(ends[:-1], ends[1:])]


def sublevel_components(grid: GridFunction, level: float) -> list:
    """Connected components of {h < -level} on a height lattice (``sample_height_grid``).

    An empty sublevel set returns an empty list; a non-finite level raises
    ParameterError.
    """
    (level,) = _check_levels([level])
    labels, count, box = _label_sublevel(grid, level, tuple(slice(0, d) for d in grid.dims))
    return _components_from_labels(grid, labels, count, box)


def recession_report(field: HeightField, levels, lo, hi, spacing: float) -> RecessionReport:
    """Track sublevel components across increasing levels and count boundary points.

    The sublevel sets are nested, so each level is labelled only within the bounding
    box of the previous one.  The components surviving at the deepest level are traced
    back through the shallower sets; a component decays when its final diameter is at
    most half its first.  Non-decaying survivors flag a fat recession set.
    """
    levels = _check_levels(levels)
    grid = sample_height_grid(field, lo, hi, spacing)
    per_level = []  # (components, labels, box) per level
    box = tuple(slice(0, d) for d in grid.dims)
    for M in levels:
        labels, count, box = _label_sublevel(grid, M, box) if box else (None, 0, None)
        per_level.append((_components_from_labels(grid, labels, count, box), labels, box))

    counts = tuple(len(comps) for comps, _, _ in per_level)
    max_diams = tuple(max((c.diameter for c in comps), default=0.0)
                      for comps, _, _ in per_level)

    trajectories = []
    decaying = 0
    fat = False
    for comp in per_level[-1][0]:
        # the witness node lies in every shallower set, and so in every level's box
        witness = comp.indices[0]
        traj = tuple(comps[lab[tuple(witness - [b.start for b in at])] - 1].diameter
                     for comps, lab, at in per_level)
        trajectories.append(traj)
        if len(traj) >= 2 and traj[-1] <= DECAY_RATIO * traj[0]:
            decaying += 1
        elif len(traj) == 1 and traj[0] <= 2 * spacing:
            decaying += 1  # already at lattice scale on its first appearance
        else:
            fat = True
    k = decaying + (1 if field.unbounded else 0)
    return RecessionReport(levels, counts, max_diams, k, field.unbounded, fat,
                           tuple(trajectories), grid.dims)


def recession_json(report: RecessionReport) -> dict:
    """Report JSON payload."""
    return {
        "levels": list(report.levels),
        "components": [{"count": c, "max_diameter": d}
                       for c, d in zip(report.counts, report.max_diameters)],
        "boundary_points": report.boundary_points,
        "includes_projection_point": report.includes_projection_point,
        "fat_recession": report.fat_recession,
    }
