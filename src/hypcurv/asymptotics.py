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


def _label_sublevel(grid: GridFunction, level: float):
    """Face-adjacency labeling of {h < -level} union excised nodes."""
    inset = (grid.values < -level) | np.isneginf(grid.values)
    structure = scipy.ndimage.generate_binary_structure(grid.ndim, 1)
    labels, count = scipy.ndimage.label(inset, structure=structure)
    return labels, count


def _components_from_labels(grid: GridFunction, labels, count) -> list:
    """Components of a labelling, from one pass over its labelled nodes.

    Nodes stay in C order within each component; coordinates are gathered per axis.
    """
    idx = np.argwhere(labels)
    lab = labels[tuple(idx.T)]
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


def sublevel_components(field: HeightField, lo, hi, spacing: float, level: float,
                        grid: GridFunction = None) -> list:
    """Connected components of {h < -level} on the analysis lattice.

    An empty sublevel set returns an empty list.  A pre-sampled height grid may be
    passed to amortize sampling across levels.
    """
    if grid is None:
        grid = sample_height_grid(field, lo, hi, spacing)
    labels, count = _label_sublevel(grid, level)
    return _components_from_labels(grid, labels, count)


def recession_report(field: HeightField, levels, lo, hi, spacing: float) -> RecessionReport:
    """Track sublevel components across increasing levels and count boundary points.

    The components surviving at the deepest level are traced back through the
    shallower sets (sublevels are nested); a component decays when its final diameter
    is at most half its first.  Non-decaying survivors flag a fat recession set.
    """
    levels = tuple(float(M) for M in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError("levels must be strictly increasing")
    grid = sample_height_grid(field, lo, hi, spacing)
    per_level = []
    label_maps = []
    for M in levels:
        labels, count = _label_sublevel(grid, M)
        comps = _components_from_labels(grid, labels, count)
        per_level.append(comps)
        label_maps.append(labels)

    counts = tuple(len(c) for c in per_level)
    max_diams = tuple(max((c.diameter for c in comps), default=0.0) for comps in per_level)

    trajectories = []
    decaying = 0
    fat = False
    for comp in per_level[-1]:
        witness = tuple(comp.indices[0])
        traj = []
        for k, comps in enumerate(per_level):
            lab = label_maps[k][witness]
            if lab == 0:
                traj.append(math.nan)
                continue
            traj.append(comps[lab - 1].diameter)
        trajectories.append(tuple(traj))
        finite = [d for d in traj if not math.isnan(d)]
        if len(finite) >= 2 and finite[-1] <= DECAY_RATIO * finite[0]:
            decaying += 1
        elif len(finite) == 1 and finite[0] <= 2 * spacing:
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
