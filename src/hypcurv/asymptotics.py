"""Sublevel components of the height function and recession-set bookkeeping.

Deep sublevel sets {h < -M} of the height h = log f localize the finite part of the
recession set: each surviving component whose diameter keeps shrinking as M grows is
counted as one asymptotic boundary point, and an unbounded graph domain contributes
the projection point p_0 on top.  Components use face adjacency on the analysis
lattice and diameters are Euclidean in the horosphere coordinates.  From labelling to
report, a sublevel set is held in one form: its runs along the last lattice axis, each
a first and a last node and a component number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gridfn import GridFunction
from .heightfield import HeightField, sample_height_grid

__all__ = ["Component", "RecessionReport", "recession_report", "recession_json"]

#: a final-level component counts as decaying if its diameter halves across the levels
DECAY_RATIO = 0.5


@dataclass(frozen=True)
class Component:
    """One face-connected component of a sublevel set."""

    first: np.ndarray     # multi-index of its first node in C order, shape (n,)
    size: int             # node count
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


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of ``a`` and ``b``: the one pair formula, so a
    diameter holds the bits of an all-pairs einsum."""
    d = a - b
    return np.einsum("ij,ij->i", d, d)


def _set_diameter(pts: np.ndarray) -> float:
    """Exact largest distance between two rows of ``pts``.

    With r the distance to the bounding-box centre and R its maximum, a double sweep
    (the row farthest from the row of largest r, then the row farthest from that one)
    gives a pair's squared distance ``best``.  A row with r + R < sqrt(best) is in no
    farther pair, and the pairs of the other rows are screened with their Gram matrix;
    both tests leave a margin for rounding.  The pairs that pass are measured with
    :func:`_sq_dists`, so the result holds the bits of the all-pairs maximum.
    """
    if len(pts) <= 1:
        return 0.0
    y = pts - 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    r = np.sqrt(np.einsum("ij,ij->i", y, y))
    far = pts[np.argmax(_sq_dists(pts, pts[np.argmax(r)]))]
    best = _sq_dists(pts, far).max()
    if best == 0:
        return 0.0  # all rows are equal
    R = r.max()
    scale = R + np.abs(pts).max()
    tol = 256 * np.finfo(float).eps * scale
    keep = r + R >= math.sqrt(best) - tol
    pts, y, r2 = pts[keep], y[keep], r[keep] ** 2
    rows = max(1, (1 << 20) // len(y))  # Gram blocks of about 8 MB
    for a in range(0, len(y), rows):
        gram = r2[a:a + rows, None] + r2 - 2 * (y[a:a + rows] @ y.T)
        i, j = np.nonzero(gram >= best - tol * scale)
        if i.size:
            best = max(best, _sq_dists(pts[a + i], pts[j]).max())
    return float(np.sqrt(best))


def _check_levels(levels) -> tuple:
    """Sublevel depths as floats; ParameterError unless finite and strictly increasing."""
    levels = tuple(float(M) for M in levels)
    if (not levels or not all(math.isfinite(M) for M in levels)
            or any(b <= a for a, b in zip(levels, levels[1:]))):
        raise ParameterError(f"levels must be finite and strictly increasing, got {levels}")
    return levels


def _label_faces(mask: np.ndarray):
    """Face-connected components of a boolean array, as its runs along the last axis.

    Returns, for the runs in C order, the flat C-order indices of each run's first and
    last node and the run's component number, counted from 1 by each component's
    first node in C order (as ``scipy.ndimage.label`` numbers them).  Two runs in
    face-adjacent rows touch if and only if their overlap is not empty, and the overlap
    begins at the start of one of them; so each run start is linked to the runs of its
    two neighbours along every other axis.  The links are merged by min-label hooking
    with pointer jumping, which leaves every run pointing at the least run of its
    component, the one that holds the component's first node.
    """
    flat = np.ravel(mask)
    rows = mask.shape[-1]
    starts, ends = flat.copy(), flat.copy()
    starts[1:] &= ~flat[:-1]
    starts[::rows] = flat[::rows]
    ends[:-1] &= ~flat[1:]
    ends[rows - 1::rows] = flat[rows - 1::rows]
    first, last = np.flatnonzero(starts), np.flatnonzero(ends)
    u, v = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    stride = rows
    for d in range(mask.ndim - 2, -1, -1):
        at = first // stride % mask.shape[d]
        for step, inside in ((-stride, at > 0), (stride, at < mask.shape[d] - 1)):
            q = first[inside] + step
            hit = flat[q]
            u.append(np.flatnonzero(inside)[hit])
            v.append(np.searchsorted(first, q[hit], side="right") - 1)
        stride *= mask.shape[d]
    u, v = np.concatenate(u), np.concatenate(v)
    parent = np.arange(len(first))
    while True:
        pu, pv = parent[u], parent[v]
        moved = pu != pv
        if not moved.any():
            break
        u, v, pu, pv = u[moved], v[moved], pu[moved], pv[moved]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    number = np.cumsum(parent == np.arange(len(first)), dtype=np.int32)
    return first, last, number[parent]


def _label_sublevel(grid: GridFunction, level: float, box: tuple):
    """Runs of {h < -level} within the index box ``box``, and the set's bounding box.

    ``box`` (a slice per axis) must hold the whole set.  It shrinks to the set's own
    bounding box one axis at a time, each axis's extent read from the set already
    cropped along the earlier axes, and the set is labelled there.  The runs come back
    as (first, last, component) with flat C-order indices into the whole lattice: a
    translated sub-box keeps C order, so runs and component numbers are those of the
    full lattice.  An empty set returns (None, None).  Excised nodes (-inf) lie in
    every sublevel set.
    """
    inset = grid.values[box] < -level
    box = list(box)
    for d in range(grid.ndim):
        hit = np.flatnonzero(inset.any(axis=tuple(a for a in range(grid.ndim) if a != d)))
        if hit.size == 0:
            return None, None
        inset = inset[(slice(None),) * d + (slice(hit[0], hit[-1] + 1),)]
        box[d] = slice(box[d].start + hit[0], box[d].start + hit[-1] + 1)
    first, last, number = _label_faces(inset)
    index = np.unravel_index(first, inset.shape)
    start = np.ravel_multi_index([i + b.start for i, b in zip(index, box)], grid.dims)
    return (start, start + (last - first), number), tuple(box)


def _components(grid: GridFunction, runs) -> list:
    """Components of a set given as its runs along the last axis (None: empty set).

    A component's node count is the sum of its run lengths, and its first node in C
    order is the first node of its least run.  Its diameter is measured on its run
    endpoints alone.  From any node q, the end of a run farther from q along the last
    axis is at least as far as every node of the run, also after rounding, since their
    coordinates differ on that axis alone and grow with the index; so the endpoints
    hold a pair at the component's diameter, to the bit.
    """
    if runs is None:
        return []
    first, last, number = runs
    order = np.argsort(number, kind="stable")
    first, last = first[order], last[order]
    cut = np.cumsum(np.bincount(number))
    sizes = np.add.reduceat(last - first + 1, cut[:-1])
    idx = np.stack(np.unravel_index(np.stack([first, last], axis=-1).ravel(), grid.dims),
                   axis=-1)
    pts = np.stack([axis[idx[:, d]] for d, axis in enumerate(grid.axes())], axis=-1)
    return [Component(idx[a], int(size), _set_diameter(pts[a:b]))
            for a, b, size in zip(2 * cut[:-1], 2 * cut[1:], sizes)]


def recession_report(field: HeightField, levels, lo, hi, spacing: float) -> RecessionReport:
    """Track sublevel components across increasing levels and count boundary points.

    The sublevel sets are nested, so each level is labelled only within the bounding
    box of the previous one.  The components surviving at the deepest level are traced
    back through the shallower sets; a component decays when its final diameter is at
    most half its first.  Non-decaying survivors flag a fat recession set.
    """
    levels = _check_levels(levels)
    grid = sample_height_grid(field, lo, hi, spacing)
    per_level = []  # (components, runs) per level
    box = tuple(slice(0, d) for d in grid.dims)
    for M in levels:
        runs, box = _label_sublevel(grid, M, box) if box else (None, None)
        per_level.append((_components(grid, runs), runs))

    counts = tuple(len(comps) for comps, _ in per_level)
    max_diams = tuple(max((c.diameter for c in comps), default=0.0)
                      for comps, _ in per_level)

    trajectories = []
    decaying = 0
    fat = False
    for comp in per_level[-1][0]:
        # the witness node lies in every shallower set: in the last run of each level
        # that starts at or before it
        witness = np.ravel_multi_index(comp.first, grid.dims)
        traj = tuple(comps[number[np.searchsorted(first, witness, "right") - 1] - 1].diameter
                     for comps, (first, _, number) in per_level)
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
