import math

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import asymptotics
from hypcurv.asymptotics import (Component, recession_json, recession_report,
                                 sublevel_components)
from hypcurv.errors import ParameterError
from hypcurv.gridfn import GridFunction, box_face_mask
from hypcurv.heightfield import SampledGridField, make_catalog_surface, sample_height_grid

WINDOW = ([-0.5] * 3, [0.5] * 3)


def cone(s=1.0):
    return make_catalog_surface("equidistant_cone", {"slope": s}, 3)


def horosphere(c=1.0):
    return make_catalog_surface("horosphere", {"c": c}, 3)


def window_components(field, spacing, level):
    return sublevel_components(sample_height_grid(field, *WINDOW, spacing), level)


class TestSublevelComponents:
    def test_horosphere_empty(self):
        comps = window_components(horosphere(), 1.0 / 16, 1.0)
        assert comps == []

    @pytest.mark.parametrize("level", [2.0, 4.0])
    def test_cone_single_component_diameter(self, level):
        # sublevel geometry of log|x|: {h < -M} is the ball of radius e^-M
        spacing = 1.0 / 64
        comps = window_components(cone(), spacing, level)
        assert len(comps) == 1
        exact = 2.0 * math.exp(-level)
        assert comps[0].diameter <= exact + 2 * spacing
        assert comps[0].diameter >= exact - 2 * spacing

    def test_component_contains_origin_mask(self):
        comps = window_components(cone(), 1.0 / 16, 2.0)
        center_idx = np.array([8, 8, 8])
        assert any((c.indices == center_idx).all(axis=1).any() for c in comps)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_level_must_be_finite(self, level):
        grid = sample_height_grid(cone(), *WINDOW, 1.0 / 16)
        with pytest.raises(ParameterError, match="finite"):
            sublevel_components(grid, level)


class TestRecessionReport:
    def test_cone_two_points(self):
        rep = recession_report(cone(), [1, 2, 3, 4], *WINDOW, 1.0 / 64)
        assert rep.boundary_points == 2
        assert rep.includes_projection_point
        assert not rep.fat_recession
        assert rep.counts == (1, 1, 1, 1)

    def test_horosphere_single_point(self):
        rep = recession_report(horosphere(), [1, 2, 3, 4], *WINDOW, 1.0 / 32)
        assert rep.boundary_points == 1
        assert rep.counts == (0, 0, 0, 0)

    def test_cap_no_points(self):
        cap = make_catalog_surface(
            "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, 3)
        lo, hi = cap.domain.lo * 0.9, cap.domain.hi * 0.9
        rep = recession_report(cap, [1, 2, 3, 4], lo, hi, float(hi[0] - lo[0]) / 32)
        assert rep.boundary_points == 0
        assert not rep.includes_projection_point

    def test_diameter_decay_per_level(self):
        spacing = 1.0 / 64
        rep = recession_report(cone(), [1, 2, 3, 4], *WINDOW, spacing)
        for a, b in zip(rep.max_diameters, rep.max_diameters[1:]):
            assert b <= a / math.e + 2 * spacing

    def test_surviving_component_diameters_non_increasing(self):
        spacing = 1.0 / 64
        rep = recession_report(cone(), [1, 2, 3, 4], *WINDOW, spacing)
        for traj in rep.trajectories:
            finite = [d for d in traj if not math.isnan(d)]
            for a, b in zip(finite, finite[1:]):
                assert b <= a + 2 * spacing

    @pytest.mark.parametrize("s", [0.5, 2.0, 5.0])
    def test_all_cones_two_points(self, s):
        rep = recession_report(cone(s), [1, 2, 3, 4], *WINDOW, 1.0 / 64)
        assert rep.boundary_points == 2

    def test_resolution_monotone(self):
        coarse = window_components(cone(), 1.0 / 32, 2.0)
        fine = window_components(cone(), 1.0 / 64, 2.0)
        assert fine[0].diameter <= coarse[0].diameter + 2.0 / 32

    def test_levels_must_increase(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            recession_report(cone(), [2, 1], *WINDOW, 1.0 / 16)

    @pytest.mark.parametrize("levels", [[math.nan, 1.0], [1.0, math.nan], [1.0, math.inf],
                                        [-math.inf, 1.0], []])
    def test_levels_must_be_finite(self, levels):
        # NaN fails every order comparison, so only a finiteness check catches it
        with pytest.raises(ParameterError, match="finite"):
            recession_report(cone(1.8), levels, *WINDOW, 1.0 / 16)

    def test_fat_recession_flag(self):
        # a sampled trough that stays wide at every level: not a decaying point
        nodes = 17
        spacing = 1.0 / (nodes - 1)
        axes = [-0.5 + spacing * np.arange(nodes)] * 3
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = np.where(np.abs(mesh[0]) < 0.25, 1e-9, 1.0)  # h ~ -20.7 on a slab
        grid = GridFunction((nodes,) * 3, spacing, np.array([-0.5] * 3), vals)
        field = SampledGridField(grid, order=2)
        lo = grid.origin + 2 * spacing
        hi = -lo
        rep = recession_report(field, [1, 2, 3, 4], lo, hi, spacing)
        assert rep.fat_recession
        assert not rep.includes_projection_point

    def test_json_payload(self):
        rep = recession_report(cone(), [1, 2], *WINDOW, 1.0 / 32)
        doc = recession_json(rep)
        assert doc["boundary_points"] == 2
        assert len(doc["components"]) == 2
        assert doc["components"][0]["count"] == 1


def label_full_lattice(grid, level, box):
    """Reference: face-adjacency labelling of {h < -level} and the excised nodes over
    the whole lattice."""
    inset = (grid.values < -level) | np.isneginf(grid.values)
    labels, count = scipy.ndimage.label(
        inset, structure=scipy.ndimage.generate_binary_structure(grid.ndim, 1))
    return labels, count, tuple(slice(0, d) for d in grid.dims)


def components_per_label(grid, labels, count, box):
    """Reference: a scan of the labelled box per label, coordinates from the full node
    mesh and diameters of the ``np.unique`` point sets."""
    coords = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    comps = []
    for lab in range(1, count + 1):
        idx = np.argwhere(labels == lab) + [b.start for b in box]
        pts = coords[tuple(idx.T)]
        comps.append(Component(idx, pts, asymptotics._set_diameter(np.unique(pts, axis=0))))
    return comps


def masked_lattice(seed, n, excised):
    """Random heights on a lattice of 3..12 nodes per axis (3..6 at n = 4), with a
    fraction of interior nodes excised (-inf and masked)."""
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(3, 13 if n < 4 else 7, size=n))
    values = rng.normal(size=dims)
    mask = box_face_mask(dims) | (rng.random(dims) < excised)
    values[mask & (rng.random(dims) < 0.5)] = -np.inf
    return GridFunction(dims, float(rng.uniform(0.05, 0.5)), rng.uniform(-1, 1, size=n),
                        values, mask)


def planted_lattice(seed, n):
    """Heights 1 on a lattice of 6..12 nodes per axis (6..8 at n = 4) with three blobs
    of random heights in (-3, 0], one per slab of axis 0 with a row of 1s between
    slabs; each blob is a random box across the other axes, the first lies on the
    lattice face at axis-0 index 0, and deep levels split a blob or empty it."""
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(6, 13 if n < 4 else 9, size=n))
    values = np.ones(dims)
    cuts = np.linspace(0, dims[0], 4).astype(int)
    for a, b in zip(cuts[:-1], cuts[1:]):
        start = rng.integers(0, dims[1:])
        stop = rng.integers(start + 1, np.asarray(dims[1:]) + 1)
        box = (slice(a, b - 1),) + tuple(map(slice, start, stop))
        values[box] = -rng.uniform(0, 3, size=values[box].shape)
    return GridFunction(dims, float(rng.uniform(0.05, 0.5)), rng.uniform(-1, 1, size=n),
                        values)


def same_components(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.indices.tolist() == b.indices.tolist()
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.diameter == b.diameter


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       level=st.floats(-1.5, 4.0), excised=st.floats(0.0, 0.3), planted=st.booleans())
def test_sublevel_components_match_per_label_walk(seed, n, level, excised, planted):
    # planted lattices give separate components, sets on the faces and, at levels
    # of 3 or more, empty sets; masked ones give excised nodes in every set
    grid = planted_lattice(seed, n) if planted else masked_lattice(seed, n, excised)
    ref = components_per_label(grid, *label_full_lattice(grid, level, None))
    same_components(sublevel_components(grid, level), ref)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), excised=st.floats(0.0, 0.3),
       planted=st.booleans(), deepest=st.sampled_from([1.2, 2.5, 3.5]))
def test_recession_report_matches_per_label_walk(seed, n, excised, planted, deepest):
    grid = planted_lattice(seed, n) if planted else masked_lattice(seed, n, excised)
    levels = [-1.0, -0.3, 0.4, deepest]  # a planted lattice is empty at 3.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "sample_height_grid", lambda *args: grid)
        new = recession_report(cone(), levels, None, None, grid.spacing)
        mp.setattr(asymptotics, "_label_sublevel", label_full_lattice)
        mp.setattr(asymptotics, "_components_from_labels", components_per_label)
        ref = recession_report(cone(), levels, None, None, grid.spacing)
    assert repr(new) == repr(ref)
