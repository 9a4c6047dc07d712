import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import asymptotics
from hypcurv.asymptotics import (Component, recession_json, recession_report,
                                 sublevel_components)
from hypcurv.errors import ParameterError
from hypcurv.gridfn import GridFunction, box_face_mask
from hypcurv.heightfield import SampledGridField, make_catalog_surface

WINDOW = ([-0.5] * 3, [0.5] * 3)


def cone(s=1.0):
    return make_catalog_surface("equidistant_cone", {"slope": s}, 3)


def horosphere(c=1.0):
    return make_catalog_surface("horosphere", {"c": c}, 3)


class TestSublevelComponents:
    def test_horosphere_empty(self):
        comps = sublevel_components(horosphere(), *WINDOW, 1.0 / 16, 1.0)
        assert comps == []

    @pytest.mark.parametrize("level", [2.0, 4.0])
    def test_cone_single_component_diameter(self, level):
        # sublevel geometry of log|x|: {h < -M} is the ball of radius e^-M
        spacing = 1.0 / 64
        comps = sublevel_components(cone(), *WINDOW, spacing, level)
        assert len(comps) == 1
        exact = 2.0 * math.exp(-level)
        assert comps[0].diameter <= exact + 2 * spacing
        assert comps[0].diameter >= exact - 2 * spacing

    def test_component_contains_origin_mask(self):
        comps = sublevel_components(cone(), *WINDOW, 1.0 / 16, 2.0)
        center_idx = np.array([8, 8, 8])
        assert any((c.indices == center_idx).all(axis=1).any() for c in comps)


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
        coarse = sublevel_components(cone(), *WINDOW, 1.0 / 32, 2.0)
        fine = sublevel_components(cone(), *WINDOW, 1.0 / 64, 2.0)
        assert fine[0].diameter <= coarse[0].diameter + 2.0 / 32

    def test_levels_must_increase(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            recession_report(cone(), [2, 1], *WINDOW, 1.0 / 16)

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


def components_per_label(grid, labels, count):
    """Reference: a lattice scan per label, coordinates from the full node mesh and
    diameters of the ``np.unique`` point sets."""
    coords = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    comps = []
    for lab in range(1, count + 1):
        idx = np.argwhere(labels == lab)
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


def same_components(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.indices.tolist() == b.indices.tolist()
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.diameter == b.diameter


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       level=st.floats(-1.5, 1.0), excised=st.floats(0.0, 0.3))
def test_sublevel_components_match_per_label_walk(seed, n, level, excised):
    grid = masked_lattice(seed, n, excised)
    labels, count = asymptotics._label_sublevel(grid, level)
    same_components(sublevel_components(None, None, None, None, level, grid=grid),
                    components_per_label(grid, labels, count))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), excised=st.floats(0.0, 0.3))
def test_recession_report_matches_per_label_walk(seed, n, excised):
    grid = masked_lattice(seed, n, excised)
    levels = [-1.0, -0.3, 0.4, 1.2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "sample_height_grid", lambda *args: grid)
        new = recession_report(cone(), levels, None, None, grid.spacing)
        mp.setattr(asymptotics, "_components_from_labels", components_per_label)
        ref = recession_report(cone(), levels, None, None, grid.spacing)
    assert repr(new) == repr(ref)
