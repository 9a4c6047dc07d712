import math

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import asymptotics
from hypcurv.asymptotics import Component, recession_json, recession_report
from hypcurv.errors import ParameterError
from hypcurv.gridfn import GridFunction, box_face_mask
from hypcurv.heightfield import SampledGridField, make_catalog_surface, sample_height_grid

WINDOW = ([-0.5] * 3, [0.5] * 3)


def cone(s=1.0):
    return make_catalog_surface("equidistant_cone", {"slope": s}, 3)


def horosphere(c=1.0):
    return make_catalog_surface("horosphere", {"c": c}, 3)


def sublevel_components(grid, level):
    """Face-connected components of {h < -level} on a height lattice, through the
    production labelling; ParameterError for a non-finite level."""
    (level,) = asymptotics._check_levels([level])
    runs, _ = asymptotics._label_sublevel(grid, level, tuple(slice(0, d) for d in grid.dims))
    return asymptotics._components(grid, runs)


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
        # {h < -2} is the excised apex node (8, 8, 8) and the nodes of the ball of
        # radius e^-2 (2.17 spacings) around it: the 33 nodes at most 2 spacings away
        spacing = 1.0 / 16
        grid = sample_height_grid(cone(), *WINDOW, spacing)
        assert np.isneginf(grid.values[8, 8, 8])
        (comp,) = sublevel_components(grid, 2.0)
        ball = np.argwhere(grid.values < -2.0)
        assert ball.tolist() == np.argwhere(
            np.sum((np.indices(grid.dims) - 8) ** 2, axis=0) <= 4).tolist()
        assert comp.first.tolist() == ball[0].tolist() == [6, 8, 8]
        assert comp.size == len(ball) == 33
        assert comp.diameter == 4 * spacing

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


def scipy_label(mask):
    """Reference: ``scipy.ndimage.label`` with the face structure."""
    return scipy.ndimage.label(
        mask, structure=scipy.ndimage.generate_binary_structure(mask.ndim, 1))


@st.composite
def label_masks(draw):
    """Boolean arrays in n = 1..4 with axes of length 1 and up: random masks of any
    density, sublevel sets of a smooth random height, empty and full masks, each
    possibly a cropped sub-box (a strided view) of the drawn array."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "smooth", "empty", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = tuple(rng.integers(1, {1: 60, 2: 24, 3: 12, 4: 7}[n] + 1, size=n))
    if kind == "random":
        mask = rng.random(dims) < rng.uniform(0, 1)
    elif kind == "smooth":
        # a few random plane waves; the level is a random quantile of the heights
        x = np.stack(np.meshgrid(*[np.arange(d) / 4.0 for d in dims], indexing="ij"), -1)
        h = sum(np.cos(x @ rng.normal(size=n) + rng.uniform(0, 2 * np.pi))
                for _ in range(3))
        mask = h < np.quantile(h, rng.uniform(0.05, 0.95))
    else:
        mask = np.full(dims, kind == "full")
    if draw(st.booleans()):
        start = rng.integers(0, dims)
        mask = mask[tuple(slice(a, rng.integers(a + 1, d + 1)) for a, d in zip(start, dims))]
    return mask


def run_labels(runs, shape):
    """The int32 label array (0 off the set) of runs (first, last, component) whose
    flat C-order indices address an array of ``shape``."""
    labels = np.zeros(math.prod(shape), np.int32)
    for a, b, lab in zip(*runs):
        labels[a:b + 1] = lab
    return labels.reshape(shape)


def label_runs(labels):
    """The runs (first, last, label) of equal nonzero labels along the last axis, in C
    order, with flat C-order indices."""
    flat = labels.ravel()
    begins = np.ones(flat.size, dtype=bool)
    begins[1:] = flat[1:] != flat[:-1]
    begins[::labels.shape[-1]] = True
    inset = flat > 0
    return (np.flatnonzero(begins & inset), np.flatnonzero(np.append(begins[1:], True) & inset),
            flat[begins & inset])


@settings(max_examples=300, deadline=None)
@given(mask=label_masks())
def test_label_faces_equals_scipy_bitwise(mask):
    first, last, number = asymptotics._label_faces(mask)
    rows = mask.shape[-1]
    # runs in C order, each within one row, none continuing the one before it
    assert np.all(first <= last) and np.all(first // rows == last // rows)
    assert np.all((first[1:] > last[:-1] + 1) | (first[1:] % rows == 0))
    labels = run_labels((first, last, number), mask.shape)
    ref, ref_count = scipy_label(mask)
    assert labels.tobytes() == ref.tobytes()
    assert number.max(initial=0) == ref_count


def runs_full_lattice(grid, level, box):
    """Reference: the runs of the face-adjacency labelling of {h < -level} and the
    excised nodes over the whole lattice (None when the set is empty)."""
    labels, count = scipy_label((grid.values < -level) | np.isneginf(grid.values))
    return label_runs(labels) if count else None, tuple(slice(0, d) for d in grid.dims)


def all_pairs_diameter(pts):
    """Reference: the largest entry of the (V, V, n) table of pair differences,
    contracted by one einsum (built in row blocks to bound its memory)."""
    best = 0.0
    for a in range(0, len(pts), 256):
        diff = pts[a:a + 256, None, :] - pts[None, :, :]
        best = max(best, np.max(np.einsum("ijk,ijk->ij", diff, diff)))
    return float(np.sqrt(best))


def components_per_label(grid, runs):
    """Reference: a scan of the runs' label array per label, coordinates from the full
    node mesh and the all-pairs diameter of every node of the component."""
    if runs is None:
        return []
    labels = run_labels(runs, grid.dims)
    coords = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    comps = []
    for lab in range(1, labels.max() + 1):
        idx = np.argwhere(labels == lab)
        pts = coords[tuple(idx.T)]
        comps.append(Component(idx[0], len(idx), all_pairs_diameter(pts)))
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
        assert a.first.tolist() == b.first.tolist()
        assert type(a.size) is int and a.size == b.size
        assert a.diameter == b.diameter


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       level=st.floats(-1.5, 4.0), excised=st.floats(0.0, 0.3), planted=st.booleans())
def test_sublevel_components_match_per_label_walk(seed, n, level, excised, planted):
    # planted lattices give separate components, sets on the faces and, at levels
    # of 3 or more, empty sets; masked ones give excised nodes in every set
    grid = planted_lattice(seed, n) if planted else masked_lattice(seed, n, excised)
    ref = components_per_label(grid, runs_full_lattice(grid, level, None)[0])
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
        mp.setattr(asymptotics, "_label_sublevel", runs_full_lattice)
        mp.setattr(asymptotics, "_components", components_per_label)
        ref = recession_report(cone(), levels, None, None, grid.spacing)
    assert repr(new) == repr(ref)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_recession_report_of_cones_matches_per_label_walk(s):
    # 17^3 nodes on [-0.5,0.5]^3: at slope 0.5 the level-1 set touches every lattice
    # face and holds rows that are one run end to end; the component around the apex
    # shrinks over the four levels, at slope 1 down to the apex node's single run
    args = (cone(s), [1, 2, 3, 4], *WINDOW, 1.0 / 16)
    new = recession_report(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "_label_sublevel", runs_full_lattice)
        mp.setattr(asymptotics, "_components", components_per_label)
        ref = recession_report(*args)
    assert repr(new) == repr(ref)
    assert new.counts == (1, 1, 1, 1)
    assert all(b < a for a, b in zip(new.max_diameters[:3], new.max_diameters[1:3]))
    if s == 0.5:
        level1 = sample_height_grid(cone(s), *WINDOW, 1.0 / 16).values < -1
        assert all(np.take(level1, i, axis=d).any() for d in range(3) for i in (0, -1))
        assert level1.all(axis=-1).any()


@st.composite
def point_sets(draw):
    """Lattice subsets of up to 1500 nodes (random subsets, single points, repeated
    rows, down to one node repeated, one lattice row, one lattice plane), and random
    points on a line or a plane and in general position, in n = 2..4."""
    n = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["subset", "one", "duplicates", "row", "plane",
                                  "line", "flat", "scatter", "large"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    origin, spacing = rng.uniform(-2, 2, size=n), rng.uniform(0.01, 0.5)
    dims = rng.integers(2, 16 if shape == "large" else 9, size=n)
    if shape == "large":
        dims[:2] = 40  # 1600 nodes or more, so 600 to 1500 points fit
    nodes = np.argwhere(np.ones(dims, dtype=bool))
    if shape in ("row", "plane"):
        fixed = rng.choice(n, size=n - (1 if shape == "row" else 2), replace=False)
        nodes = nodes[np.all(nodes[:, fixed] == nodes[0, fixed], axis=1)]
    size = {"one": 1, "duplicates": int(rng.integers(1, 200)),
            "large": int(rng.integers(600, 1500))}.get(shape, int(rng.integers(2, 200)))
    idx = nodes[rng.choice(len(nodes), size=min(size, len(nodes)), replace=False)]
    # coordinates as GridFunction.axes() gives them
    pts = np.stack([origin[d] + spacing * idx[:, d] for d in range(n)], axis=-1)
    if shape == "duplicates":
        pts = np.concatenate([pts, pts[rng.integers(0, len(pts), size=len(pts))]])
    elif shape in ("line", "flat"):
        span = rng.normal(size=(1 if shape == "line" else 2, n))
        pts = origin + rng.normal(size=(size, len(span))) @ span
    elif shape == "scatter":
        pts = origin + rng.normal(size=(size, n)) * 10.0 ** rng.uniform(-3, 3)
    return pts[rng.permutation(len(pts))]


@settings(max_examples=300, deadline=None)
@given(pts=point_sets())
def test_set_diameter_equals_all_pairs_bitwise(pts):
    assert asymptotics._set_diameter(pts) == all_pairs_diameter(pts)


def lattice_shell(seed):
    """The lattice nodes less than one spacing inside a sphere, n = 2..4: many pairs
    tie at the diameter in exact arithmetic, and rounding sets them apart."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    radius = rng.uniform(2, {2: 30, 3: 8, 4: 4}[n])
    k = math.ceil(radius) + 1
    idx = np.argwhere(np.ones((2 * k + 1,) * n, dtype=bool))
    r = np.sqrt(np.sum((idx - k) ** 2, axis=1))
    idx = idx[(r <= radius) & (r > radius - 1)]
    origin, spacing = rng.uniform(-3, 3, size=n), rng.uniform(0.001, 0.5)
    return origin + spacing * idx


def test_set_diameter_on_lattice_shells():
    # some of these shells have a pair whose Gram estimate rounds below the double
    # sweep's pair although the pair formula puts it above, so the screen needs its
    # margin
    for seed in range(300):
        pts = lattice_shell(seed)
        assert asymptotics._set_diameter(pts) == all_pairs_diameter(pts), seed
