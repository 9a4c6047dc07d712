import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import gridfn, heightfield
from hypcurv.errors import DataError, DomainError, ParameterError
from hypcurv.gridfn import (GridFunction, box_face_mask, load_grid_function,
                            save_grid_function)
from hypcurv.heightfield import (BallMask, Box, HeightField, Jet2, SampledGridField,
                                 fd_validate_jet,
                                 field_from_descriptor, field_to_descriptor,
                                 make_catalog_surface, sample_height_grid)


EPS = np.finfo(float).eps


def cone(s=1.0, n=3):
    return make_catalog_surface("equidistant_cone", {"slope": s}, n)


def cap(a=2.0, b=1.0, which="lower", n=3):
    return make_catalog_surface(
        "geodesic_sphere_cap",
        {"center_height": a, "euclidean_radius": b, "cap": which}, n)


class TestCatalogConstruction:
    def test_horosphere_constant_graph(self):
        hs = make_catalog_surface("horosphere", {"c": 1.0}, 3)
        for x in ([0.0, 0.0, 0.0], [1.5, -0.3, 0.2]):
            jet = hs.jet(x)
            assert jet.f == 1.0
            assert np.all(jet.grad == 0.0)
            assert np.all(jet.hess == 0.0)

    def test_cone_is_distance_tube(self):
        # oracle: on the graph f = s|x|, sinh(dist to axis) = |x'| / x_{n+1} = 1/s
        for s in (0.5, 1.0, 2.0):
            field = cone(s)
            d = field.tube_distance()
            rng = np.random.default_rng(1)
            for x in field.sample_points(10, rng, r_min=0.3, r_max=1.8):
                f = field.jet(x).f
                assert math.sinh(d) == pytest.approx(np.linalg.norm(x) / f, rel=1e-12)

    def test_cone_masks_origin(self):
        field = cone()
        with pytest.raises(DomainError):
            field.jet([1e-4, 0.0, 0.0])
        # the lattice node at (1e-4, 0, 0) is the one node in the apex ball
        lo = np.array([1e-4 - 0.5, -0.5, -0.5])
        grid = sample_height_grid(field, lo, lo + 1.0, 0.25)
        assert grid.values[2, 2, 2] == -math.inf and grid.boundary_mask[2, 2, 2]
        assert np.isneginf(grid.values).sum() == 1

    @pytest.mark.parametrize("field", [cone(), cap(), make_catalog_surface(
        "equidistant_cone", {"slope": 1.0, "mask_radius": 0.3}, 3)])
    def test_contains_array_is_box_minus_mask_balls(self, field):
        rng = np.random.default_rng(4)
        X = rng.uniform(field.domain.lo - 0.3, field.domain.hi + 0.3, size=(400, 3))
        X[:40] = rng.uniform(-0.4, 0.4, size=(40, 3))  # in and around the apex ball
        X[40], X[41] = field.domain.lo, field.domain.hi
        inside = [bool(np.all(x >= field.domain.lo) and np.all(x <= field.domain.hi))
                  and all(np.linalg.norm(x - m.center) >= m.radius for m in field.masks)
                  for x in X]
        assert field.contains_array(X.reshape(20, 20, 3)).ravel().tolist() == inside
        assert [bool(field.contains_array(x)) for x in X] == inside

    def test_sphere_cap_values(self):
        field = cap()
        x = np.array([0.3, 0.0, 0.0])
        assert field.jet(x).f == pytest.approx(2.0 - math.sqrt(1.0 - 0.09), rel=1e-15)

    def test_sphere_cap_hyperbolic_radius(self):
        # oracle: vertical-geodesic distance between the poles is log((a+b)/(a-b)) = 2r
        field = cap(2.0, 1.0)
        assert 2.0 * field.hyperbolic_radius() == pytest.approx(math.log(3.0), rel=1e-15)

    @pytest.mark.parametrize("kind,params,n", [
        ("geodesic_sphere_cap", {"center_height": 1.0, "euclidean_radius": 1.0}, 3),
        ("geodesic_sphere_cap", {"center_height": 1.0, "euclidean_radius": 2.0}, 3),
        ("equidistant_cone", {"slope": 0.0}, 3),
        ("equidistant_cone", {"slope": -1.0}, 3),
        ("tilted_plane", {"slope": -2.0}, 3),
        ("horosphere", {"c": 0.0}, 3),
        ("horosphere", {"c": 1.0}, 1),
        ("nonsense", {}, 3),
        ("horosphere", {"c": 1.0, "slope": 2.0}, 3),
        ("equidistant_cone", {"mask_radius": 0.1}, 3),
    ])
    def test_invalid_parameters(self, kind, params, n):
        with pytest.raises(ParameterError):
            make_catalog_surface(kind, params, n)


class TestJets:
    def test_cone_jet_by_hand(self):
        # d|x| by hand: grad = x/r, hess = I/r - x x^T / r^3 (times slope)
        jet = cone().jet([1.0, 0.0, 0.0])
        assert jet.f == 1.0
        assert np.allclose(jet.grad, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(jet.hess, np.diag([0.0, 1.0, 1.0]), atol=1e-15)

    def test_cap_jet_taylor(self):
        # Taylor of 2 - sqrt(1 - |x|^2) at 0: value 1, no linear term, Hessian I
        jet = cap().jet([0.0, 0.0, 0.0])
        assert jet.f == 1.0
        assert np.allclose(jet.grad, 0.0, atol=1e-15)
        assert np.allclose(jet.hess, np.eye(3), atol=1e-15)

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        for field in (cone(1.3), cap(), make_catalog_surface("tilted_plane", {"slope": 0.7}, 3)):
            for x in field.sample_points(20, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet = field.jet(x)
                assert np.max(np.abs(jet.hess - jet.hess.T)) == 0.0

    def test_domain_errors(self):
        field = cap()
        with pytest.raises(DomainError):
            field.jet([5.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            field.jet([0.0, 0.0])

    def test_jet_invariants(self):
        with pytest.raises(ParameterError):
            Jet2(np.zeros(2), -1.0, np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            Jet2(np.zeros(2), 1.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFiniteDifferenceOracle:
    def test_horosphere_exact(self):
        res = fd_validate_jet(make_catalog_surface("horosphere", {"c": 1.0}, 3),
                              [0.0, 0.0, 0.0], step=1e-4)
        assert res.max == 0.0

    def test_cone_residual(self):
        res = fd_validate_jet(cone(), [1.0, 0.0, 0.0], step=1e-4)
        assert res.max < 1e-7

    def test_cap_residual(self):
        res = fd_validate_jet(cap(), [0.3, 0.0, 0.0], step=1e-4)
        assert res.max < 1e-6

    @pytest.mark.parametrize("field,point", [
        (cone(), [0.9, 0.3, -0.4]),
        (cap(), [0.2, -0.1, 0.15]),
    ])
    def test_residual_order_under_halving(self, field, point):
        # steps large enough that truncation dominates the h^-2 Hessian roundoff
        steps = [8e-3, 4e-3, 2e-3]
        resids = [fd_validate_jet(field, point, step=s).max for s in steps]
        for coarse, fine in zip(resids, resids[1:]):
            assert math.log2(coarse / fine) >= 1.9

    def test_stencil_domain_error(self):
        field = cone()
        with pytest.raises(DomainError):
            fd_validate_jet(field, [1.999, 0.0, 0.0], step=1e-2)

    def test_stencil_off_the_cap_chart(self):
        # a box past the chart |x| < b: the stencil's x + e_1 is off the graph
        field = heightfield.GeodesicSphereCap(2.0, 1.0, domain=Box(np.full(3, -1.5),
                                                                   np.full(3, 1.5)))
        with pytest.raises(DomainError, match="exits domain"):
            fd_validate_jet(field, [0.995, 0.0, 0.0], step=1e-2)


class TestSampledGrid:
    def test_roundtrip_vs_closed_form(self):
        field = cap()
        sampled = SampledGridField.from_field(field, -0.16 * np.ones(3), 0.16 * np.ones(3),
                                              0.01, order=4)
        assert sampled.grid.spacing == pytest.approx(0.01)
        axes = sampled.grid.axes()
        rng = np.random.default_rng(3)
        idx = rng.integers(2, 31, size=(30, 3))
        for i in idx:
            x = np.array([axes[d][i[d]] for d in range(3)])
            exact = field.jet(x)
            got = sampled.jet(x)
            assert got.f == pytest.approx(exact.f, rel=1e-12)
            assert np.max(np.abs(got.grad - exact.grad)) <= 1e-6 * max(
                1.0, np.max(np.abs(exact.grad)))
            assert np.max(np.abs(got.hess - exact.hess)) <= 1e-6 * max(
                1.0, np.max(np.abs(exact.hess)))

    def test_weight_table_shared_per_order_and_read_only(self):
        lo, hi = -0.2 * np.ones(3), 0.2 * np.ones(3)
        a = SampledGridField.from_field(cone(), lo, hi, 0.05)
        b = SampledGridField.from_field(cap(), lo, hi, 0.025)
        assert a._table is b._table
        assert SampledGridField.from_field(cap(), lo, hi, 0.05, order=2)._table is not a._table
        with pytest.raises(ValueError):
            a._table[0, 0, 0] = 1.0

    def test_masked_window_rejected(self):
        field = cone()
        sampled = SampledGridField.from_field(field, -0.2 * np.ones(3), 0.2 * np.ones(3),
                                              0.025, order=4)
        with pytest.raises(DomainError):
            sampled.jet([0.01, 0.0, 0.0])  # window touches the excised apex
        with pytest.raises(DomainError, match=r"window at \[0\.01 "):
            sampled.jet_array(np.array([[0.15, 0.15, 0.15], [0.01, 0.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_value_array_matches_per_node_value(self, n):
        # batched values, read from jet_array, against one point at a time
        sampled = SampledGridField.from_field(cone(1.3, n), np.full(n, 0.5), np.full(n, 1.3),
                                              0.1)
        rng = np.random.default_rng(n)
        # points across the box and on its corners (clamped windows)
        X = np.concatenate([rng.uniform(0.5, 1.3, size=(198, n)), [np.full(n, 0.5),
                                                                    np.full(n, 1.3)]])
        got = sampled.jet_array(X)[0]
        want = np.array([sampled.jet_array(x[None])[0][0] for x in X])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def window_touches_excised(sampled, x) -> bool:
    """Brute force at one point: does the interpolation window of x hold a -inf sample?

    The window holds order+1 samples per axis, the (order-1)//2-th before the sample at
    or below x first, moved inside the grid where it would cross a face.
    """
    grid, width = sampled.grid, sampled.order + 1
    window = []
    for d in range(grid.ndim):
        below = math.floor((x[d] - grid.origin[d]) / grid.spacing)
        start = min(max(below - (sampled.order - 1) // 2, 0), grid.dims[d] - width)
        window.append(slice(start, start + width))
    return bool(np.isneginf(grid.values[tuple(window)]).any())


def excised_by_brute_force(sampled, grid):
    """``window_touches_excised`` at every node of the lattice ``grid``."""
    X = heightfield._mesh(grid.axes()).reshape(-1, grid.ndim)
    return np.array([window_touches_excised(sampled, x) for x in X]).reshape(grid.dims)


class TestSampledLatticeExcision:
    def test_excised_windows_node_by_node(self):
        # a cone sampled with its apex sample excised: the lattice heights are -inf
        # exactly at the nodes whose window holds the apex, and log f elsewhere
        sampled = SampledGridField.from_field(cone(), [-0.5] * 3, [0.5] * 3, 0.05)
        assert np.isneginf(sampled.grid.values).sum() == 1
        grid = sample_height_grid(sampled, [-0.3] * 3, [0.3] * 3, 0.025)
        excised = excised_by_brute_force(sampled, grid)
        assert 0 < excised.sum() < excised.size
        assert np.array_equal(np.isneginf(grid.values), excised)
        assert np.array_equal(grid.boundary_mask, box_face_mask(grid.dims) | excised)
        X = heightfield._mesh(grid.axes())
        f = sampled.jet_array(X[~excised])[0]
        assert np.max(np.abs(grid.values[~excised] - np.log(f))) <= 1e-14
        # a jet there still raises
        with pytest.raises(DomainError, match="touches excised nodes"):
            sampled.jet_array(X[excised][:1])

    def test_interpolation_chunks(self):
        # _interpolate splits its points into chunks of VALUE_CHUNK; the split must not
        # show, neither in jets nor in the -inf nodes of a lattice
        chunk = heightfield.VALUE_CHUNK
        sampled = SampledGridField.from_field(cone(), [0.5] * 3, [1.5] * 3, 0.1)
        X = np.random.default_rng(9).uniform(0.5, 1.5, size=(2 * chunk + 5, 3))
        whole = sampled.jet_array(X)
        parts = [sampled.jet_array(X[i:i + chunk]) for i in range(0, len(X), chunk)]
        for got, want in zip(whole, zip(*parts)):
            assert got.tobytes() == np.concatenate(want).tobytes()
        # 2-D samples with one excised interior sample, at (1.2, 1.7); the 101^2-node
        # lattice's flat nodes 4095 and 4096, either side of the first chunk boundary,
        # both have it in their windows
        spacing = 0.1
        axes = [spacing * np.arange(31)] * 2
        values = 1.0 + heightfield._lattice_sq_norm(axes)
        values[12, 17] = -np.inf
        samples = GridFunction((31, 31), spacing, np.zeros(2), values,
                               box_face_mask((31, 31)) | np.isneginf(values))
        sampled = SampledGridField(samples)
        grid = sample_height_grid(sampled, [0.0, 0.0], [3.0, 3.0], 0.03)
        assert grid.dims == (101, 101) and grid.values.size > 2 * chunk
        excised = excised_by_brute_force(sampled, grid)
        assert excised.ravel()[chunk - 1] and excised.ravel()[chunk]
        assert np.array_equal(np.isneginf(grid.values), excised)
        assert np.array_equal(grid.boundary_mask, box_face_mask(grid.dims) | excised)


def _poly_partials(coeffs, x, orders):
    """d^orders p(x) of p(x) = sum_a coeffs[a] prod_d x_d^a_d, from the monomials."""
    out = coeffs
    for od, xd in zip(orders, x):
        powers = [math.perm(m, od) * xd ** (m - od) if m >= od else 0.0
                  for m in range(coeffs.shape[0])]
        out = np.tensordot(powers, out, axes=(0, 0))
    return float(out)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_interpolation_reproduces_per_axis_polynomials(n, order):
    # oracle: order-k tensor-product Lagrange interpolation is exact on polynomials of
    # degree <= k per axis, so jets and values must match the closed form anywhere,
    # including where windows are clamped at the faces
    rng = np.random.default_rng(10 * n + order)
    coeffs = rng.uniform(-1.0, 1.0, size=(order + 1,) * n)
    coeffs[(0,) * n] = np.sum(np.abs(coeffs)) + 1.0  # f > 0 on [-1, 1]^n
    dims = tuple(order + 2 + d for d in range(n))
    spacing = 0.1
    origin = np.linspace(-0.4, 0.2, n)
    axes = [origin[d] + spacing * np.arange(dims[d]) for d in range(n)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    values = np.array([_poly_partials(coeffs, x, (0,) * n)
                       for x in nodes.reshape(-1, n)]).reshape(dims)
    sampled = SampledGridField(GridFunction(dims, spacing, origin, values), order=order)
    lo, hi = sampled.domain.lo, sampled.domain.hi
    pts = np.concatenate([rng.uniform(lo, hi, size=(12, n)), [lo, hi, 0.5 * (lo + hi)]])
    unit = np.eye(n, dtype=int)
    # rounding of the samples, not of the derivative, sets the error scale
    data_scale = np.max(np.abs(values))

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), data_scale)

    for x in pts:
        jet = sampled.jet(x)
        assert close(jet.f, _poly_partials(coeffs, x, (0,) * n))
        assert close(jet.grad, np.array([_poly_partials(coeffs, x, e) for e in unit]))
        assert close(jet.hess, np.array([[_poly_partials(coeffs, x, d + e) for e in unit]
                                         for d in unit]))
    # and the values of one batched jet_array call
    X = rng.uniform(lo, hi, size=(40, n))
    assert close(sampled.jet_array(X)[0],
                 np.array([_poly_partials(coeffs, x, (0,) * n) for x in X]))


class TestLatticeContract:
    def test_non_commensurate_window_rejected(self):
        with pytest.raises(ParameterError):
            sample_height_grid(cone(), [1.0, 1.4, 1.4], [2.0, 2.0, 2.0], 1.0 / 16)
        with pytest.raises(ParameterError):
            SampledGridField.from_field(cone(), [0.5, 0.5, 0.5], [1.0, 1.1, 1.0], 0.0625)
        with pytest.raises(ParameterError):
            heightfield._lattice_dims((0.0, 0.0, 0.0), (1.0, 1.0, 1.05), 0.1)

    def test_window_outside_domain_rejected(self):
        # the cone's domain is [-2, 2]^3: both lattices refuse a window past x1 = 2
        lo, hi = [1.5, -0.5, -0.5], [2.5, 0.5, 0.5]
        with pytest.raises(DomainError, match="exits the field domain"):
            sample_height_grid(cone(), lo, hi, 0.25)
        with pytest.raises(DomainError, match="exits the field domain"):
            SampledGridField.from_field(cone(), lo, hi, 0.25)

    def test_non_cubic_window_ends_on_hi(self):
        lo, hi = np.array([1.0, 1.25, -0.5]), np.array([2.0, 2.0, 0.1])
        grid = sample_height_grid(cone(), lo, hi, 0.05)
        assert grid.dims == (21, 16, 13)
        assert np.allclose(grid.origin + grid.spacing * (np.asarray(grid.dims) - 1), hi)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_heights_match_height_array_bitwise(self, n):
        # the lattice builder tests mask balls on their index boxes only: -inf exactly
        # where the point-set mask test holds, and elsewhere h = log(s|x|) from the node
        # coordinates, within 4 eps * max(1, |h|) (|x|^2 rounds in another order)
        field = make_catalog_surface("equidistant_cone", {"slope": 1.3, "mask_radius": 0.3}, n)
        lo, hi = np.full(n, -0.5), np.array([0.5] + [0.4] * (n - 1))
        grid = sample_height_grid(field, lo, hi, 0.1)
        mesh = heightfield._mesh(heightfield._lattice_axes(lo, grid.dims, 0.1))
        masked = heightfield._masked_points(field, mesh)
        assert np.array_equal(np.isneginf(grid.values), masked) and masked.sum() > 1
        want = np.log(1.3 * np.sqrt(np.sum(mesh[~masked] ** 2, axis=-1)))
        got = grid.values[~masked]
        assert np.all(np.abs(got - want) <= 4 * EPS * np.maximum(1.0, np.abs(want)))
        assert np.array_equal(grid.boundary_mask, box_face_mask(grid.dims) | masked)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       places=st.lists(st.sampled_from(["node", "face", "outside", "anywhere"]),
                       min_size=1, max_size=3))
def test_lattice_mask_box_matches_full_mesh(seed, n, places):
    # each ball is tested on its index box only; every node must get the bit that the
    # full-mesh test gives it, also on the sphere and at a window face
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(3, 12 if n < 4 else 7, size=n))
    spacing = float(rng.uniform(0.05, 0.5))
    lo = rng.uniform(-1, 1, size=n)
    hi = lo + spacing * (np.asarray(dims) - 1)
    axes = heightfield._lattice_axes(lo, dims, spacing)
    X = heightfield._mesh(axes)
    balls = []
    for place in places:
        # under one spacing, a whole number of spacings (nodes on the sphere) or more
        radius = spacing * rng.choice([rng.uniform(0.05, 1.0), rng.integers(1, 4),
                                       rng.uniform(1.0, 4.0)])
        center = X[tuple(rng.integers(0, dims))].copy()
        axis = rng.integers(n)
        if place == "face":
            center[axis] = rng.choice([lo[axis], hi[axis]]) + rng.uniform(-radius, radius)
        elif place == "outside":
            center[axis] = hi[axis] + radius + rng.uniform(0, 1)
        elif place == "anywhere":
            center = rng.uniform(lo - radius, hi + radius)
        balls.append(BallMask(center, radius))
    field = HeightField(n, Box(lo - 10, hi + 10), masks=balls)
    masked = heightfield._masked_points(field, X)
    assert np.array_equal(heightfield._lattice_masked(field, axes, lo, spacing), masked)
    # both lattice builders on the same window, over a cap whose domain reaches past
    # its chart |x| < b, with the same balls: the masked and off-chart nodes are -inf
    # and flagged as boundary, and every other node holds f = a -/+ w, w = sqrt(b^2 -
    # |x|^2), and log f, from the node coordinates.  |x|^2 rounds in another order
    # here, so the values' bound is 4 eps f plus twice that rounding, n eps |x|^2,
    # carried through the square root (1 / (2 w)); the heights' is the values' over f
    # plus 2 eps |log f|
    b = rng.uniform(0.2, 4.0)
    a, which = b + rng.uniform(0.1, 2.0), rng.choice(["lower", "upper"])
    cap = heightfield.GeodesicSphereCap(a, b, which, n, field.domain)
    cap.masks = field.masks
    heights = sample_height_grid(cap, lo, hi, spacing)
    values = SampledGridField.from_field(cap, lo, hi, spacing, order=2).grid
    assert heights.dims == values.dims == tuple(map(int, dims))
    sq = np.sum(X * X, axis=-1)
    excised = masked | (sq >= b * b)
    for grid in (heights, values):
        assert np.array_equal(np.isneginf(grid.values), excised)
        assert np.array_equal(grid.boundary_mask, box_face_mask(grid.dims) | excised)
    sq = sq[~excised]
    w = np.sqrt(b * b - sq)
    f = a - w if which == "lower" else a + w
    tol = EPS * (4 * f + n * sq / w)
    assert np.all(np.abs(values.values[~excised] - f) <= tol)
    assert np.all(np.abs(heights.values[~excised] - np.log(f))
                  <= tol / f + 2 * EPS * np.abs(np.log(f)))
    # each kind's lattice values, without the mesh: the horosphere and the plane are
    # exact, the cone within 4 eps
    for kind, want, rtol in (
            (heightfield.Horosphere(rng.uniform(0.1, 3), n), lambda k: np.full(dims, k.c), 0),
            (heightfield.TiltedPlane(rng.uniform(0.1, 3), n), lambda k: k.slope * X[..., 0], 0),
            (heightfield.EquidistantCone(rng.uniform(0.1, 3), n),
             lambda k: k.slope * np.sqrt(np.sum(X * X, axis=-1)), 4 * EPS)):
        got = kind._lattice_values(axes)
        assert got.shape == tuple(map(int, dims)) and got.flags.writeable
        assert np.all(np.abs(got - want(kind)) <= rtol * np.abs(want(kind)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9))
def test_lattice_sq_norm_equals_mesh_einsum_bitwise(seed, n):
    # per-axis squares summed in axis order, on lattices with axes of length 1 and up,
    # either sign and spacings over four decades: the same squares as the einsum over
    # the mesh, summed in another order, so within (n - 1) eps |x|^2 of it
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(1, {1: 40, 2: 20, 3: 12, 4: 7, 5: 5}.get(n, 3) + 1, size=n))
    spacing = float(10.0 ** rng.uniform(-3, 1))
    lo = rng.uniform(-2, 2, size=n) * 10.0 ** rng.uniform(-2, 1)
    axes = heightfield._lattice_axes(lo, dims, spacing)
    X = heightfield._mesh(axes)
    got = heightfield._lattice_sq_norm(axes)
    assert got.shape == dims
    want = np.einsum("...i,...i->...", X, X)
    assert np.all(np.abs(got - want) <= (n - 1) * EPS * want)


def sample_one_at_a_time(field, count, rng, r_min=None, r_max=None, margin=0.0):
    """Reference: the rejection sampler that draws and tests one candidate per step."""
    out = np.empty((count, field.n))
    lo, hi = field.domain.lo + margin, field.domain.hi - margin
    got = 0
    while got < count:
        x = rng.uniform(lo, hi)
        r = float(np.linalg.norm(x))
        if r_min is not None and r < r_min:
            continue
        if r_max is not None and r > r_max:
            continue
        if not field.contains_array(x):
            continue
        out[got] = x
        got += 1
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), count=st.integers(1, 30),
       mask_radius=st.floats(1e-3, 0.5), margin=st.floats(0.0, 0.5),
       r_min=st.none() | st.floats(0.5, 1.5), width=st.none() | st.floats(0.02, 2.0))
def test_sample_points_matches_one_at_a_time(seed, n, count, mask_radius, margin, r_min,
                                             width):
    # the [-2, 2]^n cone with its apex ball; a band ends a width w past r_min (or 1),
    # so it lies beyond the ball, and at w = 0.02 keeps about 2% of the candidates
    field = make_catalog_surface("equidistant_cone",
                                 {"slope": 1.0, "mask_radius": mask_radius}, n)
    r_max = None if width is None else (r_min or 1.0) + width
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    X = field.sample_points(count, fast, r_min=r_min, r_max=r_max, margin=margin)
    # with neither end given, the cone samples its default band 0.5 <= |x| <= 2
    band = (0.5, 2.0) if r_min is None and r_max is None else (r_min, r_max)
    ref = sample_one_at_a_time(field, count, slow, *band, margin=margin)
    assert X.tobytes() == ref.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


class TestSampleArguments:
    @pytest.mark.parametrize("n", [2, 3])
    def test_cone_default_band(self, n):
        # the cone samples min|hi| / 4 <= |x| <= min|hi| unless told otherwise
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, n)
        X = field.sample_points(50, np.random.default_rng(n))
        ref = HeightField.sample_points(field, 50, np.random.default_rng(n), r_min=0.5,
                                        r_max=2.0)
        assert X.tobytes() == ref.tobytes()
        whole = field.sample_points(50, np.random.default_rng(n), r_min=0.0, r_max=np.inf)
        assert np.max(np.linalg.norm(whole, axis=1)) > 2.0
        # one end given: the other stays open, as for any field
        for r_min, r_max in ((2.1, None), (None, 0.3)):
            X = field.sample_points(20, np.random.default_rng(n), r_min=r_min, r_max=r_max)
            ref = HeightField.sample_points(field, 20, np.random.default_rng(n),
                                            r_min=r_min, r_max=r_max)
            assert X.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("margin", [2.0, 3.0])
    def test_margin_box_without_room(self, margin):
        # the horosphere's box is [-2, 2]^3: a margin of 2 leaves a point, 3 nothing
        with pytest.raises(ParameterError, match="margin"):
            make_catalog_surface("horosphere", {"c": 1.0}, 3).sample_points(
                3, np.random.default_rng(0), margin=margin)

    def test_inverted_radius_band(self):
        with pytest.raises(ParameterError, match="radius band"):
            cone().sample_points(400, np.random.default_rng(0), r_min=1.5, r_max=0.5)

    def test_band_missing_the_box_stops_at_the_attempt_cap(self):
        # no point of [-2, 2]^3 has |x| >= 4, so every candidate is rejected; the
        # sampler gives up after 100000 candidates per point, as many as it drew
        field, rng = cone(), np.random.default_rng(1)
        with pytest.raises(ParameterError, match="too small"):
            field.sample_points(3, rng, r_min=4.0, r_max=5.0)
        ref = np.random.default_rng(1)
        ref.uniform(field.domain.lo, field.domain.hi, size=(300000, 3))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestDescriptorsAndIO:
    def test_descriptor_roundtrip(self):
        field = cone(1.5)
        desc = field_to_descriptor(field)
        again = field_from_descriptor(desc)
        assert again.kind == field.kind
        assert again.slope == field.slope
        assert np.allclose(again.domain.lo, field.domain.lo)

    def test_descriptor_json_schema(self):
        desc = json.loads('{"kind": "equidistant_cone", "n": 3, "slope": 1.0, '
                          '"mask_radius": 1e-3}')
        field = field_from_descriptor(desc)
        assert field.masks[0].radius == 1e-3

    def test_descriptor_missing_fields(self):
        with pytest.raises(ParameterError):
            field_from_descriptor({"n": 3})
        with pytest.raises(ParameterError):
            field_from_descriptor({"kind": "horosphere"})

    def test_grid_io_roundtrip(self, tmp_path):
        vals = np.arange(27.0).reshape(3, 3, 3)
        vals[1, 1, 1] = 5.5
        gf = GridFunction((3, 3, 3), 0.5, np.array([0.0, 1.0, 2.0]), vals)
        save_grid_function(gf, tmp_path / "g.csv", tmp_path / "g.json")
        back = load_grid_function(tmp_path / "g.csv", tmp_path / "g.json")
        assert back.dims == gf.dims
        assert back.spacing == gf.spacing
        assert np.array_equal(back.values, gf.values)
        assert np.array_equal(back.boundary_mask, gf.boundary_mask)

    def test_sampled_grid_descriptor(self, tmp_path):
        field = cap()
        sampled = SampledGridField.from_field(field, -0.2 * np.ones(3), 0.2 * np.ones(3),
                                              0.025)
        save_grid_function(sampled.grid, tmp_path / "vals.csv", tmp_path / "hdr.json")
        desc = {"kind": "sampled_grid", "values_csv": "vals.csv",
                "header_json": "hdr.json", "order": 4}
        (tmp_path / "surface.json").write_text(json.dumps(desc))
        from hypcurv.heightfield import field_from_json
        loaded = field_from_json(str(tmp_path / "surface.json"))
        x = [0.05, -0.025, 0.0]
        assert loaded.jet(x).f == pytest.approx(field.jet(x).f, rel=1e-10)

    def test_grid_io_with_neg_inf(self, tmp_path):
        vals = np.zeros((3, 3, 3))
        vals[0, 0, 0] = -np.inf
        gf = GridFunction((3, 3, 3), 1.0, np.zeros(3), vals)
        save_grid_function(gf, tmp_path / "g.csv", tmp_path / "g.json")
        back = load_grid_function(tmp_path / "g.csv", tmp_path / "g.json")
        assert np.isneginf(back.values[0, 0, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(3, 5), min_size=1, max_size=3).flatmap(lambda dims: st.tuples(
        st.just(tuple(dims)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(-math.inf),
                 min_size=math.prod(dims), max_size=math.prod(dims)),
        st.lists(st.booleans(), min_size=math.prod(dims), max_size=math.prod(dims)))))
    def test_grid_io_round_trip_bitwise(self, grid):
        dims, values, fixed = grid
        values = np.array(values).reshape(dims)
        mask = box_face_mask(dims) | np.array(fixed).reshape(dims) | np.isneginf(values)
        gf = GridFunction(dims, 0.1, np.zeros(len(dims)), values, mask)
        with tempfile.TemporaryDirectory() as tmp:
            csv, header = f"{tmp}/g.csv", f"{tmp}/g.json"
            save_grid_function(gf, csv, header)
            back = load_grid_function(csv, header)
        assert back.dims == gf.dims
        assert back.values.tobytes() == gf.values.tobytes()
        assert np.array_equal(back.boundary_mask, gf.boundary_mask)

    @pytest.mark.parametrize("values", [
        # a few values repeated over the nodes, -0.0 beside 0.0
        np.array([0.0, -0.0, 0.1, 1e300, 5e-324])[
            np.random.default_rng(3).integers(0, 5, 17 ** 3)],
        np.random.default_rng(4).standard_normal(17 ** 3),  # every value distinct
    ])
    def test_grid_io_spells_each_value_by_repr(self, tmp_path, values):
        # 17^3 nodes span two write blocks
        assert gridfn.WRITE_BLOCK < values.size < 2 * gridfn.WRITE_BLOCK
        values = values.reshape(17, 17, 17).copy()
        values[0, 0, 0] = -np.inf
        gf = GridFunction((17, 17, 17), 0.5, np.zeros(3), values)
        save_grid_function(gf, tmp_path / "g.csv", tmp_path / "g.json")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[1:] == [f"{v!r},{int(b)}" for v, b in zip(
            values.ravel().tolist(), gf.boundary_mask.ravel().tolist())]
        back = load_grid_function(tmp_path / "g.csv", tmp_path / "g.json")
        assert back.values.tobytes() == values.tobytes()

    def test_grid_io_malformed_cell(self, tmp_path):
        gf = GridFunction((3, 3, 3), 1.0, np.zeros(3), np.zeros((3, 3, 3)))
        save_grid_function(gf, tmp_path / "g.csv", tmp_path / "g.json")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        lines[5] = "0.0x,1"
        (tmp_path / "g.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="malformed grid values"):
            load_grid_function(tmp_path / "g.csv", tmp_path / "g.json")
        # no boundary column at all
        (tmp_path / "g.csv").write_text("value\n" + "0.0\n" * 27)
        with pytest.raises(DataError, match="malformed grid values"):
            load_grid_function(tmp_path / "g.csv", tmp_path / "g.json")

    def test_grid_io_too_few_rows(self, tmp_path):
        gf = GridFunction((3, 3, 3), 1.0, np.zeros(3), np.zeros((3, 3, 3)))
        save_grid_function(gf, tmp_path / "g.csv", tmp_path / "g.json")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        (tmp_path / "g.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="malformed grid values"):
            load_grid_function(tmp_path / "g.csv", tmp_path / "g.json")


class TestGridFunctionInvariants:
    def test_too_small(self):
        with pytest.raises(ParameterError):
            GridFunction((2, 3, 3), 1.0, np.zeros(3), np.zeros((2, 3, 3)))

    def test_neg_inf_needs_mask(self):
        vals = np.zeros((3, 3, 3))
        vals[1, 1, 1] = -np.inf  # interior node
        with pytest.raises(DataError):
            GridFunction((3, 3, 3), 1.0, np.zeros(3), vals)

    def test_boundary_must_cover_faces(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        with pytest.raises(ParameterError):
            GridFunction((3, 3, 3), 1.0, np.zeros(3), np.zeros((3, 3, 3)), mask)

    @pytest.mark.parametrize("dims", [(3,), (3, 4), (3, 4, 5), (3, 4, 3, 3)])
    def test_every_face_node_must_be_masked(self, dims):
        faces = box_face_mask(dims)
        for node in map(tuple, np.argwhere(faces)):
            mask = faces.copy()
            mask[node] = False
            with pytest.raises(ParameterError, match="^boundary_mask must cover the "
                                                     "topological boundary$"):
                GridFunction(dims, 1.0, np.zeros(len(dims)), np.zeros(dims), mask)

    def test_unmasked_neg_inf_counted_before_nan(self):
        vals, mask = np.zeros((5, 5, 5)), box_face_mask((5, 5, 5))
        vals[1, 1, 1] = vals[2, 3, 1] = vals[3, 3, 3] = vals[0, 2, 2] = -np.inf
        mask[3, 3, 3] = True
        vals[0, 0, 1] = np.nan
        with pytest.raises(DataError, match=r"^-inf at 2 unmasked node\(s\)$"):
            GridFunction((5, 5, 5), 1.0, np.zeros(3), vals, mask)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nan_and_inf_rejected_at_boundary_nodes(self, value):
        vals, mask = np.zeros((4, 4, 4)), box_face_mask((4, 4, 4))
        vals[0, 2, 1] = value
        vals[1, 1, 2] = -np.inf  # masked, so allowed
        mask[1, 1, 2] = True
        with pytest.raises(DataError, match="^grid values must be finite or -inf$"):
            GridFunction((4, 4, 4), 1.0, np.zeros(3), vals, mask)
        vals[0, 2, 1] = 0.0
        GridFunction((4, 4, 4), 1.0, np.zeros(3), vals, mask)
