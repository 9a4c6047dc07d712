import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import acceptance, heightfield
from hypcurv.errors import DataError, DomainError, ParameterError
from hypcurv.gridfn import (GridFunction, box_face_mask, load_grid_function,
                            save_grid_function)
from hypcurv.heightfield import (BallMask, Box, HeightField, Jet2, SampledGridField,
                                 fd_validate_jet,
                                 field_from_descriptor, field_to_descriptor,
                                 make_catalog_surface, sample_height_grid)


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
                f = field.value(x)
                assert math.sinh(d) == pytest.approx(np.linalg.norm(x) / f, rel=1e-12)

    def test_cone_masks_origin(self):
        field = cone()
        with pytest.raises(DomainError):
            field.jet([1e-4, 0.0, 0.0])
        assert field.height([1e-4, 0.0, 0.0]) == -math.inf

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
        assert [field.contains(x) for x in X] == inside

    def test_sphere_cap_values(self):
        field = cap()
        x = np.array([0.3, 0.0, 0.0])
        assert field.value(x) == pytest.approx(2.0 - math.sqrt(1.0 - 0.09), rel=1e-15)

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
            for x in field.sample_points(20, rng, margin=0.01):
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


class TestSampledGrid:
    def test_roundtrip_vs_closed_form(self):
        field = cap()
        box = Box(-0.16 * np.ones(3), 0.16 * np.ones(3))
        sampled = SampledGridField.from_field(field, box, nodes_per_axis=33, order=4)
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

    def test_masked_window_rejected(self):
        field = cone()
        box = Box(-0.2 * np.ones(3), 0.2 * np.ones(3))
        sampled = SampledGridField.from_field(field, box, nodes_per_axis=17, order=4)
        with pytest.raises(DomainError):
            sampled.jet([0.01, 0.0, 0.0])  # window touches the excised apex
        with pytest.raises(DomainError):
            sampled.value_array(np.array([[0.15, 0.15, 0.15], [0.01, 0.0, 0.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_value_array_matches_per_node_value(self, n):
        box = Box(np.full(n, 0.5), np.full(n, 1.3))
        sampled = SampledGridField.from_field(cone(1.3, n), box, nodes_per_axis=9)
        rng = np.random.default_rng(n)
        # points across the box, its faces and slightly past them (clamped windows)
        X = rng.uniform(0.45, 1.35, size=(200, n))
        got = sampled.value_array(X.reshape(10, 20, n))
        want = np.array([sampled._value(x) for x in X]).reshape(10, 20)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
    # value_array also extrapolates a little past the faces with clamped windows
    X = rng.uniform(lo - spacing, hi + spacing, size=(40, n))
    assert close(sampled.value_array(X),
                 np.array([_poly_partials(coeffs, x, (0,) * n) for x in X]))


class TestLatticeContract:
    def test_non_commensurate_window_rejected(self):
        with pytest.raises(ParameterError):
            sample_height_grid(cone(), [1.0, 1.4, 1.4], [2.0, 2.0, 2.0], 1.0 / 16)
        with pytest.raises(ParameterError):
            SampledGridField.from_field(cone(), Box([0.5, 0.5, 0.5], [1.0, 1.1, 1.0]), 9)
        with pytest.raises(ParameterError):
            acceptance._annulus_box_heights(lambda m: m[0], (0.0, 0.0, 0.0),
                                            (1.0, 1.0, 1.05), 0.1)

    def test_non_cubic_window_ends_on_hi(self):
        lo, hi = np.array([1.0, 1.25, -0.5]), np.array([2.0, 2.0, 0.1])
        grid = sample_height_grid(cone(), lo, hi, 0.05)
        assert grid.dims == (21, 16, 13)
        assert np.allclose(grid.origin + grid.spacing * (np.asarray(grid.dims) - 1), hi)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_heights_match_height_array_bitwise(self, n):
        # the lattice builder tests mask balls on their index boxes only; the point-set
        # route tests every node, and the two must agree to the bit
        field = make_catalog_surface("equidistant_cone", {"slope": 1.3, "mask_radius": 0.3}, n)
        lo, hi = np.full(n, -0.5), np.array([0.5] + [0.4] * (n - 1))
        grid = sample_height_grid(field, lo, hi, 0.1)
        mesh = heightfield._mesh_points(lo, grid.dims, 0.1)
        assert grid.values.tobytes() == field.height_array(mesh).tobytes()
        assert np.array_equal(grid.boundary_mask,
                              box_face_mask(grid.dims) | np.isneginf(grid.values))
        assert np.isneginf(grid.values).sum() > 1


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
    X = heightfield._mesh_points(lo, dims, spacing)
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
    assert np.array_equal(heightfield._lattice_masked(field, X, lo, spacing),
                          heightfield._masked_points(field, X))


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
        if not field.contains(x):
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
    ref = sample_one_at_a_time(field, count, slow, r_min=r_min, r_max=r_max, margin=margin)
    assert X.tobytes() == ref.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


class TestSampleArguments:
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
        box = Box(-0.2 * np.ones(3), 0.2 * np.ones(3))
        sampled = SampledGridField.from_field(field, box, nodes_per_axis=17)
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
