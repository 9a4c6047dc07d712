import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from numpy.lib.stride_tricks import sliding_window_view

from hypcurv.acceptance import _gradient_operator, solve_laplace_linear
from hypcurv.errors import DataError, ParameterError
from hypcurv.gridfn import GridFunction, box_face_mask
from hypcurv.heightfield import make_catalog_surface, sample_height_grid
from hypcurv import plaplace
from hypcurv.plaplace import (SolverConfig, _box_preconditioner, _cell_weights,
                              _complete_cells, _energy, _energy_gradient,
                              _free_node_inverse, _node_scale, _pair, _pair_adjoint,
                              solve_p_harmonic, tighten_boundary, viscosity_probe)


def p_dirichlet_energy(u: GridFunction, p: float, epsilon: float) -> float:
    """Regularized p-Dirichlet energy over the complete cells of u; DataError (via grid
    validation) if a -inf value sits at an unmasked node."""
    u.validate()
    active = u.active_mask()
    return _energy(np.where(active, u.values, 0.0), u.spacing, p, epsilon,
                   _cell_weights(active))[0]


@dataclass(frozen=True)
class ComparisonReport:
    """Domination check v >= u at tolerance."""

    min_difference: float
    violations: np.ndarray   # node indices where v - u < -tol
    ok: bool


def comparison_check(u: GridFunction, v: GridFunction, tol: float = 1e-8) -> ComparisonReport:
    """Check v >= u given boundary domination v|bd >= u|bd.

    The boundary-domination precondition mirrors the continuum hypothesis; violating
    it is harness misuse and raises ValueError.
    """
    if u.dims != v.dims or u.spacing != v.spacing or not np.allclose(u.origin, v.origin):
        raise ValueError("comparison requires identical grids")
    both = u.active_mask() & v.active_mask()
    bd = u.boundary_mask & both
    if np.any(v.values[bd] < u.values[bd] - 1e-12):
        worst = float(np.min((v.values - u.values)[bd]))
        raise ValueError(f"boundary of v does not dominate u (min gap {worst:.3e})")
    diff = np.where(both, v.values - u.values, np.inf)
    min_diff = float(np.min(diff))
    viol = np.argwhere(diff < -tol)
    return ComparisonReport(min_diff, viol, viol.size == 0)


def annulus_grid(fn, r_inner: float, r_outer: float, spacing: float, n: int = 3) -> GridFunction:
    """Sample fn(|x|-coords) on the lattice covering the spherical annulus.

    Nodes within half a spacing of the annulus keep values (so complete cells cover
    the region without a systematic staircase deficit); everything else is excised.
    """
    half = r_outer + spacing
    count = int(math.ceil(2 * half / spacing)) + 1
    axes = [-half + spacing * np.arange(count) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r = np.sqrt(sum(m * m for m in mesh))
    active = (r >= r_inner - spacing / 2) & (r <= r_outer + spacing / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(active, fn(mesh), -np.inf)
    mask = box_face_mask(vals.shape) | ~active
    gf = GridFunction(vals.shape, spacing, np.array([a[0] for a in axes]), vals, mask)
    return tighten_boundary(gf)


def unit_grid(nodes=9):
    h = 1.0 / (nodes - 1)
    axes = [h * np.arange(nodes)] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    return mesh, h


def grid_from(values, h):
    return GridFunction(values.shape, h, np.zeros(values.ndim), values)


def verify_p2_grid():
    """The 9^3 unit box of the verify suite's p = 2 check: smooth boundary data, a
    zero interior."""
    mesh, h = unit_grid()
    vals = 0.02 * (np.sin(3 * mesh[0]) + mesh[1] ** 2 - 0.5 * mesh[2])
    vals[1:-1, 1:-1, 1:-1] = 0.0
    return grid_from(vals, h)


def box_heights(fn, lo, hi, spacing):
    dims = tuple(int(round((b - a) / spacing)) + 1 for a, b in zip(lo, hi))
    axes = [a + spacing * np.arange(d) for a, d in zip(lo, dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return GridFunction(dims, spacing, np.asarray(lo, float), fn(mesh))


def constant_boundary_grid():
    """2 on the faces of the 9^3 unit lattice and 0 inside: the minimum energy is eps^p."""
    mesh, h = unit_grid()
    vals = np.full(mesh[0].shape, 2.0)
    vals[1:-1, 1:-1, 1:-1] = 0.0
    return grid_from(vals, h)


def cold_log_norm(nodes, shift=0.0):
    """log|x| + shift on [0.5,1.5]x[-0.5,0.5]^2 and the constant start solved from it."""
    exact = box_heights(
        lambda m: 0.5 * np.log(m[0] ** 2 + m[1] ** 2 + m[2] ** 2) + shift,
        (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), 1.0 / (nodes - 1))
    start = exact.copy()
    start.values[start.interior_mask()] = float(np.mean(start.values[start.boundary_mask]))
    return exact, start


class TestConfig:
    def test_p_below_two_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(p=1.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, p):
        # a NaN fails every comparison, so a bare ``p < 2`` check lets it through
        with pytest.raises(ParameterError, match="finite p >= 2"):
            SolverConfig(p=p)

    def test_epsilon_positive(self):
        with pytest.raises(ParameterError):
            SolverConfig(p=3.0, epsilon=0.0)


class TestEnergy:
    def test_constant_zero(self):
        mesh, h = unit_grid()
        gf = grid_from(np.full(mesh[0].shape, 3.7), h)
        assert p_dirichlet_energy(gf, 3.0, 0.0) == 0.0

    def test_unit_slope_gives_volume(self):
        mesh, h = unit_grid()
        gf = grid_from(mesh[0].copy(), h)
        assert p_dirichlet_energy(gf, 3.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_annulus_matches_analytic_integral(self):
        # oracle: integral of |x|^-3 over 0.5 <= |x| <= 2 is 4 pi log 4
        gf = annulus_grid(lambda m: 0.5 * np.log(m[0] ** 2 + m[1] ** 2 + m[2] ** 2),
                          0.5, 2.0, 1.0 / 32)
        energy = p_dirichlet_energy(gf, 3.0, 0.0)
        exact = 4.0 * math.pi * math.log(4.0)
        assert abs(energy - exact) / exact <= 0.02

    @pytest.mark.parametrize("shape", [(9,), (5, 3), (3, 7, 5), (4, 3, 5, 6)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_pair_adjoint_is_transpose(self, shape, sign):
        # <P x, y> = <x, P^T y> for the stride of every axis; P drops ``stride`` entries
        rng = np.random.default_rng(len(shape))
        size = math.prod(shape)
        for a in range(len(shape)):
            stride = math.prod(shape[a + 1:])
            x, y = rng.normal(size=size), rng.normal(size=size - stride)
            assert _pair(x, stride, sign).shape == y.shape
            assert _pair_adjoint(y, stride, sign).shape == x.shape
            assert np.vdot(_pair(x, stride, sign), y) == pytest.approx(
                np.vdot(x, _pair_adjoint(y, stride, sign)), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    @pytest.mark.parametrize("dims,excise", [((6, 5), False), ((5, 6, 7), False),
                                             ((4, 5, 3, 6), False), ((6, 7, 5), True),
                                             ((9,), False), ((3, 7, 5), False)])
    def test_kernel_matches_sparse_operator(self, dims, excise, p):
        # oracle: E = h^n sum_cells mask (|Au|^2 + eps^2)^(p/2) and
        # grad E = p h^n A^T (mask w^(p/2-1) Au), A assembled by _gradient_operator
        h, eps, n = 0.17, 0.3, len(dims)
        rng = np.random.default_rng(len(dims) + 10 * excise)
        active = np.ones(dims, dtype=bool)
        if excise:
            active[:2, :2, :2] = active[-1, -1, -1] = active[0, -1, 0] = False
        u = np.where(active, rng.normal(size=dims), 0.0)
        mask = _complete_cells(active)
        assert mask.any() and (mask.all() != excise)
        A = _gradient_operator(dims, h, mask)
        du = (A @ u.ravel()).reshape(n, -1)
        w = np.sum(du * du, axis=0) + eps * eps
        cells = mask.ravel()
        want_e = h ** n * np.sum(np.where(cells, w ** (p / 2), 0.0))
        want_g = (p * h ** n * (A.T @ (np.where(cells, w ** (p / 2 - 1), 0.0) * du).ravel())
                  ).reshape(dims)
        weights = _cell_weights(active)
        energy, state = _energy(u, h, p, eps, weights)
        grad = _energy_gradient(state, h, p)
        assert abs(energy - want_e) <= 1e-12 * want_e
        assert np.max(np.abs(grad - want_g)) <= 1e-12 * np.max(np.abs(want_g))
        # central difference of the energy along a random direction
        v, delta = np.where(active, rng.normal(size=dims), 0.0), 1e-5
        slope = (_energy(u + delta * v, h, p, eps, weights)[0]
                 - _energy(u - delta * v, h, p, eps, weights)[0]) / (2 * delta)
        assert abs(slope - np.sum(grad * v)) <= 1e-9 * np.sum(np.abs(grad * v))

    def test_neg_inf_unmasked_rejected(self):
        mesh, h = unit_grid(5)
        vals = np.zeros(mesh[0].shape)
        gf = grid_from(vals, h)
        gf.values[2, 2, 2] = -np.inf  # bypass construction check, hit validate()
        with pytest.raises(DataError):
            p_dirichlet_energy(gf, 3.0, 0.0)


class TestSolver:
    def test_constant_boundary(self):
        res = solve_p_harmonic(constant_boundary_grid(), SolverConfig(p=3.0))
        assert res.converged
        assert np.max(np.abs(res.grid.values - 2.0)) <= 1e-10
        # the minimum energy is about 0, so tolerance |E| falls below every step's
        # rounding; the descent stops once a step passes the Armijo test with the
        # energy unchanged
        res = solve_p_harmonic(constant_boundary_grid(), SolverConfig(p=3.0, tolerance=1e-15))
        assert res.stop_reason == "stalled" and res.iterations < 100
        assert np.max(np.abs(res.grid.values - 2.0)) <= 1e-10

    def test_affine_boundary(self):
        mesh, h = unit_grid()
        aff = 0.4 * mesh[0] - 0.3 * mesh[1] + 0.2 * mesh[2] + 1.0
        cfg_kwargs = dict(tolerance=1e-16, max_iterations=100000)
        for p in (2.0, 3.0, 4.0):
            vals = aff.copy()
            vals[1:-1, 1:-1, 1:-1] = 0.0
            res = solve_p_harmonic(grid_from(vals, h), SolverConfig(p=p, **cfg_kwargs))
            assert np.max(np.abs(res.grid.values - aff)) <= 1e-6

    def test_energy_trace_monotone(self):
        mesh, h = unit_grid()
        vals = np.sin(4 * mesh[0]) + mesh[1] ** 2
        vals[1:-1, 1:-1, 1:-1] = 0.0
        res = solve_p_harmonic(grid_from(vals, h), SolverConfig(p=3.0))
        assert np.all(np.diff(res.energy_trace) <= 0.0)

    def test_fundamental_solution_convergence(self):
        # log|x| is the exact continuum solution; discrete error drops at order ~2,
        # and the preconditioned descent needs about as many iterations on either grid
        errs = []
        for nodes in (17, 33):
            exact, start = cold_log_norm(nodes)
            res = solve_p_harmonic(start, SolverConfig(p=3.0))
            errs.append(float(np.max(np.abs(res.grid.values - exact.values))))
            assert res.converged and res.iterations <= 60, nodes
        assert errs[1] <= 1e-3
        assert errs[0] / errs[1] >= 2.0
        # the 33^3 solve stops once a trial step predicts a decrease within rounding of
        # the energy, before any accepted step whose Armijo test compares noise
        assert res.stop_reason == "stalled" and res.iterations <= 18

    def test_two_initializations_agree(self):
        mesh, h = unit_grid()
        bnd = np.sin(3 * mesh[0]) + mesh[1] ** 2 - 0.5 * mesh[2]
        rng = np.random.default_rng(24)
        cfg = SolverConfig(p=3.0, tolerance=1e-16, max_iterations=100000)
        sols = []
        for _ in range(2):
            vals = bnd.copy()
            vals[1:-1, 1:-1, 1:-1] = rng.normal(size=(7, 7, 7))
            sols.append(solve_p_harmonic(grid_from(vals, h), cfg).grid.values)
        assert np.max(np.abs(sols[0] - sols[1])) <= 1e-6

    def test_p2_matches_direct_solve(self):
        gf = verify_p2_grid()
        direct = solve_laplace_linear(gf)
        res = solve_p_harmonic(gf, SolverConfig(p=2.0))
        assert np.max(np.abs(direct.values - res.grid.values)) <= 1e-8
        # every cell is complete and no node is held inside the box, so the p = 2
        # predictor is the exact minimizer and the descent takes no step
        assert (res.held_nodes, res.start, res.iterations) == (0, "harmonic", 0)

    def test_non_convergence_flagged(self):
        mesh, h = unit_grid()
        vals = np.sin(4 * mesh[0]) + mesh[1] ** 2
        vals[1:-1, 1:-1, 1:-1] = 0.0
        res = solve_p_harmonic(grid_from(vals, h),
                               SolverConfig(p=3.0, max_iterations=3))
        assert not res.converged
        assert res.iterations == 3
        assert res.stop_reason == "max_iterations"

    def test_stop_reasons(self):
        mesh, h = unit_grid()
        flat = solve_p_harmonic(grid_from(np.full(mesh[0].shape, 1.5), h),
                                SolverConfig(p=3.0))
        assert (flat.converged, flat.stop_reason, flat.grad_norm) == (True, "zero_gradient", 0.0)
        vals = np.sin(4 * mesh[0]) + mesh[1] ** 2
        vals[1:-1, 1:-1, 1:-1] = 0.0
        res = solve_p_harmonic(grid_from(vals, h), SolverConfig(p=3.0))
        assert (res.converged, res.stop_reason) == (True, "stalled")
        assert res.grad_norm <= 1e-6
        # at p = 3 an Armijo fraction of 0.9 with a single trial step rejects the first
        # step from the p = 2 predictor
        res = solve_p_harmonic(grid_from(vals, h),
                               SolverConfig(p=3.0, armijo=0.9, max_backtracks=1))
        assert (res.converged, res.stop_reason) == (True, "line_search_exhausted")
        assert res.step_trace.size == 0
        assert res.backtracks == 1
        # at p = 2 the predictor is the exact minimizer: the first trial step predicts
        # a decrease within rounding, and no step is taken
        res = solve_p_harmonic(grid_from(vals, h),
                               SolverConfig(p=2.0, armijo=0.9, max_backtracks=1))
        assert (res.converged, res.stop_reason, res.start) == (True, "stalled", "harmonic")
        assert res.step_trace.size == 0 and res.backtracks == 0
        assert res.grad_norm <= 1e-10

    def test_zero_gradient_where_the_coefficient_underflows(self):
        # at p = 60 a flat start's coefficient eps^(p-2) underflows to 0 on every cell;
        # the direction's scale falls back to 1 and the solve stops at once
        mesh, h = unit_grid()
        res = solve_p_harmonic(grid_from(np.full(mesh[0].shape, 1.5), h),
                               SolverConfig(p=60.0))
        assert (res.stop_reason, res.iterations, res.grad_norm) == ("zero_gradient", 0, 0.0)
        assert res.start == "given"

    def test_iterations_count_accepted_steps(self):
        # every stop reason reports the accepted steps, len(step_trace), and the
        # energy trace holds one more entry, the start
        mesh, h = unit_grid()
        vals = np.sin(4 * mesh[0]) + mesh[1] ** 2
        vals[1:-1, 1:-1, 1:-1] = 0.0
        wavy, flat = grid_from(vals, h), grid_from(np.full(mesh[0].shape, 1.5), h)
        cases = [
            (wavy, SolverConfig(p=3.0), "stalled"),
            (constant_boundary_grid(), SolverConfig(p=3.0, tolerance=1e-15), "stalled"),
            (flat, SolverConfig(p=3.0), "zero_gradient"),
            (wavy, SolverConfig(p=3.0, armijo=0.9, max_backtracks=1), "line_search_exhausted"),
            (wavy, SolverConfig(p=2.0, armijo=0.9, max_backtracks=1), "stalled"),
            (wavy, SolverConfig(p=3.0, max_iterations=3), "max_iterations"),
        ]
        for grid, config, stop_reason in cases:
            res = solve_p_harmonic(grid, config)
            assert res.stop_reason == stop_reason
            assert res.iterations == len(res.step_trace) == len(res.energy_trace) - 1

    @pytest.mark.parametrize("dims", [(5, 7, 6), (6, 9), (5, 6, 7, 4), (9,), (3, 7, 5)])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_box_preconditioner_matches_sparse_solve(self, dims, p):
        # oracle: the same operator assembled from _gradient_operator and solved directly
        h = 0.13
        A = _gradient_operator(dims, h, np.ones([d - 1 for d in dims], dtype=bool))
        inner = np.zeros(dims, dtype=bool)
        inner[tuple(slice(1, -1) for _ in dims)] = True
        AI = A[:, inner.ravel()]
        K = p * h ** len(dims) * (AI.T @ AI)
        g = np.random.default_rng(len(dims)).normal(size=[d - 2 for d in dims])
        want = np.linalg.solve(K, g.ravel()).reshape(g.shape)
        got = _box_preconditioner(dims, h, p)[0](g)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_shift_invariance(self):
        # log|x| and log|x| + 1 have the same minimizer up to the constant
        runs = [solve_p_harmonic(cold_log_norm(33, shift)[1], SolverConfig(p=3.0))
                for shift in (0.0, 1.0)]
        assert abs(runs[0].iterations - runs[1].iterations) <= 2
        assert np.max(np.abs(runs[0].grid.values + 1.0 - runs[1].grid.values)) <= 1e-9

    def test_gradient_built_once_per_accepted_step(self, monkeypatch):
        # trial steps evaluate the energy alone; the gradient follows each accepted step
        calls = {"energy": 0, "gradient": 0, "scale": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(plaplace, "_energy", counted("energy", _energy))
        monkeypatch.setattr(plaplace, "_energy_gradient",
                            counted("gradient", _energy_gradient))
        monkeypatch.setattr(plaplace, "_node_scale", counted("scale", _node_scale))
        cap = make_catalog_surface(
            "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, 3)
        cone = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        # the 13^3 cap starts from the predictor, the 17^3 apex box from its own samples
        for field, lo, hi, nodes, start in [(cap, -0.3, 0.3, 13, "harmonic"),
                                            (cone, -0.5, 0.5, 17, "given")]:
            grid = tighten_boundary(sample_height_grid(field, [lo] * 3, [hi] * 3,
                                                       (hi - lo) / (nodes - 1)))
            calls.update(energy=0, gradient=0, scale=0)
            res = solve_p_harmonic(grid, SolverConfig(p=3.0))
            assert res.stop_reason == "stalled" and res.backtracks > 0
            assert res.start == start
            # the direction's scale is rebuilt from the same state as each gradient;
            # the predictor adds one p = 2 gradient
            assert calls["scale"] == res.iterations + 1
            assert calls["gradient"] == res.iterations + 2
            # the start and the predictor, then one per accepted and per rejected trial
            assert calls["energy"] - 2 == len(res.energy_trace) - 1 + res.backtracks

    @pytest.mark.parametrize("max_held", [plaplace.MAX_HELD_NODES, 0])
    def test_gradient_masked_once_keeps_every_iterate(self, monkeypatch, max_held):
        # masking the gradient to the interior at every accepted step, as the solver
        # once did, gives the same iterates, bit for bit, around an excised apex: with
        # the capacitance correction and with the principal-block direction
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        grid = tighten_boundary(sample_height_grid(field, [-0.5] * 3, [0.5] * 3, 1.0 / 16))
        interior = grid.interior_mask()
        monkeypatch.setattr(plaplace, "MAX_HELD_NODES", max_held)
        runs = []
        for gradient in (_energy_gradient,
                         lambda *args: np.where(interior, _energy_gradient(*args), 0.0)):
            iterates = []

            def energy(values, *args):
                iterates.append(values.tobytes())
                return _energy(values, *args)

            monkeypatch.setattr(plaplace, "_energy", energy)
            monkeypatch.setattr(plaplace, "_energy_gradient", gradient)
            runs.append((solve_p_harmonic(grid, SolverConfig(p=3.0)), iterates))
        (masked_once, once), (masked_each, each) = runs
        assert masked_once.held_nodes == 27 and masked_once.iterations > 2
        assert len(once) == len(each) and once == each
        assert masked_once.grid.values.tobytes() == masked_each.grid.values.tobytes()
        assert (masked_once.iterations, masked_once.backtracks, masked_once.stop_reason,
                masked_once.grad_norm) == (masked_each.iterations, masked_each.backtracks,
                                           masked_each.stop_reason, masked_each.grad_norm)
        assert masked_once.energy_trace.tobytes() == masked_each.energy_trace.tobytes()
        assert masked_once.step_trace.tobytes() == masked_each.step_trace.tobytes()

    def test_p2_matches_direct_solve_with_excision(self):
        # the apex box holds 27 nodes, so the direction inverts the p=2 operator on the
        # free nodes exactly and the predictor lands on the minimizer
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        grid = tighten_boundary(sample_height_grid(field, [-0.5] * 3, [0.5] * 3, 1.0 / 16))
        assert not np.all(grid.active_mask())
        direct = solve_laplace_linear(grid)
        res = solve_p_harmonic(grid, SolverConfig(p=2.0))
        active = grid.active_mask()
        assert res.converged and res.held_nodes == 27
        assert (res.start, res.iterations) == ("harmonic", 0)
        assert np.max(np.abs(direct.values[active] - res.grid.values[active])) <= 1e-8

    @pytest.mark.parametrize("nodes", [17, 25, 33])
    def test_cold_ladder_starts_harmonic(self, nodes):
        # from the constant start the descent took 14, 15 and 16 iterations with 2, 3
        # and 4 rejected trials; from the p = 2 predictor it needs no rejected trial
        exact, start = cold_log_norm(nodes)
        res = solve_p_harmonic(start, SolverConfig(p=3.0))
        assert res.start == "harmonic" and res.stop_reason == "stalled"
        assert res.iterations <= 10 and res.backtracks == 0
        assert np.max(np.abs(res.grid.values - exact.values)) <= 1.5e-3

    @pytest.mark.parametrize("case,start", [("cold", "harmonic"), ("apex", "given"),
                                            ("wavy", "harmonic")])
    def test_energy_trace_starts_at_the_lower_start(self, case, start):
        # oracle: the predictor u_h = u_0 - (p/2) z(g_2), g_2 from a full p = 2 energy
        # pass and z at a unit scale on the free nodes; the trace opens at the lower of
        # E(u_0) and E(u_h)
        if case == "cold":
            grid = cold_log_norm(17)[1]
        elif case == "apex":
            field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
            grid = tighten_boundary(sample_height_grid(field, [-0.5] * 3, [0.5] * 3, 1 / 8))
        else:
            mesh, h = unit_grid()
            vals = np.sin(4 * mesh[0]) + mesh[1] ** 2
            vals[1:-1, 1:-1, 1:-1] = 0.0
            grid = grid_from(vals, h)
        config = SolverConfig(p=3.0)
        h, eps, interior = grid.spacing, config.epsilon, grid.interior_mask()
        active = grid.active_mask()
        weights = _cell_weights(active)
        u0 = np.where(active, grid.values, 0.0)
        g2 = _energy_gradient(_energy(u0, h, 2.0, eps, weights)[1], h, 2.0)
        direction, _ = _free_node_inverse(interior, h, config.p)
        free = interior[tuple(slice(1, -1) for _ in interior.shape)]
        uh = u0 - config.p / 2 * direction(g2, free.astype(float))
        e0, eh = (_energy(u, h, config.p, eps, weights)[0] for u in (u0, uh))
        res = solve_p_harmonic(grid, config)
        assert res.energy_trace[0] == min(e0, eh)
        assert res.start == start == ("harmonic" if eh < e0 else "given")
        assert np.all(np.diff(res.energy_trace) <= 0.0)

    @pytest.mark.parametrize("kind,params,lo,hi,nodes", [
        ("equidistant_cone", {"slope": 1.0}, (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), 17),
        ("equidistant_cone", {"slope": 1.0}, (-0.5,) * 3, (0.5,) * 3, 9),
        ("equidistant_cone", {"slope": 1.0}, (-0.5,) * 3, (0.5,) * 3, 33),
        ("horosphere", {"c": 1.0}, (-0.5,) * 3, (0.5,) * 3, 17),
    ], ids=["cone", "apex9", "apex33", "horosphere"])
    def test_warm_start_kept(self, kind, params, lo, hi, nodes):
        # where h itself is closer to the p = 3 minimizer than the p = 2 predictor is,
        # the descent starts from h
        field = make_catalog_surface(kind, params, 3)
        spacing = (hi[0] - lo[0]) / (nodes - 1)
        grid = tighten_boundary(sample_height_grid(field, lo, hi, spacing))
        res = solve_p_harmonic(grid, SolverConfig(p=3.0))
        assert res.start == "given"
        assert res.energy_trace[0] == p_dirichlet_energy(grid, 3.0, 1e-8)

    @pytest.mark.parametrize("grid,excised", [
        (verify_p2_grid(), 0),
        (tighten_boundary(sample_height_grid(
            make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3),
            [-0.5] * 3, [0.5] * 3, 1.0 / 8)), 1),
    ], ids=["verify", "apex"])
    def test_p2_oracle_matches_sparse_reference(self, grid, excised):
        # the sparse route the oracle replaced: spsolve of A_I^T A_I u_I = -A_I^T A_B u_B
        # in CSR, A over the complete cells, I the interior nodes
        active = grid.active_mask()
        interior = grid.interior_mask().ravel()
        A = _gradient_operator(grid.dims, grid.spacing, _complete_cells(active))
        vals = np.where(active, grid.values, 0.0).ravel()
        AI, AB = A[:, interior], A[:, ~interior]
        want = scipy.sparse.linalg.spsolve(scipy.sparse.csr_matrix(AI.T @ AI),
                                           -AI.T @ (AB @ vals[~interior]))
        got = solve_laplace_linear(grid).values.ravel()[interior]
        assert np.count_nonzero(~active) == excised
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("dims,held", [((7, 7, 7), 12), ((5, 9, 7), 9), ((9, 8), 5)])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_direction_inverts_free_node_block(self, dims, held, p):
        # oracle: s P_FF^-1 s with P_FF = p h^n A_F^T A_F assembled from
        # _gradient_operator over every cell of the box, F the interior nodes left after
        # holding ``held`` scattered ones, and s a unit or a random positive scale on F
        h = 0.11
        rng = np.random.default_rng(sum(dims) + held)
        interior = ~box_face_mask(dims)
        inside = np.flatnonzero(interior)
        interior.ravel()[rng.choice(inside, size=held, replace=False)] = False
        A = _gradient_operator(dims, h, np.ones([d - 1 for d in dims], dtype=bool))
        AF = A[:, interior.ravel()]
        K = p * h ** len(dims) * (AF.T @ AF)
        g = np.where(interior, rng.normal(size=dims), 0.0)
        direction, k = _free_node_inverse(interior, h, p)
        assert k == held
        free = interior[tuple(slice(1, -1) for _ in dims)]
        positive = np.where(free, rng.uniform(0.3, 3.0, free.shape), 0.0)
        for scale in (free.astype(float), positive):
            z = direction(g, scale)
            s = scale[free]
            want = s * np.linalg.solve(K, s * g[interior])
            assert np.all(z[~interior] == 0.0)
            assert np.max(np.abs(z[interior] - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("lo,hi,held", [((-0.5,) * 3, (0.5,) * 3, 27),
                                            ((0.5, -0.5, -0.5), (1.5, 0.5, 0.5), 0)])
    def test_scale_is_one_at_p2(self, lo, hi, held):
        # at p = 2 the coefficient is 1 on every complete cell, and every cell around a
        # free node of a tightened or unmasked lattice is complete: the direction stays
        # the exact inverse, so p = 2 iterates do not change
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        grid = tighten_boundary(sample_height_grid(field, lo, hi, 1.0 / 16))
        active, interior = grid.active_mask(), grid.interior_mask()
        free = interior[(slice(1, -1),) * 3]
        assert np.count_nonzero(~free) == held
        vals = np.where(active, grid.values, 0.0)
        for p in (2.0, 3.0):
            state = _energy(vals, grid.spacing, p, 1e-8, _cell_weights(active))[1]
            scale = _node_scale(state, free)
            assert np.all(scale[~free] == 0.0)
            if p == 2.0:
                assert np.all(scale[free] == 1.0)
            else:
                k = plaplace.MAX_COEFFICIENT_RATIO
                assert np.ptp(scale[free]) > 0.0
                assert np.all((scale[free] >= k ** -0.5) & (scale[free] <= k ** 0.5))

    def test_apex_iterations_do_not_grow(self):
        # the principal-block direction took 143 iterations on this box
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        res = viscosity_probe(field, [-0.5] * 3, [0.5] * 3, SolverConfig(p=3.0),
                              spacing=1.0 / 32)
        assert res.held_nodes == 27 and res.iterations <= 40
        assert res.subharmonic

    def test_block_direction_above_cap(self, monkeypatch):
        # with no capacitance correction the direction is a principal block of the box
        # inverse; the descent still converges to the same minimizer, more slowly
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        grid = tighten_boundary(sample_height_grid(field, [-0.5] * 3, [0.5] * 3, 1.0 / 8))
        exact = solve_p_harmonic(grid, SolverConfig(p=3.0))
        monkeypatch.setattr(plaplace, "MAX_HELD_NODES", 0)
        block = solve_p_harmonic(grid, SolverConfig(p=3.0))
        assert block.converged and block.stop_reason == "stalled"
        assert block.held_nodes == exact.held_nodes == 27
        assert block.iterations > exact.iterations
        active = grid.active_mask()
        assert np.max(np.abs(block.grid.values[active] - exact.grid.values[active])) <= 1e-6


class TestComparison:
    def test_equal_functions(self):
        mesh, h = unit_grid(5)
        gf = grid_from(mesh[0] + mesh[1], h)
        rep = comparison_check(gf, gf.copy())
        assert rep.ok and rep.min_difference == 0.0

    def test_n_harmonic_height_dominated(self):
        # u = log|x| on a box avoiding the origin is itself n-harmonic, so the
        # solved v with the same boundary matches u up to discretization
        u = box_heights(lambda m: 0.5 * np.log(m[0] ** 2 + m[1] ** 2 + m[2] ** 2),
                        (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), 1.0 / 16)
        start = u.copy()
        start.values[start.interior_mask()] = float(
            np.mean(start.values[start.boundary_mask]))
        v = solve_p_harmonic(start, SolverConfig(p=3.0)).grid
        rep = comparison_check(u, v, tol=1e-3)
        assert rep.ok
        assert rep.min_difference >= -1e-3

    def test_superharmonic_height_violates(self):
        # log x1 is strictly 3-superharmonic (density -2/x1^2 < 0): v drops below u
        u = box_heights(lambda m: np.log(m[0]), (1.0, -0.5, -0.5), (2.0, 0.5, 0.5),
                        1.0 / 16)
        start = u.copy()
        start.values[start.interior_mask()] = float(
            np.mean(start.values[start.boundary_mask]))
        v = solve_p_harmonic(start, SolverConfig(p=3.0)).grid
        rep = comparison_check(u, v, tol=1e-8)
        assert not rep.ok
        assert rep.min_difference < -1e-2

    def test_boundary_domination_precondition(self):
        mesh, h = unit_grid(5)
        u = grid_from(mesh[0].copy(), h)
        v = grid_from(mesh[0] - 1.0, h)
        with pytest.raises(ValueError):
            comparison_check(u, v)

    def test_grid_mismatch(self):
        mesh, h = unit_grid(5)
        u = grid_from(mesh[0].copy(), h)
        mesh2, h2 = unit_grid(9)
        v = grid_from(mesh2[0].copy(), h2)
        with pytest.raises(ValueError):
            comparison_check(u, v)


class TestViscosityProbe:
    def test_horosphere_true(self):
        field = make_catalog_surface("horosphere", {"c": 1.0}, 3)
        cfg = SolverConfig(p=3.0)
        res = viscosity_probe(field, [-0.5] * 3, [0.5] * 3, cfg, spacing=1.0 / 8)
        assert res.subharmonic
        assert res.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_cone_true_near_equality(self):
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        cfg = SolverConfig(p=3.0)
        res = viscosity_probe(field, (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), cfg,
                              spacing=1.0 / 16)
        assert res.subharmonic
        assert abs(res.min_margin) <= res.tolerance / 10  # near equality

    def test_tilted_plane_false(self):
        field = make_catalog_surface("tilted_plane", {"slope": 1.0}, 3)
        cfg = SolverConfig(p=3.0)
        res = viscosity_probe(field, (1.0, -0.5, -0.5), (2.0, 0.5, 0.5), cfg,
                              spacing=1.0 / 32)
        assert not res.subharmonic

    def test_cone_excision_reported(self):
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        cfg = SolverConfig(p=3.0)
        res = viscosity_probe(field, [-0.5] * 3, [0.5] * 3, cfg, spacing=1.0 / 16)
        assert res.excised_nodes >= 1
        assert res.subharmonic

    def test_probe_consistency_on_nonneg_ricci_catalog(self):
        # every catalog field with Ricci >= 0 on the window probes subharmonic
        cfg = SolverConfig(p=3.0)
        cap = make_catalog_surface(
            "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, 3)
        lo, hi = cap.domain.lo * 0.9, cap.domain.hi * 0.9
        cases = [
            (make_catalog_surface("horosphere", {"c": 2.0}, 3),
             [-0.5] * 3, [0.5] * 3, 1.0 / 8),
            (make_catalog_surface("equidistant_cone", {"slope": 2.0}, 3),
             (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), 1.0 / 16),
            (cap, lo, hi, float(hi[0] - lo[0]) / 16),
        ]
        for field, box_lo, box_hi, spacing in cases:
            res = viscosity_probe(field, box_lo, box_hi, cfg, spacing=spacing)
            assert res.subharmonic, field.kind

    @pytest.mark.parametrize(
            "kind,params,lo,hi,nodes,subharmonic,stop_reason,backtracks,iterations", [
        pytest.param("equidistant_cone", {"slope": 1.0}, (0.5, -0.5, -0.5), (1.5, 0.5, 0.5),
                     17, True, "stalled", 2, 8, id="cone"),
        pytest.param("tilted_plane", {"slope": 1.0}, (1.0, -0.5, -0.5), (2.0, 0.5, 0.5),
                     33, False, "stalled", 2, None, id="plane"),
        pytest.param("geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0},
                     (-0.3,) * 3, (0.3,) * 3, 13, True, "stalled", None, 30, id="cap"),
        pytest.param("horosphere", {"c": 1.0}, (-0.5,) * 3, (0.5,) * 3, 17, True,
                     "zero_gradient", 0, None, id="horosphere"),
    ])
    def test_warm_probe_stop(self, kind, params, lo, hi, nodes, subharmonic, stop_reason,
                             backtracks, iterations):
        # the probe starts from h itself; where h is smooth that start is close, and the
        # descent stops with at most 2 rejected trials instead of halving steps whose
        # energies differ only in their last bits
        field = make_catalog_surface(kind, params, 3)
        res = viscosity_probe(field, lo, hi, SolverConfig(p=3.0),
                              spacing=(hi[0] - lo[0]) / (nodes - 1))
        assert (res.subharmonic, res.stop_reason) == (subharmonic, stop_reason)
        assert backtracks is None or res.backtracks <= backtracks
        assert iterations is None or res.iterations <= iterations
        assert res.grad_norm <= 1e-6


class TestTightenBoundary:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_masks_match_window_oracle(self, n):
        # oracle: windows of 2^n corners, reduced along the window axes
        rng = np.random.default_rng(n)
        axes = tuple(range(n, 2 * n))
        for density in (0.5, 0.8, 0.95, 1.0):
            dims = tuple(int(d) for d in rng.integers(3, 9, size=n))
            active = rng.random(dims) < density
            cells = sliding_window_view(active, (2,) * n).all(axis=axes)
            assert np.array_equal(_complete_cells(active), cells)
            gf = GridFunction(dims, 0.1, np.zeros(n),
                              np.where(active, rng.normal(size=dims), -np.inf),
                              box_face_mask(dims) | ~active)
            touched = sliding_window_view(np.pad(~cells, 1), (2,) * n).any(axis=axes)
            assert np.array_equal(tighten_boundary(gf).boundary_mask,
                                  gf.boundary_mask | (active & touched))

    def test_excised_ring_becomes_boundary(self):
        field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
        grid = sample_height_grid(field, [-0.5] * 3, [0.5] * 3, 1.0 / 8)
        tightened = tighten_boundary(grid)
        center = tuple(d // 2 for d in grid.dims)
        assert np.isneginf(grid.values[center])
        # all face neighbors of the excised node are fixed
        for axis in range(3):
            for delta in (-1, 1):
                idx = list(center)
                idx[axis] += delta
                assert tightened.boundary_mask[tuple(idx)]
