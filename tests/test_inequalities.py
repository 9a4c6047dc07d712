import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv.curvature import (fundamental_forms, mean_curvature, ricci_coordinate,
                               shape_spectrum)
from hypcurv.errors import DegenerateGradientError
from hypcurv.heightfield import Jet2, make_catalog_surface
from hypcurv.inequalities import (Regime, adapted_frame, convexity_classify,
                                  grad_direction_ricci, key_factors, mean_bound_check,
                                  n_laplacian_expansion,
                                  n_subharmonic_density, point_regime_report,
                                  ricci_gradient_adapted, scan_field)

SQ2 = math.sqrt(2.0)


def cone(s=1.0, n=3):
    return make_catalog_surface("equidistant_cone", {"slope": s}, n)


def plane(s=1.0, n=3):
    return make_catalog_surface("tilted_plane", {"slope": s}, n)


def horosphere(c=1.0, n=3):
    return make_catalog_surface("horosphere", {"c": c}, n)


def factors_at(jet):
    return key_factors(adapted_frame(jet), mean_curvature(jet))


def tangent_sphere_jet(x, rho=1.0):
    """Jet of f = rho - sqrt(rho^2 - |x|^2): a sphere tangent to the boundary plane.

    Its graph is horosphere-like with kappa = 1 in every direction, the umbilic
    boundary case with a nonvanishing gradient.
    """
    x = np.asarray(x, dtype=float)
    w = math.sqrt(rho ** 2 - float(x @ x))
    return Jet2(x, rho - w, x / w, np.eye(x.size) / w + np.outer(x, x) / w ** 3)


class TestAdaptedFrame:
    def test_degenerate(self):
        aj = adapted_frame(horosphere().jet([0.0, 0.0, 0.0]))
        assert aj.degenerate
        assert np.array_equal(aj.rotation, np.eye(3))

    def test_axis_swap(self):
        jet = Jet2(np.zeros(3), 1.0, np.array([0.0, 1.0, 0.0]), np.zeros((3, 3)))
        aj = adapted_frame(jet)
        assert np.allclose(aj.grad, [1.0, 0.0, 0.0], atol=1e-15)
        assert abs(abs(aj.rotation[0, 1]) - 1.0) <= 1e-15

    def test_cone_rotational_symmetry(self):
        aj = adapted_frame(cone().jet([0.0, 1.0, 0.0]))
        assert np.allclose(aj.hess, np.diag([0.0, 1.0, 1.0]), atol=1e-14)

    def test_rotation_orthogonal_and_aligned(self):
        rng = np.random.default_rng(9)
        for field in (cone(0.8), plane(1.4)):
            for x in field.sample_points(25, rng, margin=0.01):
                jet = field.jet(x)
                aj = adapted_frame(jet)
                assert np.max(np.abs(aj.rotation @ aj.rotation.T - np.eye(3))) <= 1e-12
                norm = math.sqrt(jet.grad_norm_sq)
                assert np.max(np.abs(aj.grad[1:])) <= 1e-12 * norm
                assert aj.grad[0] == pytest.approx(norm, rel=1e-13)


class TestGradDirectionRicci:
    def test_cone_ruling_flat(self):
        assert grad_direction_ricci(cone().jet([1.0, 0.0, 0.0])) == pytest.approx(
            0.0, abs=1e-12)

    def test_plane(self):
        assert grad_direction_ricci(plane().jet([1.0, 0.0, 0.0])) == pytest.approx(
            -1.0, abs=1e-12)

    def test_umbilic_kappa_one_limit(self):
        jet = tangent_sphere_jet([0.5, 0.0, 0.0])
        spec = shape_spectrum(jet)
        assert np.allclose(spec.kappas, 1.0, atol=1e-12)  # confirms the witness
        assert grad_direction_ricci(jet) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGradientError):
            grad_direction_ricci(horosphere().jet([0.0, 0.0, 0.0]))

    def test_matches_tensor_contraction_and_adapted_form(self):
        rng = np.random.default_rng(10)
        for field in (cone(1.7), plane(0.9),
                      make_catalog_surface("geodesic_sphere_cap",
                                           {"center_height": 2.0,
                                            "euclidean_radius": 1.0}, 3)):
            for x in field.sample_points(40, rng, margin=0.01):
                jet = field.jet(x)
                if jet.grad_norm_sq < 1e-20:
                    continue
                val = grad_direction_ricci(jet)
                forms = fundamental_forms(jet)
                ric = ricci_coordinate(jet, forms)
                q = 1.0 + jet.grad_norm_sq
                fbar = jet.f / (math.sqrt(jet.grad_norm_sq) * math.sqrt(q)) * jet.grad
                contraction = float(fbar @ ric @ fbar)
                scale = 1.0 + abs(contraction)
                assert abs(val - contraction) <= 1e-9 * scale
                assert abs(val - ricci_gradient_adapted(jet)) <= 1e-9 * scale


class TestKeyFactors:
    def test_horosphere(self):
        kf = factors_at(horosphere().jet([0.3, 0.1, 0.0]))
        assert kf.A == pytest.approx(1.0, abs=1e-14)
        assert kf.B == pytest.approx(2.0, abs=1e-14)
        assert kf.product_ok
        assert kf.sum_check <= 1e-14

    def test_cone_equality_case(self):
        kf = factors_at(cone().jet([1.0, 0.0, 0.0]))
        assert kf.A == pytest.approx(1.0 / SQ2, rel=1e-13)
        assert kf.B == pytest.approx(2.0 * SQ2, rel=1e-13)
        assert kf.A * kf.B == pytest.approx(2.0, rel=1e-12)
        assert kf.product_ok

    def test_plane_inequality_fails(self):
        kf = factors_at(plane().jet([1.0, 0.0, 0.0]))
        assert kf.A == pytest.approx(1.0 / SQ2, rel=1e-13)
        assert kf.B == pytest.approx(SQ2, rel=1e-13)
        assert kf.A * kf.B == pytest.approx(1.0, rel=1e-12)
        assert not kf.product_ok

    def test_sum_identity_everywhere(self):
        rng = np.random.default_rng(11)
        for field in (cone(0.5), cone(5.0), plane(2.0), horosphere(2.0, 4)):
            for x in field.sample_points(50, rng, margin=0.01):
                jet = field.jet(x)
                kf = factors_at(jet)
                H = mean_curvature(jet)
                assert kf.sum_check <= 1e-12 * max(1.0, abs(H))

    def test_sqrt_form_on_nonneg_vs_not_applicable(self):
        kf = factors_at(cone().jet([1.0, 0.2, 0.0]))
        assert kf.sqrt_form_applicable and kf.sqrt_form_ok
        upper = make_catalog_surface(
            "geodesic_sphere_cap",
            {"center_height": 2.0, "euclidean_radius": 1.0, "cap": "upper"}, 3)
        kf = factors_at(upper.jet([0.3, 0.0, 0.0]))
        assert not kf.sqrt_form_applicable


class TestMeanBound:
    def test_horosphere_equality(self):
        jet = horosphere().jet([0.0, 0.0, 0.0])
        spec = shape_spectrum(jet)
        rep = mean_bound_check(spec, 0.0, 3)
        assert rep.ok and rep.applicable
        assert rep.mean == pytest.approx(3.0, abs=1e-13)

    def test_cone(self):
        jet = cone().jet([1.0, 0.0, 0.0])
        spec = shape_spectrum(jet)
        rep = mean_bound_check(spec, 0.0, 3)
        assert rep.ok
        assert rep.mean == pytest.approx(5.0 / SQ2, rel=1e-13)

    def test_cap(self):
        field = make_catalog_surface(
            "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, 3)
        jet = field.jet([0.0, 0.0, 0.0])
        spec = shape_spectrum(jet)
        rep = mean_bound_check(spec, 6.0, 3)
        assert rep.ok and rep.mean == pytest.approx(6.0, rel=1e-13)

    def test_negative_ricci_not_applicable(self):
        jet = plane().jet([1.0, 0.0, 0.0])
        spec = shape_spectrum(jet)
        rep = mean_bound_check(spec, -1.0, 3)
        assert not rep.applicable and rep.ok

    def test_violation_produces_counterexample(self):
        # inconsistent inputs (claimed nonneg Ricci with H < n) must be reported
        field = make_catalog_surface(
            "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, 3)
        jet = field.jet([0.0, 0.0, 0.0])
        spec = shape_spectrum(jet)
        rep = mean_bound_check(spec, 0.0, 10)
        assert not rep.ok
        assert rep.counterexample is not None
        assert rep.counterexample["H"] == pytest.approx(6.0, rel=1e-12)


class TestDensity:
    def test_horosphere_critical(self):
        res = n_subharmonic_density(adapted_frame(horosphere().jet([0.0, 0.0, 0.0])))
        assert res.density == 0.0
        assert res.at_critical_point

    def test_cone_n_harmonic(self):
        rng = np.random.default_rng(12)
        for s in (0.5, 1.0, 3.0):
            field = cone(s)
            for x in field.sample_points(30, rng, r_min=0.3, r_max=1.8):
                res = n_subharmonic_density(adapted_frame(field.jet(x)))
                assert abs(res.density) <= 1e-10

    def test_plane_density_value(self):
        # log f = log s + log x1: density = (n-1) * (-1/x1^2)
        for x1 in (1.0, 1.7):
            res = n_subharmonic_density(adapted_frame(plane().jet([x1, 0.2, -0.3])))
            assert res.density == pytest.approx(-2.0 / x1 ** 2, rel=1e-12)

    def test_weak_form_scaling(self):
        jet = plane().jet([1.0, 0.0, 0.0])
        res = n_subharmonic_density(adapted_frame(jet))
        norm = np.linalg.norm(jet.grad / jet.f)
        assert res.weak_value == pytest.approx(norm * res.density, rel=1e-13)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(13)
        for field in (cone(1.4), plane(0.8)):
            for x in field.sample_points(40, rng, margin=0.01):
                jet = field.jet(x)
                res = n_subharmonic_density(adapted_frame(jet))
                direct = n_laplacian_expansion(jet)
                assert abs(res.density - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_n2_reduces_to_log_laplacian(self):
        jet = plane(1.0, 2).jet([1.0, 0.3])
        res = n_subharmonic_density(adapted_frame(jet))
        u_hess = jet.hess / jet.f - np.outer(jet.grad, jet.grad) / jet.f ** 2
        aj = adapted_frame(jet)
        rot = aj.rotation @ u_hess @ aj.rotation.T
        assert res.density == pytest.approx(rot[0, 0] + rot[1, 1], rel=1e-12)


class TestClassifier:
    def test_boundary_horoconvex(self):
        rep = convexity_classify([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 3)
        assert rep.regime is Regime.HOROCONVEX

    def test_cone_spectrum_nonneg_sectional_only(self):
        field = cone()
        jet = field.jet([1.0, 0.0, 0.0])
        rep = point_regime_report(jet)
        assert rep.regime is Regime.NONNEG_SECTIONAL

    def test_plane_strictly_convex_only(self):
        rep = point_regime_report(plane().jet([1.0, 0.0, 0.0]))
        assert rep.regime is Regime.STRICTLY_CONVEX
        assert rep.min_ricci_eig == pytest.approx(-1.0, abs=1e-12)

    def test_not_convex(self):
        rep = convexity_classify([-2.0, -2.0, -2.0], [6.0, 6.0, 6.0], 3)
        assert rep.regime is Regime.NOT_CONVEX

    def test_scan_rows(self):
        field = cone()
        rng = np.random.default_rng(14)
        pts = field.sample_points(5, rng, r_min=0.5, r_max=1.5)
        rows = scan_field(field, pts)
        assert len(rows) == 5
        for row in rows:
            assert len(row) == 3 + 2 + 3 + 5 + 1
            assert row[-1] == "NonnegSectional"


REGIME_ORDER = [Regime.NOT_CONVEX, Regime.STRICTLY_CONVEX, Regime.NONNEG_RICCI,
                Regime.NONNEG_SECTIONAL, Regime.HOROCONVEX]


def weaker_conditions_hold(kappas, n, level, tol=1e-9):
    kappas = np.asarray(kappas)
    H = kappas.sum()
    conds = [
        True,
        bool(np.all(kappas > -tol)),
        bool(np.all(kappas * H - (n - 1) - kappas ** 2 >= -tol)),
        bool(np.all(np.outer(kappas, kappas)[~np.eye(n, dtype=bool)] >= 1 - tol)),
        bool(np.all(kappas >= 1 - tol)),
    ]
    return all(conds[:level + 1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=5))
def test_regime_nesting_never_skips(kappas):
    n = len(kappas)
    kappas = sorted(kappas)
    rep = convexity_classify(kappas, [0.0] * n, n)
    level = REGIME_ORDER.index(rep.regime)
    assert weaker_conditions_hold(kappas, n, level)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=10 ** 9))
def test_factor_sum_is_mean_curvature_random_jets(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n))
    jet = Jet2(np.zeros(n), float(rng.uniform(0.2, 3.0)), rng.normal(size=n),
               0.5 * (h + h.T))
    kf = factors_at(jet)
    assert kf.sum_check <= 1e-12 * max(1.0, abs(mean_curvature(jet)))
