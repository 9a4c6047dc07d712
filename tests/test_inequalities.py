import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv.curvature import ricci_coordinate
from hypcurv.errors import DegenerateGradientError
from hypcurv.heightfield import Jet2, make_catalog_surface
from hypcurv.inequalities import (INEQ_TOL, Regime, convexity_classify,
                                  grad_direction_ricci, n_laplacian_expansion,
                                  point_regime_report, regime_reports,
                                  ricci_gradient_adapted, scan_field)

from test_curvature import forms_of, mean_curvature, shape_spectrum

SQ2 = math.sqrt(2.0)


def cone(s=1.0, n=3):
    return make_catalog_surface("equidistant_cone", {"slope": s}, n)


def plane(s=1.0, n=3):
    return make_catalog_surface("tilted_plane", {"slope": s}, n)


def horosphere(c=1.0, n=3):
    return make_catalog_surface("horosphere", {"c": c}, n)


def cap(n=3):
    return make_catalog_surface(
        "geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}, n)


def factors_at(jet):
    """(A, B) and the closed-form H of the production report at one jet."""
    return point_regime_report(jet).factors + (mean_curvature(jet),)


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
        # the frame adapted to grad f does not exist where the gradient vanishes
        with pytest.raises(DegenerateGradientError):
            ricci_gradient_adapted(horosphere().jet([0.0, 0.0, 0.0]))

    def test_axis_swap(self):
        # gradient along e_2: the frame swaps the axes; Ric = -(n-1)|Df|^2/q = -1
        jet = Jet2(np.zeros(3), 1.0, np.array([0.0, 1.0, 0.0]), np.zeros((3, 3)))
        assert ricci_gradient_adapted(jet) == pytest.approx(-1.0, abs=1e-14)
        assert grad_direction_ricci(jet) == pytest.approx(-1.0, abs=1e-14)

    def test_cone_rotational_symmetry(self):
        for x in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]):
            assert ricci_gradient_adapted(cone().jet(x)) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_orthogonal_and_aligned(self):
        # a frame that is not orthogonal or not aligned with Df changes the value
        rng = np.random.default_rng(9)
        for field in (cone(0.8), plane(1.4)):
            for x in field.sample_points(25, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet = field.jet(x)
                val = grad_direction_ricci(jet)
                assert abs(ricci_gradient_adapted(jet) - val) <= 1e-10 * (1.0 + abs(val))


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
        for field in (cone(1.7), plane(0.9), cap()):
            for x in field.sample_points(40, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet = field.jet(x)
                grad_sq = float(jet.grad @ jet.grad)
                if grad_sq < 1e-20:
                    continue
                val = grad_direction_ricci(jet)
                forms = forms_of(jet)
                ric = ricci_coordinate(jet, forms)
                q = 1.0 + grad_sq
                fbar = jet.f / (math.sqrt(grad_sq) * math.sqrt(q)) * jet.grad
                contraction = float(fbar @ ric @ fbar)
                scale = 1.0 + abs(contraction)
                assert abs(val - contraction) <= 1e-9 * scale
                assert abs(val - ricci_gradient_adapted(jet)) <= 1e-9 * scale


class TestKeyFactors:
    def test_horosphere(self):
        A, B, H = factors_at(horosphere().jet([0.3, 0.1, 0.0]))
        assert A == pytest.approx(1.0, abs=1e-14)
        assert B == pytest.approx(2.0, abs=1e-14)
        assert A * B >= 2 - INEQ_TOL
        assert abs(A + B - H) <= 1e-14

    def test_cone_equality_case(self):
        rep = point_regime_report(cone().jet([1.0, 0.0, 0.0]))
        A, B = rep.factors
        assert A == pytest.approx(1.0 / SQ2, rel=1e-13)
        assert B == pytest.approx(2.0 * SQ2, rel=1e-13)
        assert A * B == pytest.approx(2.0, rel=1e-12)
        assert A * B >= 2 - INEQ_TOL

    def test_plane_inequality_fails(self):
        A, B, _ = factors_at(plane().jet([1.0, 0.0, 0.0]))
        assert A == pytest.approx(1.0 / SQ2, rel=1e-13)
        assert B == pytest.approx(SQ2, rel=1e-13)
        assert A * B == pytest.approx(1.0, rel=1e-12)
        assert not A * B >= 2 - INEQ_TOL

    def test_sum_identity_everywhere(self):
        rng = np.random.default_rng(11)
        for field in (cone(0.5), cone(5.0), plane(2.0), horosphere(2.0, 4)):
            for x in field.sample_points(50, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                A, B, H = factors_at(field.jet(x))
                assert abs(A + B - H) <= 1e-12 * max(1.0, abs(H))


class TestMeanBound:
    """Nonnegative Ricci curvature forces H >= n (here n = 3)."""

    def test_horosphere_equality(self):
        rep = point_regime_report(horosphere().jet([0.0, 0.0, 0.0]))
        assert rep.min_ricci_eig >= -INEQ_TOL
        assert rep.mean == pytest.approx(3.0, abs=1e-13)

    def test_cone(self):
        rep = point_regime_report(cone().jet([1.0, 0.0, 0.0]))
        assert rep.min_ricci_eig >= -INEQ_TOL
        assert rep.mean == pytest.approx(5.0 / SQ2, rel=1e-13)
        assert rep.mean >= 3

    def test_cap(self):
        rep = point_regime_report(cap().jet([0.0, 0.0, 0.0]))
        assert rep.min_ricci_eig >= -INEQ_TOL
        assert rep.mean == pytest.approx(6.0, rel=1e-13)
        assert rep.mean >= 3

    def test_negative_ricci_not_applicable(self):
        # the tilted plane has Ricci -1 in the gradient direction and H < n
        rep = point_regime_report(plane().jet([1.0, 0.0, 0.0]))
        assert rep.min_ricci_eig == pytest.approx(-1.0, abs=1e-12)
        assert rep.mean == pytest.approx(3.0 / SQ2, rel=1e-13)
        assert rep.mean < 3


class TestDensity:
    def test_horosphere_critical(self):
        rep = point_regime_report(horosphere().jet([0.0, 0.0, 0.0]))
        assert rep.n_subharmonic_density == 0.0
        assert rep.at_critical_point

    def test_cap_critical(self):
        # at the cap's centre the density is Delta log f
        jet = cap().jet([0.0, 0.0, 0.0])
        rep = point_regime_report(jet)
        assert rep.at_critical_point
        assert rep.n_subharmonic_density == pytest.approx(np.trace(jet.hess) / jet.f,
                                                          rel=1e-13)

    def test_cone_n_harmonic(self):
        rng = np.random.default_rng(12)
        for s in (0.5, 1.0, 3.0):
            field = cone(s)
            for x in field.sample_points(30, rng, r_min=0.3, r_max=1.8):
                rep = point_regime_report(field.jet(x))
                assert abs(rep.n_subharmonic_density) <= 1e-10

    def test_plane_density_value(self):
        # log f = log s + log x1: density = (n-1) * (-1/x1^2)
        for x1 in (1.0, 1.7):
            rep = point_regime_report(plane().jet([x1, 0.2, -0.3]))
            assert rep.n_subharmonic_density == pytest.approx(-2.0 / x1 ** 2, rel=1e-12)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(13)
        for field in (cone(1.4), plane(0.8)):
            for x in field.sample_points(40, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet = field.jet(x)
                density = point_regime_report(jet).n_subharmonic_density
                direct = n_laplacian_expansion(jet)
                assert abs(density - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_n2_reduces_to_log_laplacian(self):
        jet = plane(1.0, 2).jet([1.0, 0.3])
        u_hess = jet.hess / jet.f - np.outer(jet.grad, jet.grad) / jet.f ** 2
        assert point_regime_report(jet).n_subharmonic_density == pytest.approx(
            np.trace(u_hess), rel=1e-12)


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
        # the float block holds the kernel's columns, bit for bit, beside the regime names
        rng = np.random.default_rng(14)
        for field, regime in ((cone(), "NonnegSectional"), (plane(), "StrictlyConvex")):
            X = field.sample_points(5, rng, r_min=0.5, r_max=1.5)
            table = scan_field(field, X)
            assert len(table) == len(X) and table.values.shape == (5, 3 + 2 + 3 + 5)
            assert table.regimes.tolist() == [regime] * 5
            f, df, hess = field.jet_array(X)
            rep = regime_reports(f, df, hess)
            A, B = rep.factors
            want = np.column_stack([X, f, rep.mean, rep.spectrum.kappas, rep.min_ricci_eig,
                                    A, B, A * B - 2, rep.n_subharmonic_density])
            assert table.values.tobytes() == want.tobytes()


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
    A, B, H = factors_at(jet)
    assert abs(A + B - H) <= 1e-12 * max(1.0, abs(H))
