import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import curvature
from hypcurv.curvature import (MEAN_XCHECK_RTOL, cluster_kappas, commutation_residual,
                               fd_residuals, fundamental_forms, ricci_coordinate,
                               ricci_from_shape, shape_spectra)
from hypcurv.errors import NumericError
from hypcurv.heightfield import Jet2, make_catalog_surface

SQ2 = math.sqrt(2.0)


def ricci_eigenvalues(ric, metric):
    """Coordinate-route oracle: ascending eigenvalues of the pencil (Ric, g)."""
    return scipy.linalg.eigh(ric, metric, eigvals_only=True)


def principal_frame(f, df, second_form):
    """Ascending curvatures and g-orthonormal principal directions (columns) at one jet,
    from ``np.linalg.eigh`` of the pencil (II, g) whitened by
    g^-1/2 = f (I + (1/sqrt(1 + |Df|^2) - 1) u u^T), u = Df/|Df| (e_1 where Df = 0)."""
    n = len(df)
    norm = math.sqrt(df @ df)
    u = df / norm if norm > 0.0 else np.eye(n)[0]
    white = f * (np.eye(n) + (1.0 / math.sqrt(1.0 + df @ df) - 1.0) * np.outer(u, u))
    kappas, vecs = np.linalg.eigh(white @ second_form @ white)
    return kappas, white @ vecs


def shape_spectrum(jet):
    """The batched kernel's record at one jet."""
    return shape_spectra(*jet.stacked()).point(0)


def forms_of(jet):
    """The fundamental forms at one jet."""
    return fundamental_forms(*jet.stacked()).point(0)


def mean_curvature(jet):
    """Closed-form oracle of the trace of the shape operator,
    H = (n + f tr D2f - f Df.D2f.Df / q) / sqrt(q), q = 1 + |Df|^2."""
    f, df, hess = jet.f, jet.grad, jet.hess
    q = 1.0 + df @ df
    return float((jet.n + f * np.trace(hess) - f * (df @ hess @ df) / q) / math.sqrt(q))


def horosphere(c=1.0, n=3):
    return make_catalog_surface("horosphere", {"c": c}, n)


def cone(s=1.0, n=3):
    return make_catalog_surface("equidistant_cone", {"slope": s}, n)


def cap(a=2.0, b=1.0, n=3):
    return make_catalog_surface(
        "geodesic_sphere_cap", {"center_height": a, "euclidean_radius": b}, n)


def plane(s=1.0, n=3):
    return make_catalog_surface("tilted_plane", {"slope": s}, n)


def spectrum_at(field, x):
    jet = field.jet(x)
    return jet, forms_of(jet), shape_spectrum(jet)


def random_jet(rng, n):
    h = rng.normal(size=(n, n))
    return Jet2(np.zeros(n), float(rng.uniform(0.2, 3.0)), rng.normal(size=n),
                0.5 * (h + h.T))


class TestFundamentalForms:
    def test_horosphere(self):
        jet = horosphere().jet([0.4, -0.2, 0.9])
        forms = forms_of(jet)
        assert np.allclose(forms.metric, np.eye(3), atol=1e-15)
        assert np.allclose(forms.metric_inv, np.eye(3), atol=1e-15)
        assert np.allclose(forms.normal, [0, 0, 0, 1], atol=1e-15)

    def test_cone_adapted_point(self):
        jet = cone().jet([1.0, 0.0, 0.0])
        forms = forms_of(jet)
        assert np.allclose(forms.metric, np.diag([2.0, 1.0, 1.0]), atol=1e-15)
        assert np.allclose(forms.metric_inv, np.diag([0.5, 1.0, 1.0]), atol=1e-15)
        assert np.allclose(forms.normal, np.array([-1, 0, 0, 1]) / SQ2, atol=1e-15)

    def test_cap_center(self):
        forms = forms_of(cap().jet([0.0, 0.0, 0.0]))
        assert np.allclose(forms.metric, np.eye(3), atol=1e-15)
        assert np.allclose(forms.normal, [0, 0, 0, 1], atol=1e-15)

    def test_metric_inverse_and_normal_length(self):
        rng = np.random.default_rng(4)
        for field in (cone(0.7), cap(), plane(2.0), horosphere(1.7, 4)):
            for x in field.sample_points(25, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet = field.jet(x)
                forms = forms_of(jet)
                assert np.max(np.abs(forms.metric @ forms.metric_inv - np.eye(field.n))) <= 1e-12
                # Euclidean norm of the hyperbolic unit normal equals f
                assert np.linalg.norm(forms.normal) == pytest.approx(jet.f, rel=1e-13)


class TestShapeSpectrum:
    def test_horosphere_umbilic_identity(self):
        jet, forms, spec = spectrum_at(horosphere(), [0.1, 0.7, -0.3])
        assert np.array_equal(spec.second_form, forms.metric)
        assert np.allclose(spec.kappas, 1.0, atol=1e-14)
        assert spec.mean == pytest.approx(3.0, abs=1e-14)

    def test_cone_spectrum(self):
        # oracle: tube at distance d = arcsinh(1/s) has kappas tanh d, coth d x (n-1)
        for s in (0.5, 1.0, 2.0):
            field = cone(s)
            d = field.tube_distance()
            jet, forms, spec = spectrum_at(field, [1.0, 0.3, -0.2])
            assert spec.kappas[0] == pytest.approx(math.tanh(d), rel=1e-12)
            assert np.allclose(spec.kappas[1:], 1.0 / math.tanh(d), rtol=1e-12)

    def test_cone_mean(self):
        _, _, spec = spectrum_at(cone(), [1.0, 0.0, 0.0])
        assert spec.mean == pytest.approx(5.0 / SQ2, rel=1e-13)

    def test_plane_umbilic(self):
        jet, forms, spec = spectrum_at(plane(), [1.0, 0.0, 0.0])
        assert np.allclose(spec.kappas, 1.0 / SQ2, rtol=1e-13)
        assert np.max(np.abs(spec.second_form - forms.metric / SQ2)) <= 1e-15

    def test_frame_is_g_orthonormal_and_principal(self):
        rng = np.random.default_rng(5)
        for field in (cone(1.3), cap(), plane(0.6)):
            for x in field.sample_points(20, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet, forms, spec = spectrum_at(field, x)
                _, frame = principal_frame(jet.f, jet.grad, spec.second_form)
                gram = frame.T @ forms.metric @ frame
                assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
                shape = forms.metric_inv @ spec.second_form
                for i in range(3):
                    resid = shape @ frame[:, i] - spec.kappas[i] * frame[:, i]
                    assert np.max(np.abs(resid)) <= 1e-9
                assert spec.mean == pytest.approx(np.trace(shape), rel=1e-12)

    def test_cone_reciprocal_product(self):
        rng = np.random.default_rng(6)
        for s in (0.5, 1.0, 2.0, 5.0):
            field = cone(s)
            for x in field.sample_points(30, rng, r_min=0.4, r_max=1.9):
                _, _, spec = spectrum_at(field, x)
                assert np.max(np.abs(spec.kappas[0] * spec.kappas[1:] - 1.0)) <= 1e-10

    def test_upper_cap_not_convex(self):
        field = make_catalog_surface(
            "geodesic_sphere_cap",
            {"center_height": 2.0, "euclidean_radius": 1.0, "cap": "upper"}, 3)
        _, _, spec = spectrum_at(field, [0.0, 0.0, 0.0])
        assert np.all(spec.kappas < 0)

    def test_mean_cross_check_catches_corruption(self, monkeypatch):
        jet1 = cone().jet([1.0, 0.0, 0.0])
        jet2 = cap().jet([0.2, 0.0, 0.0])
        second_form_wrong = shape_spectrum(jet2).second_form[None]
        monkeypatch.setattr(curvature, "_second_form",
                            lambda f, df, hess, root_q: second_form_wrong)
        with pytest.raises(NumericError):
            shape_spectrum(jet1)

    def test_cluster_kappas(self):
        groups = cluster_kappas(np.array([0.7071, 1.4142, 1.4142]))
        assert [len(g) for g in groups] == [1, 2]
        groups = cluster_kappas(np.array([1.0, 1.0, 1.0]))
        assert [len(g) for g in groups] == [3]


class TestRicci:
    def test_horosphere_flat(self):
        jet, forms, spec = spectrum_at(horosphere(), [0.2, 0.2, 0.2])
        assert np.max(np.abs(ricci_coordinate(jet, forms))) <= 1e-14
        assert np.max(np.abs(ricci_from_shape(spec, forms))) <= 1e-14

    def test_plane_umbilic_ricci(self):
        # umbilic identity: Ric = (n-1)(kappa^2 - 1) g
        jet, forms, spec = spectrum_at(plane(), [1.3, 0.2, -0.4])
        eigs = ricci_eigenvalues(ricci_coordinate(jet, forms), forms.metric)
        assert np.allclose(eigs, -1.0, atol=1e-12)

    def test_cap_ricci(self):
        jet, forms, spec = spectrum_at(cap(), [0.0, 0.0, 0.0])
        eigs = ricci_eigenvalues(ricci_coordinate(jet, forms), forms.metric)
        assert np.allclose(eigs, 6.0, rtol=1e-12)

    def test_cone_ruling_is_ricci_flat(self):
        # quadratic-root arithmetic: kappa0 H - kappa0^2 - (n-1) = 0 on the tube
        jet, forms, spec = spectrum_at(cone(), [1.0, 0.0, 0.0])
        k0, H = spec.kappas[0], spec.mean
        assert k0 * H - k0 ** 2 - 2.0 == pytest.approx(0.0, abs=1e-12)
        eigs = ricci_eigenvalues(ricci_coordinate(jet, forms), forms.metric)
        assert abs(eigs[0]) <= 1e-12

    def test_two_routes_agree_on_catalog(self):
        rng = np.random.default_rng(7)
        for field in (horosphere(), cone(0.5), cone(2.0), cap(), plane(1.5)):
            kwargs = {"r_min": 0.3, "r_max": 1.8} if field.kind == "equidistant_cone" else {}
            for x in field.sample_points(200, rng, margin=0.01, **kwargs):
                jet, forms, spec = spectrum_at(field, x)
                r1 = ricci_coordinate(jet, forms)
                r2 = ricci_from_shape(spec, forms)
                assert np.max(np.abs(r1 - r2)) <= 1e-9 * (1.0 + np.max(np.abs(r1)))

    def test_commutation_on_catalog(self):
        rng = np.random.default_rng(8)
        for field in (horosphere(), cone(), cap(), plane()):
            for x in field.sample_points(50, rng, r_min=0.0, r_max=np.inf, margin=0.01):
                jet, forms, spec = spectrum_at(field, x)
                ric = ricci_coordinate(jet, forms)
                shape = forms.metric_inv @ spec.second_form
                assert commutation_residual(ric, forms.metric, shape) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=10 ** 9))
def test_two_route_ricci_random_jets(n, seed):
    rng = np.random.default_rng(seed)
    jet = random_jet(rng, n)
    spec, forms = shape_spectrum(jet), forms_of(jet)
    r1 = ricci_coordinate(jet, forms)
    r2 = ricci_from_shape(spec, forms)
    assert np.max(np.abs(r1 - r2)) <= 1e-9 * (1.0 + np.max(np.abs(r1)))
    shape = forms.metric_inv @ spec.second_form
    assert commutation_residual(r1, forms.metric, shape) <= 1e-9
    assert abs(np.sum(spec.kappas) - mean_curvature(jet)) <= 1e-10 * (
        1.0 + abs(spec.mean))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 9),
       st.booleans())
def test_kappas_are_eigh_of_the_whitened_pencil(n, seed, critical):
    # the eigenvalue-only solve against eigh with eigenvectors of the same pencil
    rng = np.random.default_rng(seed)
    count = 8
    f = rng.uniform(0.2, 3.0, count)
    df = rng.normal(size=(count, n))
    h = rng.normal(size=(count, n, n))
    if critical:
        df[::2] = 0.0
    spec = shape_spectra(f, df, h + h.swapaxes(1, 2))
    for i in range(count):
        kappas, _ = principal_frame(f[i], df[i], spec.second_form[i])
        assert np.max(np.abs(spec.kappas[i] - kappas)) <= 1e-13 * max(
            1.0, np.max(np.abs(kappas))), i
    assert np.all(np.diff(spec.kappas, axis=1) >= 0.0)
    assert np.all(np.abs(spec.kappas.sum(axis=1) - spec.mean_closed)
                  <= MEAN_XCHECK_RTOL * np.maximum(1.0, np.abs(spec.mean_closed)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 9),
       st.booleans())
def test_spectrum_ricci_matches_coordinate_oracle(n, seed, critical):
    # the kernel's polynomial Ricci eigenvalues against the coordinate-route pencil
    rng = np.random.default_rng(seed)
    jet = random_jet(rng, n)
    if critical:
        jet = Jet2(jet.x, jet.f, np.zeros(n), jet.hess)
    spec, forms = shape_spectrum(jet), forms_of(jet)
    ric = ricci_coordinate(jet, forms)
    oracle = ricci_eigenvalues(ric, forms.metric)
    assert np.all(np.diff(spec.ricci) >= 0.0)
    assert np.max(np.abs(spec.ricci - oracle)) <= 1e-9 * (1.0 + np.max(np.abs(ric)))


class TestFiniteDifferenceResiduals:
    def test_horosphere_zero(self):
        field = horosphere()
        assert fd_residuals(field, [[0.1, 0.0, 0.2]], 1e-4)[0][0] == 0.0
        assert fd_residuals(field, [[0.1, 0.0, 0.2]], 1e-3)[1][0] == 0.0

    @pytest.mark.parametrize("field,x", [
        (cap(), [0.2, 0.1, 0.0]),
        (cone(), [1.0, 0.2, 0.1]),
    ])
    def test_codazzi_small(self, field, x):
        assert fd_residuals(field, [x], 1e-4)[0][0] <= 1e-5

    @pytest.mark.parametrize("field,x", [
        (cone(), [1.0, 0.0, 0.0]),
        (cap(), [0.3, 0.0, 0.0]),
    ])
    def test_gauss_small(self, field, x):
        assert fd_residuals(field, [x], 1e-3)[1][0] <= 1e-4

    @pytest.mark.parametrize("which", [0, 1], ids=["codazzi", "gauss"])
    def test_residual_convergence_order(self, which):
        field = cone()
        x = [[0.9, 0.35, -0.2]]
        r_coarse = fd_residuals(field, x, 2e-3)[which][0]
        r_fine = fd_residuals(field, x, 1e-3)[which][0]
        assert math.log2(r_coarse / r_fine) >= 1.9

    def test_stencil_domain_error(self):
        from hypcurv.errors import DomainError
        with pytest.raises(DomainError):
            fd_residuals(cone(), [[1.999, 0.0, 0.0]], 1e-2)
