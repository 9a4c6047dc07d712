"""The batched geometry kernel against the scalar oracles, and its error paths.

Every row of ``regime_reports`` over stacked jets must agree with the independent
scalar routes: the coordinate Ricci tensor and its pencil eigenvalues, the H1/H2
gradient-direction Ricci, the n-Laplacian expansion of log f and the closed-form mean
curvature.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcurv import curvature
from hypcurv.curvature import (fundamental_forms, mean_curvature, ricci_coordinate,
                               ricci_eigenvalues, shape_spectra, shape_spectrum)
from hypcurv.errors import DomainError, NumericError, ParameterError
from hypcurv.gridfn import GridFunction
from hypcurv.heightfield import (Box, Horosphere, Jet2, SampledGridField,
                                 make_catalog_surface)
from hypcurv.inequalities import (grad_direction_ricci, n_laplacian_expansion,
                                  regime_reports)


def close(got, want, scale=0.0):
    """Agreement within 1e-12 of 1 + max(|want|, scale), scale being the size of the
    terms that cancel in a quantity near zero."""
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * (
        1.0 + max(np.max(np.abs(want)), scale))


def assert_rows_match_oracles(X, f, df, hess):
    rep = regime_reports(f, df, hess)
    spec = rep.spectrum
    A, B = rep.factors
    n = df.shape[1]
    for i in range(len(f)):
        jet = Jet2(X[i], f[i], df[i], hess[i])
        forms = fundamental_forms(jet)
        ricci = ricci_eigenvalues(ricci_coordinate(jet, forms), forms.metric)
        assert close(spec.ricci[i], ricci), i
        assert close(rep.min_ricci_eig[i], ricci[0]), i
        H = mean_curvature(jet)
        assert close(rep.mean[i], H) and close(A[i] + B[i], H), i
        if np.any(df[i] != 0.0):
            # Ricci in the g-unit gradient direction, read from the frame and kappas
            q = 1.0 + df[i] @ df[i]
            v = f[i] / math.sqrt((q - 1.0) * q) * df[i]
            c = spec.frame[i].T @ forms.metric @ v
            kappas = spec.kappas[i]
            ric_v = np.sum((-(n - 1) + kappas * rep.mean[i] - kappas ** 2) * c ** 2)
            assert close(ric_v, grad_direction_ricci(jet)), i
            log_hess = hess[i] / f[i] - np.outer(df[i], df[i]) / f[i] ** 2
            assert close(rep.n_subharmonic_density[i], n_laplacian_expansion(jet),
                         np.max(np.abs(log_hess))), i
            assert not rep.at_critical_point[i]
        else:
            assert rep.at_critical_point[i]
            assert close(A[i], f[i] * hess[i][0, 0] + 1.0), i  # split along e_1
            assert close(rep.n_subharmonic_density[i], np.trace(hess[i]) / f[i]), i


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.booleans())
def test_batched_rows_match_oracles_on_random_jets(n, seed, critical):
    rng = np.random.default_rng(seed)
    count = 6
    f = rng.uniform(0.2, 3.0, count)
    df = rng.normal(size=(count, n))
    h = rng.normal(size=(count, n, n))
    if critical:
        df[::2] = 0.0
    assert_rows_match_oracles(np.zeros((count, n)), f, df, h + h.swapaxes(1, 2))


CATALOG = [
    ("horosphere", {"c": 1.7}),
    ("geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0}),
    ("geodesic_sphere_cap", {"center_height": 2.0, "euclidean_radius": 1.0, "cap": "upper"}),
    ("equidistant_cone", {"slope": 1.3}),
    ("tilted_plane", {"slope": 0.8}),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.sampled_from(CATALOG),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_batched_rows_match_oracles_on_catalog(n, surface, seed):
    field = make_catalog_surface(surface[0], surface[1], n)
    rng = np.random.default_rng(seed)
    X = field.sample_points(6, rng, margin=0.01)
    if field.kind == "equidistant_cone":
        # just outside the excised apex ball, where f is small and D2f large
        u = rng.normal(size=(3, n))
        X = np.concatenate([X, u / np.linalg.norm(u, axis=1)[:, None] * 1.5e-3])
    assert_rows_match_oracles(X, *field.jet_array(X))


def cone_grid(n):
    """Sampled cone on [-0.2, 0.2]^n, spacing 0.025: the apex node (index 8) is excised."""
    field = make_catalog_surface("equidistant_cone", {"slope": 1.3}, n)
    return SampledGridField.from_field(field, Box(np.full(n, -0.2), np.full(n, 0.2)), 17)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_rows_match_oracles_on_sampled_grid(n):
    sampled = cone_grid(n)
    rng = np.random.default_rng(n)
    # every box corner, where windows are clamped, and points whose window starts on
    # the node next to the excised apex (x_1 in [0.05, 0.075): window nodes 9..13)
    corners = np.stack(np.meshgrid(*[[-0.2, 0.2]] * n, indexing="ij"), -1).reshape(-1, n)
    near = rng.uniform(-0.2, 0.2, size=(6, n))
    near[:, 0] = rng.uniform(0.05, 0.075, size=6)
    X = np.concatenate([corners, near])
    f, df, hess = sampled.jet_array(X)
    for i, x in enumerate(X):
        jet = sampled.jet(x)
        assert (jet.f, jet.grad.tolist(), jet.hess.tolist()) == (
            f[i], df[i].tolist(), hess[i].tolist())
    assert_rows_match_oracles(X, f, df, hess)


def test_scalar_views_are_rows_of_the_batch():
    field = make_catalog_surface("equidistant_cone", {"slope": 0.7}, 3)
    X = field.sample_points(5, np.random.default_rng(3), r_min=0.5, r_max=1.5)
    spec = shape_spectra(*field.jet_array(X))
    for i, x in enumerate(X):
        one = shape_spectrum(field.jet(x))
        assert np.array_equal(one.kappas, spec.kappas[i])
        assert np.array_equal(one.forms.metric, spec.forms.metric[i])
        assert one.mean == spec.mean[i]


# -- a single bad point in a stack raises the scalar path's error ----------------------

class SkewedHorosphere(Horosphere):
    """A horosphere whose Hessian is asymmetric at points with x_1 > 0.5."""

    def _jet_array(self, X):
        f, df, hess = super()._jet_array(X)
        hess[X[:, 0] > 0.5, 0, 1] = 1e-3
        return f, df, hess


def tilted_grid():
    """Sampled graph of f = x_1 over [-0.5, 0.5]^3, so f <= 0 where x_1 <= 0."""
    axes = [np.linspace(-0.5, 0.5, 11)] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    return SampledGridField(GridFunction((11,) * 3, 0.1, -0.5 * np.ones(3), mesh[0]))


@pytest.mark.parametrize("field,bad,error", [
    (tilted_grid(), [-0.2, 0.1, 0.1], ParameterError),
    (SkewedHorosphere(1.0, 3), [0.7, 0.1, 0.1], ParameterError),
    (make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3), [5e-4, 0.0, 0.0],
     DomainError),
    (make_catalog_surface("geodesic_sphere_cap",
                          {"center_height": 2.0, "euclidean_radius": 1.0,
                           "domain": {"lo": [-1.0] * 3, "hi": [1.0] * 3}}, 3),
     [0.9, 0.5, 0.0], DomainError),
], ids=["f<=0", "asymmetric-hessian", "inside-mask", "outside-cap-chart"])
def test_single_bad_point_raises_scalar_error(field, bad, error):
    good = np.array([[0.3, 0.2, -0.1], [0.2, -0.3, 0.25]])
    field.jet_array(good)
    with pytest.raises(error):
        field.jet(bad)
    with pytest.raises(error, match=re.escape(str(np.asarray(bad)))):
        field.jet_array(np.concatenate([good[:1], [bad], good[1:]]))


def test_corrupted_second_form_trips_mean_cross_check(monkeypatch):
    field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
    X = field.sample_points(4, np.random.default_rng(5), r_min=0.5, r_max=1.5)
    f, df, hess = field.jet_array(X)
    build = curvature._forms

    def corrupted(f_, df_, hess_):
        forms, II = build(f_, df_, hess_)
        return forms, II + 1e-3 * (f_ == f[2])[:, None, None] * np.eye(3)

    monkeypatch.setattr(curvature, "_forms", corrupted)
    shape_spectra(np.delete(f, 2), np.delete(df, 2, 0), np.delete(hess, 2, 0))
    with pytest.raises(NumericError, match="at point 2"):
        shape_spectra(f, df, hess)
    with pytest.raises(NumericError):
        shape_spectrum(Jet2(X[2], f[2], df[2], hess[2]))
