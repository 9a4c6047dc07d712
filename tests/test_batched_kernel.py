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
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcurv import curvature
from hypcurv.curvature import (GRADIENT_EPS, MEAN_XCHECK_RTOL, _quadratic, ricci_coordinate,
                               shape_spectra)
from hypcurv.errors import DomainError, NumericError, ParameterError
from hypcurv.gridfn import GridFunction
from hypcurv.heightfield import (Horosphere, Jet2, SampledGridField, _row_dot,
                                 make_catalog_surface)
from hypcurv.inequalities import (convexity_classify, grad_direction_ricci,
                                  n_laplacian_expansion, regime_reports)

from test_curvature import forms_of, mean_curvature, principal_frame, shape_spectrum


def ricci_eigenvalues(ric, metric):
    """Coordinate-route oracle: ascending eigenvalues of the pencil (Ric, g)."""
    return scipy.linalg.eigh(ric, metric, eigvals_only=True)


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
        forms = forms_of(jet)
        ricci = ricci_eigenvalues(ricci_coordinate(jet, forms), forms.metric)
        assert close(spec.ricci[i], ricci), i
        assert close(rep.min_ricci_eig[i], ricci[0]), i
        H = mean_curvature(jet)
        assert close(rep.mean[i], H) and close(A[i] + B[i], H), i
        if np.any(df[i] != 0.0):
            # Ricci in the g-unit gradient direction, read from the kappas and a frame
            # of the same pencil; |Df|^2 is taken directly, since (1 + |Df|^2) - 1
            # loses |Df|^-2 of its bits
            d2 = df[i] @ df[i]
            v = f[i] / math.sqrt(d2 * (1.0 + d2)) * df[i]
            _, frame = principal_frame(f[i], df[i], spec.second_form[i])
            c = frame.T @ forms.metric @ v
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
# n = 2 draws with a near-critical row, where 1 + |Df|^2 - 1 would cancel
@example(n=2, seed=518, critical=False)
@example(n=2, seed=782, critical=False)
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
    X = field.sample_points(6, rng, r_min=0.0, r_max=np.inf, margin=0.01)
    if field.kind == "equidistant_cone":
        # just outside the excised apex ball, where f is small and D2f large
        u = rng.normal(size=(3, n))
        X = np.concatenate([X, u / np.linalg.norm(u, axis=1)[:, None] * 1.5e-3])
    assert_rows_match_oracles(X, *field.jet_array(X))


def cone_grid(n):
    """Sampled cone on [-0.2, 0.2]^n, spacing 0.025: the apex node (index 8) is excised."""
    field = make_catalog_surface("equidistant_cone", {"slope": 1.3}, n)
    return SampledGridField.from_field(field, np.full(n, -0.2), np.full(n, 0.2), 0.025)


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


# -- the one-pass kernel against the chain of steps it replaced, bit for bit -----------
# Each step of the chain builds q = 1 + |Df|^2 (or |Df|) again, and the whitening reads
# 1 + (q - 1), which is q for 1 <= q < 2^53.

def chain_second_form(f, df, hess):
    """|Df|^2 as q - 1, and II, from one q."""
    q = 1.0 + _row_dot(df, df)
    ddt = df[:, :, None] * df[:, None, :]
    f2 = f[:, None, None] ** 2
    II = (np.eye(df.shape[1]) + ddt + f[:, None, None] * hess) / (f2 * np.sqrt(q)[:, None, None])
    return q - 1.0, II


def chain_unit_gradient(df):
    norm = np.sqrt(_row_dot(df, df))
    degenerate = norm <= GRADIENT_EPS
    u = df / np.where(degenerate, 1.0, norm)[:, None]
    u[degenerate] = np.eye(df.shape[1])[0]
    return u, degenerate


def chain_mean_closed(f, df, hess):
    q = 1.0 + _row_dot(df, df)
    trace = np.trace(hess, axis1=-2, axis2=-1)
    return (df.shape[-1] + f * trace - f * _quadratic(df, hess) / q) / np.sqrt(q)


def chain_factors(f, df, hess, u):
    n = df.shape[1]
    q = 1.0 + _row_dot(df, df)
    huu = _quadratic(u, hess)
    return (f * q ** -1.5 * (huu + q / f),
            f * q ** -0.5 * (np.trace(hess, axis1=1, axis2=2) - huu + (n - 1) / f))


def chain_density(f, df, hess, u, degenerate):
    n = df.shape[1]
    f3 = f[:, None, None]
    log_hess = (hess - df[:, :, None] * df[:, None, :] / f3) / f3
    lap = np.trace(log_hess, axis1=1, axis2=2)
    return np.where(degenerate, lap, (n - 2) * _quadratic(u, log_hess) + lap)


def chain_regime_reports(f, df, hess):
    """The fields of ``regime_reports`` by name, through the chain of steps."""
    n = df.shape[1]
    grad_norm_sq, II = chain_second_form(f, df, hess)
    u, _ = chain_unit_gradient(df)
    shrink = 1.0 / np.sqrt(1.0 + grad_norm_sq) - 1.0
    white = f[:, None, None] * (np.eye(n) + shrink[:, None, None] * u[:, :, None] * u[:, None, :])
    try:
        kappas = np.linalg.eigvalsh(white @ II @ white)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"batched eigensolve failed: {exc}") from exc
    mean = kappas.sum(axis=1)
    mean_cf = chain_mean_closed(f, df, hess)
    bad = ~(np.abs(mean - mean_cf) <= MEAN_XCHECK_RTOL * np.maximum(1.0, np.abs(mean_cf)))
    if bad.any():
        i = np.argmax(bad)
        raise NumericError(f"mean curvature cross-check failed at point {i}: "
                           f"trace {mean[i]} vs closed form {mean_cf[i]}")
    ricci = np.sort(-(n - 1) + kappas * mean[:, None] - kappas ** 2, axis=1)
    u, degenerate = chain_unit_gradient(df)
    base = convexity_classify(kappas, ricci, n)
    A, B = chain_factors(f, df, hess, u)
    return {"regime": base.regime, "min_ricci_eig": base.min_ricci_eig, "mean": mean,
            "A": A, "B": B, "density": chain_density(f, df, hess, u, degenerate),
            "at_critical_point": degenerate, "second_form": II, "kappas": kappas,
            "mean_closed": mean_cf, "ricci": ricci}


def kernel_fields(f, df, hess):
    rep = regime_reports(f, df, hess)
    spec = rep.spectrum
    return {"regime": rep.regime, "min_ricci_eig": rep.min_ricci_eig, "mean": rep.mean,
            "A": rep.factors[0], "B": rep.factors[1], "density": rep.n_subharmonic_density,
            "at_critical_point": rep.at_critical_point, "second_form": spec.second_form,
            "kappas": spec.kappas, "mean_closed": spec.mean_closed, "ricci": spec.ricci}


def outcome(fields, f, df, hess):
    """The fields, each as its dtype and bytes, or the NumericError message."""
    try:
        got = fields(f, df, hess)
    except NumericError as exc:
        return str(exc)
    return {k: (v.dtype, v.tolist() if v.dtype == object else v.tobytes())
            for k, v in got.items()}


#: |Df| of a drawn row: exactly 0, at the critical-point threshold, or 1e-3 .. 1e7
GRADIENT_SIZES = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 1.0 + 2.0 ** -52, 2.0]).map(lambda k: k * GRADIENT_EPS),
    st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(GRADIENT_SIZES, min_size=1, max_size=6))
def test_kernel_is_bitwise_the_chain_it_replaced(n, seed, sizes):
    rng = np.random.default_rng(seed)
    count = len(sizes)
    f = rng.uniform(0.2, 3.0, count)
    direction = rng.normal(size=(count, n))
    df = direction / np.linalg.norm(direction, axis=1)[:, None] * np.array(sizes)[:, None]
    h = rng.normal(size=(count, n, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (count, 1, 1))
    hess = h + h.swapaxes(1, 2)
    assert outcome(kernel_fields, f, df, hess) == outcome(chain_regime_reports, f, df, hess)


def test_scalar_views_are_rows_of_the_batch():
    field = make_catalog_surface("equidistant_cone", {"slope": 0.7}, 3)
    X = field.sample_points(5, np.random.default_rng(3), r_min=0.5, r_max=1.5)
    spec = shape_spectra(*field.jet_array(X))
    forms = curvature.fundamental_forms(*field.jet_array(X))
    for i, x in enumerate(X):
        one = shape_spectrum(field.jet(x))
        assert np.array_equal(one.kappas, spec.kappas[i])
        assert np.array_equal(forms_of(field.jet(x)).metric, forms.metric[i])
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
    build = curvature._second_form

    def corrupted(f_, df_, hess_, root_q):
        II = build(f_, df_, hess_, root_q)
        return II + 1e-3 * (f_ == f[2])[:, None, None] * np.eye(3)

    monkeypatch.setattr(curvature, "_second_form", corrupted)
    shape_spectra(np.delete(f, 2), np.delete(df, 2, 0), np.delete(hess, 2, 0))
    with pytest.raises(NumericError, match="at point 2"):
        shape_spectra(f, df, hess)
    with pytest.raises(NumericError):
        shape_spectrum(Jet2(X[2], f[2], df[2], hess[2]))


# -- FD Codazzi/Gauss residuals against the per-point stencil walk ---------------------

def ref_stencil_forms(field, x, step):
    """Metric g and II at x and their central differences over {x, x +/- step e_i}."""
    n = field.n
    e = np.eye(n) * step
    jets = field.jet_array(np.concatenate([x[None], x + e, x - e]))
    g, II = curvature.fundamental_forms(*jets).metric, shape_spectra(*jets).second_form
    return (g[0], (g[1:n + 1] - g[n + 1:]) / (2 * step),
            II[0], (II[1:n + 1] - II[n + 1:]) / (2 * step))


def ref_christoffel(g, dg):
    lowered = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    return np.einsum("kl,ijl->kij", np.linalg.inv(g), lowered)


def ref_christoffel_fd(field, x, step):
    return ref_christoffel(*ref_stencil_forms(field, x, step)[:2])


def ref_codazzi(field, x, step):
    g, dg, II, dII = ref_stencil_forms(field, x, step)
    gamma = ref_christoffel(g, dg)
    nabla = (dII - np.einsum("lij,lk->ijk", gamma, II)
             - np.einsum("lik,jl->ijk", gamma, II))
    return float(np.max(np.abs(nabla - nabla.transpose(1, 0, 2))))


def ref_gauss(field, x, step):
    n = field.n
    e = np.eye(n) * step
    g, dg, II, _ = ref_stencil_forms(field, x, step)
    gamma = ref_christoffel(g, dg)
    dgamma = np.empty((n, n, n, n))
    for m in range(n):
        dgamma[m] = (ref_christoffel_fd(field, x + e[m], step)
                     - ref_christoffel_fd(field, x - e[m], step)) / (2 * step)
    riem_up = (np.einsum("kmlj->mjkl", dgamma)
               - np.einsum("lmkj->mjkl", dgamma)
               + np.einsum("mka,alj->mjkl", gamma, gamma)
               - np.einsum("akj,mla->mjkl", gamma, gamma))
    riem = np.einsum("im,mjkl->ijkl", g, riem_up)
    rhs = (-(np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
           + np.einsum("ik,jl->ijkl", II, II) - np.einsum("il,jk->ijkl", II, II))
    return float(np.max(np.abs(riem - rhs)))


def assert_residuals_match_walk(field, X, step):
    codazzi, gauss = curvature.fd_residuals(field, X, step)
    assert codazzi.shape == gauss.shape == (len(X),)
    for i, x in enumerate(X):
        assert codazzi[i] == ref_codazzi(field, x, step), i
        assert gauss[i] == ref_gauss(field, x, step), i


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.sampled_from(CATALOG),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([1e-3, 1e-5]))
def test_fd_residuals_bitwise_equal_stencil_walk_on_catalog(n, surface, seed, step):
    field = make_catalog_surface(surface[0], surface[1], n)
    band = {"r_min": 0.5, "r_max": 1.8} if field.kind == "equidistant_cone" else {}
    X = field.sample_points(3, np.random.default_rng(seed), margin=0.05, **band)
    assert_residuals_match_walk(field, X, step)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("step", [1e-3, 1e-5])
def test_fd_residuals_bitwise_equal_stencil_walk_on_sampled_grid(order, step):
    cone = make_catalog_surface("equidistant_cone", {"slope": 1.3}, 3)
    sampled = SampledGridField.from_field(cone, np.full(3, 0.5), np.full(3, 1.5), 1.0 / 16,
                                          order)
    X = sampled.sample_points(4, np.random.default_rng(order), margin=0.01)
    assert_residuals_match_walk(sampled, X, step)


def test_fd_residuals_views_rows_and_step_sign():
    field = make_catalog_surface("geodesic_sphere_cap",
                                 {"center_height": 2.0, "euclidean_radius": 1.0}, 3)
    X = field.sample_points(4, np.random.default_rng(8), margin=0.05)
    codazzi, gauss = curvature.fd_residuals(field, X, 1e-3)
    for i, x in enumerate(X):
        row = curvature.fd_residuals(field, x[None], 1e-3)
        assert row[0][0] == codazzi[i] and row[1][0] == gauss[i]
    # the differences are symmetric: a negative step walks the same stencil
    flipped = curvature.fd_residuals(field, X, -1e-3)
    assert np.array_equal(flipped[0], codazzi) and np.array_equal(flipped[1], gauss)
    empty = curvature.fd_residuals(field, np.empty((0, 3)), 1e-3)
    assert [r.shape for r in empty] == [(0,), (0,)]


@pytest.mark.parametrize("step", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_fd_residuals_rejects_degenerate_step(step):
    field = make_catalog_surface("horosphere", {"c": 1.0}, 3)
    with pytest.raises(ParameterError, match="finite and nonzero"):
        curvature.fd_residuals(field, [[0.1, 0.2, 0.3]], step)


def test_fd_residuals_domain_error_names_first_stencil_point():
    field = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
    e = np.eye(3) * 1e-2
    inside, edge = np.array([1.0, 0.2, 0.1]), np.array([1.995, 0.1, 0.2])
    # edge + s e_1 is the first point of edge's stencil that leaves the box
    with pytest.raises(DomainError, match=re.escape(f"point {edge + e[0]} outside")):
        curvature.fd_residuals(field, [inside, edge], 1e-2)
    # near the apex ball (radius 1e-3) only the last centre x - s e_3 reaches into it,
    # through its own last stencil point (x - s e_3) - s e_3
    e = np.eye(3) * 1e-3
    x = np.array([0.0, 0.0, 2.8e-3])
    with pytest.raises(DomainError, match=re.escape(f"point {x - e[2] - e[2]} inside")):
        curvature.fd_residuals(field, [inside, x], 1e-3)
