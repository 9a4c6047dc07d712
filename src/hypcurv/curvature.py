"""First and second fundamental forms, shape spectrum, and Ricci curvature.

For the graph x_{n+1} = f(x) in the upper half-space the induced metric, inverse,
upward unit normal and second fundamental form are

    g_ij    = f^-2 (delta_ij + f_i f_j)
    g^ij    = f^2 (delta^ij - f_i f_j / (1 + |Df|^2))
    nu      = f (1 + |Df|^2)^-1/2 (-Df, 1)
    II_ij   = (delta_ij + f_i f_j + f f_ij) / (f^2 (1 + |Df|^2)^1/2)

Production route: :func:`shape_spectra` is the one batched kernel, a single pass over
P stacked jets that builds q = 1 + |Df|^2, sqrt(q), u = Df/|Df| with its critical-point
flag, tr D2f and II once per point, whitens the pencil (II, g) with the closed-form
g^{-1/2} = f (I + (1/sqrt(q) - 1) u u^T), solves all P symmetric eigenproblems for their
eigenvalues with one ``np.linalg.eigvalsh``, cross-checks every trace against the
closed-form mean curvature, and returns the Ricci eigenvalues -(n-1) + kappa_i H -
kappa_i^2, exact because the Ricci operator is that polynomial in the shape operator.
``inequalities.regime_reports`` reads q, u and tr D2f of the pass again.  Metric,
inverse and normal are built only where read, by :func:`fundamental_forms`.

Oracles, independent of the kernel: the expanded coordinate double contraction
(:func:`ricci_coordinate`) and the shape-operator polynomial lowered with g
(:func:`ricci_from_shape`, which builds the shape operator g^-1 II itself), both
scalar; their agreement is the implementation oracle.
:func:`fd_residuals` checks the metric and II against each other through Codazzi and
Gauss residuals built from central differences of both, for P points at once: one
stencil batch per call (one ``jet_array`` call, one forms build, one batched inverse
for the Christoffels at every centre); one point is the batch ``X[None]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, ParameterError
from .heightfield import HeightField, Jet2, _row_dot

__all__ = [
    "FundamentalForms", "ShapeSpectrum", "fundamental_forms", "shape_spectra",
    "ricci_coordinate", "ricci_from_shape", "fd_residuals", "commutation_residual",
    "cluster_kappas",
]

#: relative gap below which two principal curvatures belong to one multiplicity cluster
KAPPA_CLUSTER_RTOL = 1e-6
#: relative tolerance for the trace-vs-closed-form mean curvature cross-check
MEAN_XCHECK_RTOL = 1e-10
#: |Df| at or below this is treated as a critical point of f
GRADIENT_EPS = 1e-14


class Stacked:
    """A per-point record, or one whose fields carry a leading axis over stacked points,
    as the batched kernels return; :meth:`point` reads the record of one point."""

    def point(self, i: int):
        return type(self)(*(_point(getattr(self, k.name), i) for k in fields(self)))


def _point(value, i):
    if isinstance(value, Stacked):
        return value.point(i)
    if isinstance(value, tuple):
        return tuple(_point(v, i) for v in value)
    item = value[i]
    return item.item() if isinstance(item, np.generic) else item


@dataclass(frozen=True)
class FundamentalForms(Stacked):
    """Induced metric data at one jet, or stacked over points."""

    metric: np.ndarray
    metric_inv: np.ndarray
    grad_norm_sq: float
    normal: np.ndarray


@dataclass(frozen=True)
class ShapeSpectrum(Stacked):
    """Second form, curvatures and Ricci at a point, or stacked."""

    second_form: np.ndarray
    kappas: np.ndarray     # ascending principal curvatures
    mean: float            # trace of the shape operator, sum of kappas
    mean_closed: float     # closed-form mean curvature
    ricci: np.ndarray      # ascending Ricci eigenvalues


def fundamental_forms(f, df, hess) -> FundamentalForms:
    """Metric, inverse, |Df|^2 and upward normal of stacked jets f (P,), Df (P, n),
    D2f (P, n, n); the forms do not read D2f, which is taken so a jet passes whole."""
    d2 = _row_dot(df, df)
    q = 1.0 + d2
    eye = np.eye(df.shape[1])
    ddt = df[:, :, None] * df[:, None, :]
    f2 = f[:, None, None] ** 2
    normal = np.concatenate([-df, np.ones((len(f), 1))], axis=1) * (f / np.sqrt(q))[:, None]
    return FundamentalForms((eye + ddt) / f2, f2 * (eye - ddt / q[:, None, None]), d2,
                            normal)


def _second_form(f, df, hess, root_q):
    """II of stacked jets, given root_q = sqrt(1 + |Df|^2) (P,)."""
    ddt = df[:, :, None] * df[:, None, :]
    return (np.eye(df.shape[1]) + ddt + f[:, None, None] * hess) / (
        f[:, None, None] ** 2 * root_q[:, None, None])


def _quadratic(v, M):
    """v^T M v over any leading point axes, rounded as ``v @ M @ v`` at one point."""
    return _row_dot((v[..., None, :] @ M)[..., 0, :], v)


def _kernel(f, df, hess):
    """:func:`shape_spectra`, and the terms of its pass that ``regime_reports`` reads
    again: q = 1 + |Df|^2, u = Df/|Df| (e_1, flagged, where |Df| <= GRADIENT_EPS) and
    tr D2f."""
    n = df.shape[1]
    d2 = _row_dot(df, df)
    q = 1.0 + d2
    root_q = np.sqrt(q)
    norm = np.sqrt(d2)
    degenerate = norm <= GRADIENT_EPS
    u = df / np.where(degenerate, 1.0, norm)[:, None]
    u[degenerate] = np.eye(n)[0]
    trace = np.trace(hess, axis1=1, axis2=2)
    II = _second_form(f, df, hess, root_q)
    white = f[:, None, None] * (np.eye(n) + (1.0 / root_q - 1.0)[:, None, None]
                                * u[:, :, None] * u[:, None, :])
    try:
        kappas = np.linalg.eigvalsh(white @ II @ white)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"batched eigensolve failed: {exc}") from exc
    mean = kappas.sum(axis=1)
    mean_cf = (n + f * trace - f * _quadratic(df, hess) / q) / root_q
    bad = ~(np.abs(mean - mean_cf) <= MEAN_XCHECK_RTOL * np.maximum(1.0, np.abs(mean_cf)))
    if bad.any():
        i = np.argmax(bad)
        raise NumericError(f"mean curvature cross-check failed at point {i}: "
                           f"trace {mean[i]} vs closed form {mean_cf[i]}")
    ricci = np.sort(-(n - 1) + kappas * mean[:, None] - kappas ** 2, axis=1)
    return ShapeSpectrum(II, kappas, mean, mean_cf, ricci), q, u, degenerate, trace


def shape_spectra(f, df, hess) -> ShapeSpectrum:
    """The batched kernel: shape spectra of stacked jets f (P,), Df (P, n), D2f (P, n, n),
    with ascending curvatures and Ricci eigenvalues (see the module docstring).  A trace
    off the closed-form mean curvature signals corrupted inputs (NumericError names the
    first such point)."""
    return _kernel(f, df, hess)[0]


def ricci_coordinate(jet: Jet2, forms: FundamentalForms) -> np.ndarray:
    """Ricci tensor from the expanded coordinate double contraction.

    Both subtraction branches of the contraction are kept as displayed; no symmetry
    shortcut is taken.
    """
    f, df, hess = jet.f, jet.grad, jet.hess
    n = jet.n
    q = 1.0 + float(df @ df)
    eye = np.eye(n)
    B = eye + np.outer(df, df) + f * hess
    h1 = float(df @ hess @ df)
    hdf = hess @ df
    scalar = n + f * float(np.trace(hess)) - f * h1 / q
    inner = eye + f * hess - (f / q) * np.outer(df, hdf)
    return -(n - 1) * forms.metric + (B * scalar - B @ inner) / (f ** 2 * q)


def ricci_from_shape(spec: ShapeSpectrum, forms: FundamentalForms) -> np.ndarray:
    """Ricci via the Gauss-equation polynomial in S = g^-1 II, lowered with g."""
    S = forms.metric_inv @ spec.second_form
    n = S.shape[0]
    ric_op = -(n - 1) * np.eye(n) + spec.mean * S - S @ S
    return forms.metric @ ric_op


def commutation_residual(ric: np.ndarray, metric: np.ndarray, shape: np.ndarray,
                         eps: float = 1e-30) -> float:
    """Normalized Frobenius commutator of the Ricci operator with the shape operator."""
    ric_op = np.linalg.solve(metric, ric)
    comm = ric_op @ shape - shape @ ric_op
    denom = np.linalg.norm(ric_op) * np.linalg.norm(shape) + eps
    return float(np.linalg.norm(comm) / denom)


def _cluster_labels(kappas, rtol: float = KAPPA_CLUSTER_RTOL) -> np.ndarray:
    """Multiplicity-cluster label of each curvature in ascending rows (..., n).

    A curvature joins the current cluster when it is within rtol * max(1, max|kappa|)
    of the cluster's first member, else it starts the next; labels count from 0.
    """
    kappas = np.asarray(kappas, dtype=float)
    tol = rtol * np.fmax(1.0, np.max(np.abs(kappas), axis=-1))
    labels = np.zeros(kappas.shape, dtype=int)
    leader = kappas[..., 0]
    for i in range(1, kappas.shape[-1]):
        new = ~(kappas[..., i] - leader <= tol)
        labels[..., i] = labels[..., i - 1] + new
        leader = np.where(new, kappas[..., i], leader)
    return labels


def cluster_kappas(kappas, rtol: float = KAPPA_CLUSTER_RTOL):
    """Group an ascending curvature list into multiplicity clusters by relative gap."""
    labels = _cluster_labels(kappas, rtol)
    return [np.flatnonzero(labels == c) for c in range(labels[-1] + 1)]


# -- finite-difference residuals -------------------------------------------------------

def _christoffel(g, dg) -> np.ndarray:
    """Gamma^k_ij from metrics g (..., n, n) and derivatives dg[..., i, j, l] = d_i g_jl."""
    # lowered symbol: [ij, l] = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    lowered = 0.5 * (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1))
    return np.einsum("...kl,...ijl->...kij", np.linalg.inv(g), lowered)


def fd_residuals(field: HeightField, X, step: float):
    """Codazzi and Gauss residuals (P,) at stacked points X (P, n), from one stencil batch.

    Each point x has 2n+1 centres {x, x + s e_m, x - s e_m}, each centre c its own
    stencil {c, c + s e_i, c - s e_i}, and all P (2n+1)^2 points go through one
    ``jet_array`` call, whose DomainError names the first in that order.  Points are
    not merged: (x + s e_m) - s e_m need not round to x.  Codazzi is the max of
    |(nabla_i II)_jk - (nabla_j II)_ik| at x, with FD Christoffels of the metric;
    Gauss is the max deviation of the Riemann tensor, from Christoffels differenced
    across centres, from the Gauss-equation right-hand side.  Both vanish in exact
    arithmetic.  ParameterError unless ``step`` is finite and nonzero.
    """
    step = float(step)
    if not (math.isfinite(step) and step != 0.0):
        raise ParameterError(f"finite-difference step must be finite and nonzero, "
                             f"got {step!r}")
    X = np.asarray(X, dtype=float)
    n = field.n
    e = np.eye(n) * step

    def star(Y):  # (..., n) -> (..., 2n+1, n): Y, then Y + s e_i, then Y - s e_i
        Y = Y[..., None, :]
        return np.concatenate([Y, Y + e, Y - e], axis=-2)

    stencil = star(star(X))  # (P, centre, 2n+1, n)
    f, df, hess = field.jet_array(stencil.reshape(-1, n))
    forms = fundamental_forms(f, df, hess)
    II = _second_form(f, df, hess, np.sqrt(1.0 + forms.grad_norm_sq))
    shape = stencil.shape[:3] + (n, n)
    g, II = forms.metric.reshape(shape), II.reshape(shape)

    def centred(T):  # (..., 2n+1, n, n) -> values at the centre and d_i T
        return T[..., 0, :, :], (T[..., 1:n + 1, :, :] - T[..., n + 1:, :, :]) / (2 * step)

    g, dg = centred(g)
    gamma = _christoffel(g, dg)  # (P, centre, k, i, j)
    g, gamma0 = g[:, 0], gamma[:, 0]
    II, dII = centred(II[:, 0])

    nabla = (dII - np.einsum("...lij,...lk->...ijk", gamma0, II)
             - np.einsum("...lik,...jl->...ijk", gamma0, II))
    codazzi = np.max(np.abs(nabla - np.swapaxes(nabla, 1, 2)), axis=(1, 2, 3))

    dgamma = (gamma[:, 1:n + 1] - gamma[:, n + 1:]) / (2 * step)  # [p, m, k, i, j]
    # R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj + Gamma^m_ka Gamma^a_lj - Gamma^a_kj Gamma^m_la
    riem_up = (np.einsum("...kmlj->...mjkl", dgamma)
               - np.einsum("...lmkj->...mjkl", dgamma)
               + np.einsum("...mka,...alj->...mjkl", gamma0, gamma0)
               - np.einsum("...akj,...mla->...mjkl", gamma0, gamma0))
    riem = np.einsum("...im,...mjkl->...ijkl", g, riem_up)
    rhs = (-(np.einsum("...ik,...jl->...ijkl", g, g)
             - np.einsum("...il,...jk->...ijkl", g, g))
           + np.einsum("...ik,...jl->...ijkl", II, II)
           - np.einsum("...il,...jk->...ijkl", II, II))
    gauss = np.max(np.abs(riem - rhs), axis=(1, 2, 3, 4))
    return codazzi, gauss
