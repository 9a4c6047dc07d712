"""First and second fundamental forms, shape spectrum, and Ricci curvature.

For the graph x_{n+1} = f(x) in the upper half-space the induced metric, inverse,
upward unit normal and second fundamental form are

    g_ij    = f^-2 (delta_ij + f_i f_j)
    g^ij    = f^2 (delta^ij - f_i f_j / (1 + |Df|^2))
    nu      = f (1 + |Df|^2)^-1/2 (-Df, 1)
    II_ij   = (delta_ij + f_i f_j + f f_ij) / (f^2 (1 + |Df|^2)^1/2)

Production route: :func:`shape_spectrum` is the one per-point kernel.  It builds the
forms, solves the pencil (II, g) for the principal curvatures, cross-checks their sum
against the closed-form mean curvature, and returns the Ricci eigenvalues
-(n-1) + kappa_i H - kappa_i^2, exact because the Ricci operator is that polynomial
in the shape operator.  Every per-point caller reads from the spectrum it returns.

Oracle routes, kept independent of the kernel: the expanded coordinate double
contraction (:func:`ricci_coordinate`, with :func:`ricci_eigenvalues`) and the
shape-operator polynomial lowered with g (:func:`ricci_from_shape`); their agreement
is the implementation oracle.  Codazzi and Gauss residuals check the same data against
finite-differenced covariant derivatives of the induced metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericError
from .heightfield import HeightField, Jet2

__all__ = [
    "FundamentalForms", "ShapeSpectrum", "fundamental_forms", "shape_spectrum",
    "mean_curvature", "ricci_coordinate", "ricci_from_shape", "ricci_eigenvalues",
    "christoffel_fd", "codazzi_residual", "gauss_residual", "commutation_residual",
    "cluster_kappas",
]

#: relative gap below which two principal curvatures belong to one multiplicity cluster
KAPPA_CLUSTER_RTOL = 1e-6
#: relative tolerance for the trace-vs-closed-form mean curvature cross-check
MEAN_XCHECK_RTOL = 1e-10


@dataclass(frozen=True)
class FundamentalForms:
    """Induced metric data at one jet."""

    metric: np.ndarray
    metric_inv: np.ndarray
    grad_norm_sq: float
    normal: np.ndarray


@dataclass(frozen=True)
class ShapeSpectrum:
    """Per-point geometry: forms, second form, shape operator, curvatures and Ricci."""

    forms: FundamentalForms
    second_form: np.ndarray
    shape: np.ndarray
    kappas: np.ndarray
    mean: float            # trace of the shape operator, sum of kappas
    mean_closed: float     # closed-form mean curvature (:func:`mean_curvature`)
    frame: np.ndarray      # columns are g-orthonormal principal directions
    ricci: np.ndarray      # ascending Ricci eigenvalues


def fundamental_forms(jet: Jet2) -> FundamentalForms:
    f, df = jet.f, jet.grad
    n = jet.n
    q = 1.0 + float(df @ df)
    eye = np.eye(n)
    g = (eye + np.outer(df, df)) / f ** 2
    g_inv = f ** 2 * (eye - np.outer(df, df) / q)
    normal = np.concatenate([-df, [1.0]]) * (f / math.sqrt(q))
    return FundamentalForms(g, g_inv, q - 1.0, normal)


def second_form(jet: Jet2) -> np.ndarray:
    f, df, hess = jet.f, jet.grad, jet.hess
    q = 1.0 + float(df @ df)
    return (np.eye(jet.n) + np.outer(df, df) + f * hess) / (f ** 2 * math.sqrt(q))


def mean_curvature(jet: Jet2) -> float:
    """Closed-form trace of the shape operator."""
    f, df, hess = jet.f, jet.grad, jet.hess
    q = 1.0 + float(df @ df)
    h1 = float(df @ hess @ df)
    return (jet.n + f * float(np.trace(hess)) - f * h1 / q) / math.sqrt(q)


def shape_spectrum(jet: Jet2) -> ShapeSpectrum:
    """Principal curvatures via the Cholesky-whitened symmetric pencil (II, g).

    scipy's generalized symmetric solver guarantees a real ascending spectrum and a
    g-orthonormal frame; the trace is cross-checked against the closed-form mean
    curvature, and a mismatch signals corrupted inputs.  The Ricci eigenvalues are
    the Gauss-equation polynomial -(n-1) + kappa_i H - kappa_i^2, sorted.
    """
    forms = fundamental_forms(jet)
    II = second_form(jet)
    try:
        kappas, frame = scipy.linalg.eigh(II, forms.metric)
    except scipy.linalg.LinAlgError as exc:  # g is PD by construction
        raise NumericError(f"generalized eigensolve failed: {exc}") from exc
    shape = forms.metric_inv @ II
    mean = float(np.sum(kappas))
    mean_cf = mean_curvature(jet)
    if abs(mean - mean_cf) > MEAN_XCHECK_RTOL * max(1.0, abs(mean_cf)):
        raise NumericError(
            f"mean curvature cross-check failed: trace {mean} vs closed form {mean_cf}")
    ricci = np.sort(-(jet.n - 1) + kappas * mean - kappas ** 2)
    return ShapeSpectrum(forms, II, shape, kappas, mean, mean_cf, frame, ricci)


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


def ricci_from_shape(spec: ShapeSpectrum) -> np.ndarray:
    """Ricci via the Gauss-equation polynomial in the shape operator, lowered with g."""
    S = spec.shape
    n = S.shape[0]
    ric_op = -(n - 1) * np.eye(n) + spec.mean * S - S @ S
    return spec.forms.metric @ ric_op


def ricci_eigenvalues(ric: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Ricci operator (the pencil (Ric, g))."""
    return scipy.linalg.eigh(ric, metric, eigvals_only=True)


def commutation_residual(ric: np.ndarray, metric: np.ndarray, shape: np.ndarray,
                         eps: float = 1e-30) -> float:
    """Normalized Frobenius commutator of the Ricci operator with the shape operator."""
    ric_op = np.linalg.solve(metric, ric)
    comm = ric_op @ shape - shape @ ric_op
    denom = np.linalg.norm(ric_op) * np.linalg.norm(shape) + eps
    return float(np.linalg.norm(comm) / denom)


def cluster_kappas(kappas, rtol: float = KAPPA_CLUSTER_RTOL):
    """Group an ascending curvature list into multiplicity clusters by relative gap."""
    kappas = np.asarray(kappas, dtype=float)
    scale = max(1.0, float(np.max(np.abs(kappas))))
    groups = [[0]]
    for i in range(1, kappas.size):
        if kappas[i] - kappas[groups[-1][0]] <= rtol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g, dtype=int) for g in groups]


# -- finite-difference residuals -------------------------------------------------------

def _metric_at(field: HeightField, x) -> np.ndarray:
    return fundamental_forms(field.jet(x)).metric


def _second_form_at(field: HeightField, x) -> np.ndarray:
    return second_form(field.jet(x))


def _central_tensor_derivs(fn, field, x, step):
    """d(T)/dx_i for a matrix-valued map by central differences; returns (n, n, n)."""
    n = field.n
    out = np.empty((n, n, n))
    e = np.eye(n) * step
    for i in range(n):
        out[i] = (fn(field, x + e[i]) - fn(field, x - e[i])) / (2 * step)
    return out


def christoffel_fd(field: HeightField, x, step: float) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of the induced metric, metric derivative by FD."""
    x = np.asarray(x, dtype=float)
    g = _metric_at(field, x)
    dg = _central_tensor_derivs(_metric_at, field, x, step)  # dg[i, j, l] = d_i g_jl
    g_inv = np.linalg.inv(g)
    # lowered symbol: [ij, l] = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    lowered = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    return np.einsum("kl,ijl->kij", g_inv, lowered)


def codazzi_residual(field: HeightField, x, step: float) -> float:
    """Asymmetry of the covariant derivative of II (zero in exact arithmetic).

    Covariant derivatives use FD Christoffels of the induced metric; the result is the
    max over index triples of |(nabla_i II)_jk - (nabla_j II)_ik|.
    """
    x = np.asarray(x, dtype=float)
    gamma = christoffel_fd(field, x, step)
    II = _second_form_at(field, x)
    dII = _central_tensor_derivs(_second_form_at, field, x, step)  # dII[i, j, k]
    nabla = (dII - np.einsum("lij,lk->ijk", gamma, II)
             - np.einsum("lik,jl->ijk", gamma, II))
    return float(np.max(np.abs(nabla - nabla.transpose(1, 0, 2))))


def gauss_residual(field: HeightField, x, step: float) -> float:
    """Max deviation of the intrinsic FD Riemann tensor from the Gauss-equation RHS."""
    x = np.asarray(x, dtype=float)
    n = field.n
    e = np.eye(n) * step
    gamma = christoffel_fd(field, x, step)
    dgamma = np.empty((n, n, n, n))  # dgamma[m, k, i, j] = d_m Gamma^k_ij
    for m in range(n):
        dgamma[m] = (christoffel_fd(field, x + e[m], step)
                     - christoffel_fd(field, x - e[m], step)) / (2 * step)
    # R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj + Gamma^m_ka Gamma^a_lj - Gamma^a_kj Gamma^m_la
    riem_up = (np.einsum("kmlj->mjkl", dgamma)
               - np.einsum("lmkj->mjkl", dgamma)
               + np.einsum("mka,alj->mjkl", gamma, gamma)
               - np.einsum("akj,mla->mjkl", gamma, gamma))
    g = _metric_at(field, x)
    riem = np.einsum("im,mjkl->ijkl", g, riem_up)
    II = _second_form_at(field, x)
    rhs = (-(np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
           + np.einsum("ik,jl->ijkl", II, II) - np.einsum("il,jk->ijkl", II, II))
    return float(np.max(np.abs(riem - rhs)))
