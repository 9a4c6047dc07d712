"""Adapted-frame curvature inequalities and the convexity-regime classifier.

At a point with Df != 0 one rotates coordinates so e_1 points along Df.  In that frame
the mean curvature splits into two factors,

    A = f (1 + f_1^2)^-3/2 (f_11 + (1 + f_1^2) / f)
    B = f (1 + f_1^2)^-1/2 sum_{i>=2} (f_ii + 1 / f),

with A + B = H identically and A * B >= n - 1 exactly when the Ricci curvature in the
gradient direction is nonnegative.  Nonnegative Ricci then forces H >= n and makes the
height log f Euclidean n-subharmonic; the report's ``n_subharmonic_density`` is the
adapted-frame expression (n-1) (log f)_11 + sum_{i>=2} (log f)_ii, which equals
|D log f|^{2-n} Delta_n log f.

Production route: :func:`regime_reports` is the batched kernel over stacked jets, one
pass that builds q = 1 + |Df|^2, u = Df/|Df| (e_1, flagged as a critical point, where
|Df| <= GRADIENT_EPS) and tr D^2f once per point with the shape spectra, and reads
them again for A = f q^{-3/2} (u^T D^2f u + q/f), B = H - A in the same form, and the
density; it builds no fundamental form.  :func:`point_regime_report` is its view at
one point and :func:`convexity_classify` its regime step.  Scalar, independent oracles:
:func:`grad_direction_ricci` (the H1/H2 contraction) against
:func:`ricci_gradient_adapted`, and :func:`n_laplacian_expansion` against the density.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curvature import GRADIENT_EPS, ShapeSpectrum, Stacked, _kernel, _quadratic
from .errors import DegenerateGradientError
from .heightfield import HeightField, Jet2

__all__ = [
    "Regime", "RegimeReport", "grad_direction_ricci", "ricci_gradient_adapted",
    "n_laplacian_expansion", "convexity_classify", "point_regime_report",
    "regime_reports", "ScanTable", "scan_field",
]

#: absolute tolerance for inequality assertions on O(1) quantities
INEQ_TOL = 1e-9


def grad_direction_ricci(jet: Jet2) -> float:
    """Ricci curvature in the normalized induced-metric gradient direction of f.

    Evaluates the H1/H2 contraction formula; raises DegenerateGradientError at
    critical points where the direction is undefined.
    """
    f, df, hess = jet.f, jet.grad, jet.hess
    n = jet.n
    d2 = float(df @ df)
    if d2 <= GRADIENT_EPS ** 2:
        raise DegenerateGradientError("gradient direction undefined where Df = 0")
    q = 1.0 + d2
    lap = float(np.trace(hess))
    h1 = float(df @ hess @ df)
    hdf = hess @ df
    h2 = float(hdf @ hdf)
    return (-(n - 1) * d2 / q
            + f / (d2 * q ** 2) * ((n - 2) * h1 + lap * d2 * q + f * h1 * lap
                                   - h1 * d2 - f * h2))


def ricci_gradient_adapted(jet: Jet2) -> float:
    """Adapted-coordinate simplification of the gradient-direction Ricci curvature.

    The coordinates are turned by the Householder-style reflection sending the unit
    gradient u to e_1.
    """
    n = jet.n
    norm = np.sqrt(jet.grad @ jet.grad)
    if norm <= GRADIENT_EPS:
        raise DegenerateGradientError("gradient direction undefined where Df = 0")
    v = jet.grad / norm - np.eye(n)[0]
    vv = float(v @ v)
    rot = np.eye(n) if vv < 1e-30 else np.eye(n) - 2.0 * np.outer(v, v) / vv
    grad, hess = rot @ jet.grad, rot @ jet.hess @ rot.T
    f = jet.f
    f1 = grad[0]
    q = 1.0 + f1 ** 2
    a_raw = q / f + hess[0, 0]
    b_raw = float(np.sum(np.diag(hess)[1:])) + (n - 1) / f
    cross = float(np.sum(hess[0, 1:] ** 2))
    return (f ** 2 / q ** 2) * a_raw * b_raw - (n - 1) - (f ** 2 / q ** 2) * cross


def n_laplacian_expansion(jet: Jet2) -> float:
    """Independent expansion (n-2)|Du|^-2 u_ij u_i u_j + Delta u for u = log f."""
    n = jet.n
    f = jet.f
    u_grad = jet.grad / f
    u_hess = jet.hess / f - np.outer(jet.grad, jet.grad) / f ** 2
    d2 = float(u_grad @ u_grad)
    if d2 <= GRADIENT_EPS ** 2:
        raise DegenerateGradientError("expansion undefined where D log f = 0")
    return (n - 2) / d2 * float(u_grad @ u_hess @ u_grad) + float(np.trace(u_hess))


class Regime(Enum):
    """Pointwise convexity regimes, weakest to strongest."""

    NOT_CONVEX = "NotConvex"
    STRICTLY_CONVEX = "StrictlyConvex"
    NONNEG_RICCI = "NonnegRicci"
    NONNEG_SECTIONAL = "NonnegSectional"
    HOROCONVEX = "Horoconvex"


#: the regimes by level, weakest first, for one lookup per classification
_REGIMES = np.array(list(Regime), dtype=object)


@dataclass(frozen=True)
class RegimeReport(Stacked):
    """Classifier output for one point, or stacked over points."""

    regime: Regime
    min_ricci_eig: float
    mean: float
    factors: tuple = None               # (A, B) when computed
    n_subharmonic_density: float = None
    at_critical_point: bool = False
    spectrum: ShapeSpectrum = None      # the point's spectrum when computed


def convexity_classify(kappas, ric_eigs, n: int, tol: float = INEQ_TOL) -> RegimeReport:
    """Strongest convexity regime whose defining condition holds at tolerance.

    Takes one spectrum or a stack (P, n) of them.  Conditions are checked from weakest
    to strongest, so the report can never claim a stronger regime while a weaker one
    fails.
    """
    kappas = np.asarray(kappas, dtype=float)
    H = kappas.sum(axis=-1)
    prods = (kappas[..., :, None] * kappas[..., None, :])[..., ~np.eye(n, dtype=bool)]
    holds = [np.all(kappas > -tol, axis=-1),
             np.all(kappas * H[..., None] - (n - 1) - kappas ** 2 >= -tol, axis=-1),
             np.all(prods >= 1 - tol, axis=-1),
             np.all(kappas >= 1 - tol, axis=-1)]
    level = np.logical_and.accumulate(holds).sum(axis=0)
    return RegimeReport(_REGIMES[level], np.min(np.asarray(ric_eigs, dtype=float), axis=-1), H)


def regime_reports(f, df, hess, tol: float = INEQ_TOL) -> RegimeReport:
    """The batched kernel: reports of stacked jets, each field over a leading point axis."""
    n = df.shape[1]
    spec, q, u, degenerate, trace = _kernel(f, df, hess)
    base = convexity_classify(spec.kappas, spec.ricci, n, tol)
    huu = _quadratic(u, hess)
    factors = (f * q ** -1.5 * (huu + q / f), f * q ** -0.5 * (trace - huu + (n - 1) / f))
    # the density along u, Delta log f where the gradient is degenerate
    f3 = f[:, None, None]
    log_hess = (hess - df[:, :, None] * df[:, None, :] / f3) / f3
    lap = np.trace(log_hess, axis1=1, axis2=2)
    density = np.where(degenerate, lap, (n - 2) * _quadratic(u, log_hess) + lap)
    return RegimeReport(base.regime, base.min_ricci_eig, spec.mean, factors, density,
                        degenerate, spec)


def point_regime_report(jet: Jet2, tol: float = INEQ_TOL) -> RegimeReport:
    """Full per-point report: regime, Ricci floor, factors, density and spectrum."""
    return regime_reports(*jet.stacked(), tol).point(0)


@dataclass(frozen=True)
class ScanTable:
    """A scan's columns: the float block (P, m) and each point's regime name (P,)."""

    values: np.ndarray
    regimes: np.ndarray

    def __len__(self):
        return len(self.values)


def scan_field(field: HeightField, points) -> ScanTable:
    """Per-point scan columns for CSV output, from one kernel call over all points.

    Float columns: x_1..x_n, f, H, kappa_1..kappa_n, min_ric_eig, A, B,
    AB_minus_(n-1), density; the regime name goes after them.
    """
    X = np.asarray(points, dtype=float).reshape(-1, field.n)
    f, df, hess = field.jet_array(X)
    rep = regime_reports(f, df, hess)
    A, B = rep.factors
    values = np.column_stack([X, f, rep.mean, rep.spectrum.kappas, rep.min_ricci_eig, A, B,
                              A * B - (field.n - 1), rep.n_subharmonic_density])
    # each regime's name is read once, not through the Enum property on every row
    names = np.empty(len(X), dtype=object)
    for regime in Regime:
        names[rep.regime == regime] = regime.value
    return ScanTable(values, names)
