"""Adapted-frame curvature inequalities and the convexity-regime classifier.

At a point with Df != 0 one rotates coordinates so e_1 points along Df.  In that frame
the mean curvature splits into two factors,

    A = f (1 + f_1^2)^-3/2 (f_11 + (1 + f_1^2) / f)
    B = f (1 + f_1^2)^-1/2 sum_{i>=2} (f_ii + 1 / f),

with A + B = H identically and A * B >= n - 1 exactly when the Ricci curvature in the
gradient direction is nonnegative.  Nonnegative Ricci then forces H >= n and makes the
height log f Euclidean n-subharmonic; the density returned by
:func:`n_subharmonic_density` is the adapted-frame expression
(n-1) (log f)_11 + sum_{i>=2} (log f)_ii, which equals |D log f|^{2-n} Delta_n log f.

Production route: :func:`point_regime_report` builds one shape spectrum and one
adapted frame per point; :func:`key_factors` and :func:`n_subharmonic_density` both
read that frame, and the report carries the spectrum for every per-point caller.
Oracle routes, kept independent: :func:`grad_direction_ricci` (the H1/H2 contraction)
against :func:`ricci_gradient_adapted`, and :func:`n_laplacian_expansion` against the
adapted-frame density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curvature import ShapeSpectrum, shape_spectrum
from .errors import DegenerateGradientError
from .heightfield import HeightField, Jet2

__all__ = [
    "AdaptedJet", "Regime", "RegimeReport", "KeyFactors", "DensityResult",
    "MeanBoundReport", "adapted_frame", "grad_direction_ricci",
    "ricci_gradient_adapted", "key_factors", "mean_bound_check",
    "n_subharmonic_density", "n_laplacian_expansion", "convexity_classify",
    "point_regime_report", "scan_field",
]

#: |Df| at or below this is treated as a critical point of f
GRADIENT_EPS = 1e-14
#: absolute tolerance for inequality assertions on O(1) quantities
INEQ_TOL = 1e-9


@dataclass(frozen=True)
class AdaptedJet:
    """Jet rotated so the first axis is the gradient direction."""

    jet: Jet2
    rotation: np.ndarray
    grad: np.ndarray  # rotated gradient, (|Df|, 0, ..., 0)
    hess: np.ndarray  # rotated Hessian
    degenerate: bool


def adapted_frame(jet: Jet2) -> AdaptedJet:
    """Householder-style rotation sending Df/|Df| to e_1.

    With |Df| <= GRADIENT_EPS the rotation is the identity and the jet is flagged
    degenerate.
    """
    n = jet.n
    norm = math.sqrt(jet.grad_norm_sq)
    if norm <= GRADIENT_EPS:
        return AdaptedJet(jet, np.eye(n), jet.grad.copy(), jet.hess.copy(), True)
    u = jet.grad / norm
    v = u - np.eye(n)[0]
    vv = float(v @ v)
    if vv < 1e-30:
        rot = np.eye(n)
    else:
        rot = np.eye(n) - 2.0 * np.outer(v, v) / vv
    grad_r = rot @ jet.grad
    hess_r = rot @ jet.hess @ rot.T
    return AdaptedJet(jet, rot, grad_r, hess_r, False)


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
    """Adapted-coordinate simplification of the gradient-direction Ricci curvature."""
    aj = adapted_frame(jet)
    if aj.degenerate:
        raise DegenerateGradientError("gradient direction undefined where Df = 0")
    n = jet.n
    f = jet.f
    f1 = aj.grad[0]
    q = 1.0 + f1 ** 2
    a_raw = q / f + aj.hess[0, 0]
    b_raw = float(np.sum(np.diag(aj.hess)[1:])) + (n - 1) / f
    cross = float(np.sum(aj.hess[0, 1:] ** 2))
    return (f ** 2 / q ** 2) * a_raw * b_raw - (n - 1) - (f ** 2 / q ** 2) * cross


@dataclass(frozen=True)
class KeyFactors:
    """The two mean-curvature factors and the associated inequality checks."""

    A: float
    B: float
    product_ok: bool       # A * B >= n - 1 - tol
    sum_check: float       # |A + B - H|
    sqrt_form_applicable: bool
    sqrt_form_ok: bool     # sqrt((n-1) A') sqrt(B') >= (n-1)(1+f_1^2)/f when applicable


def key_factors(aj: AdaptedJet, mean: float, tol: float = INEQ_TOL) -> KeyFactors:
    """Split H into the gradient-direction factor A and the transverse factor B.

    ``mean`` is the closed-form mean curvature that A + B is checked against.  At
    critical points the adapted frame degenerates to the identity, where A and B are
    still well defined because f_1 = 0.
    """
    n = aj.jet.n
    f = aj.jet.f
    f1 = aj.grad[0]
    q = 1.0 + f1 ** 2
    a_raw = aj.hess[0, 0] + q / f
    b_raw = float(np.sum(np.diag(aj.hess)[1:])) + (n - 1) / f
    A = f * q ** -1.5 * a_raw
    B = f * q ** -0.5 * b_raw
    product_ok = A * B >= (n - 1) - tol
    applicable = a_raw >= 0 and b_raw >= 0
    if applicable:
        sqrt_ok = math.sqrt((n - 1) * a_raw) * math.sqrt(b_raw) >= (n - 1) * q / f - tol
    else:
        sqrt_ok = False
    return KeyFactors(A, B, product_ok, abs(A + B - mean), applicable, sqrt_ok)


@dataclass(frozen=True)
class MeanBoundReport:
    """Outcome of the H >= n check under nonnegative Ricci."""

    ok: bool
    mean: float
    n: int
    ric_min: float
    applicable: bool               # ric_min >= -tol, so the bound is asserted
    direction_slack: np.ndarray    # kappa_i H - (n - 1 + kappa_i^2) per direction
    counterexample: dict = None


def mean_bound_check(spec: ShapeSpectrum, ric_min: float, n: int,
                     tol: float = INEQ_TOL) -> MeanBoundReport:
    """Check H >= n and the per-direction inequality kappa_i H >= n - 1 + kappa_i^2."""
    H = spec.mean
    slack = spec.kappas * H - (n - 1) - spec.kappas ** 2
    applicable = ric_min >= -tol
    ok = True
    counter = None
    if applicable:
        ok = H >= n - tol and bool(np.all(slack >= -tol))
        if not ok:
            counter = {"kappas": spec.kappas.tolist(), "H": H, "ric_min": ric_min}
    return MeanBoundReport(ok, H, n, ric_min, applicable, slack, counter)


@dataclass(frozen=True)
class DensityResult:
    """n-subharmonicity density of the height function at one jet."""

    density: float
    weak_value: float      # |D log f|^(n-2) * density
    at_critical_point: bool


def n_subharmonic_density(aj: AdaptedJet) -> DensityResult:
    """Adapted-frame density (n-1)(log f)_11 + sum_{i>=2} (log f)_ii.

    At critical points of f the gradient direction is undefined and the density is
    taken to be Delta log f, flagged accordingly.
    """
    jet = aj.jet
    n = jet.n
    f = jet.f
    u_grad = jet.grad / f
    u_hess = jet.hess / f - np.outer(jet.grad, jet.grad) / f ** 2
    norm = float(np.linalg.norm(u_grad))
    if aj.degenerate:
        lap = float(np.trace(u_hess))
        return DensityResult(lap, 0.0 if n > 2 else lap, True)
    u_hess_r = aj.rotation @ u_hess @ aj.rotation.T
    density = (n - 1) * u_hess_r[0, 0] + float(np.sum(np.diag(u_hess_r)[1:]))
    return DensityResult(density, norm ** (n - 2) * density, False)


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


@dataclass(frozen=True)
class RegimeReport:
    """Classifier output for one point."""

    regime: Regime
    min_ricci_eig: float
    mean: float
    factors: tuple = None               # (A, B) when computed
    n_subharmonic_density: float = None
    at_critical_point: bool = False
    spectrum: ShapeSpectrum = None      # the point's spectrum when computed


def convexity_classify(kappas, ric_eigs, n: int, tol: float = INEQ_TOL) -> RegimeReport:
    """Strongest convexity regime whose defining condition holds at tolerance.

    Conditions are checked from weakest to strongest, so the report can never claim
    a stronger regime while a weaker one fails.
    """
    kappas = np.asarray(kappas, dtype=float)
    ric_eigs = np.asarray(ric_eigs, dtype=float)
    H = float(np.sum(kappas))
    regime = Regime.NOT_CONVEX
    if np.all(kappas > -tol):
        regime = Regime.STRICTLY_CONVEX
        if np.all(kappas * H - (n - 1) - kappas ** 2 >= -tol):
            regime = Regime.NONNEG_RICCI
            prods = np.outer(kappas, kappas)[~np.eye(n, dtype=bool)]
            if np.all(prods >= 1 - tol):
                regime = Regime.NONNEG_SECTIONAL
                if np.all(kappas >= 1 - tol):
                    regime = Regime.HOROCONVEX
    return RegimeReport(regime, float(np.min(ric_eigs)), H)


def point_regime_report(jet: Jet2, tol: float = INEQ_TOL) -> RegimeReport:
    """Full per-point report: regime, Ricci floor, factors, density and spectrum."""
    spec = shape_spectrum(jet)
    aj = adapted_frame(jet)
    base = convexity_classify(spec.kappas, spec.ricci, jet.n, tol)
    kf = key_factors(aj, spec.mean_closed, tol)
    dens = n_subharmonic_density(aj)
    return RegimeReport(base.regime, base.min_ricci_eig, spec.mean, (kf.A, kf.B),
                        dens.density, dens.at_critical_point, spec)


def scan_field(field: HeightField, points) -> list:
    """Per-point scan rows for CSV output.

    Row: x_1..x_n, f, H, kappa_1..kappa_n, min_ric_eig, A, B, AB_minus_(n-1),
    density, regime.
    """
    rows = []
    n = field.n
    for x in points:
        jet = field.jet(x)
        rep = point_regime_report(jet)
        A, B = rep.factors
        rows.append(list(np.asarray(x, float)) + [jet.f, rep.mean]
                    + list(rep.spectrum.kappas)
                    + [rep.min_ricci_eig, A, B, A * B - (n - 1),
                       rep.n_subharmonic_density, rep.regime.value])
    return rows
