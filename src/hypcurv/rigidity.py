"""Rigidity checks: curvature constancy and the global verdict.

On a surface with nonnegative Ricci curvature and n >= 3, a zero eigenvalue of the
Ricci operator singles out a principal direction whose curvature must equal the
smaller root (H - sqrt(H^2 - 4(n-1))) / 2, and the spectrum splits into a
multiplicity-1 curvature kappa_0 and its reciprocal with multiplicity n-1.  Constancy
of that split across samples, combined with a two-point recession set, certifies an
equidistant tube; the all-ones spectrum certifies a horosphere.

The parts stay separate: :func:`constancy_scan` clusters one batch of spectra over the
samples, and :func:`classify_global` combines a scan with the recession count.  The
Ricci-null step is read from the same spectra (along principal direction i the Ricci
eigenvalue is -(n-1) + kappa_i H - kappa_i^2); the ``equidistant-tube-spectrum``
acceptance criterion checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curvature import _cluster_labels, shape_spectra
from .errors import HypothesisContradiction
from .heightfield import HeightField

__all__ = [
    "Verdict", "ConstancyScan", "constancy_scan", "classify_global", "verdict_report",
]

#: Ricci floor of the "fd" profile: classify takes Ricci >= 0 when the smallest Ricci
#: eigenvalue over the samples is at least -RICCI_NULL_TOL
RICCI_NULL_TOL = 1e-6
#: max |kappa_0 * kappa_t - 1| accepted by the tube verdict
TUBE_PRODUCT_TOL = 1e-6
#: across-sample variance accepted as "constant" by the tube verdict
CONSTANCY_VAR_TOL = 1e-10
#: |kappa - 1| accepted by the horosphere verdict
UMBILIC_ONE_TOL = 1e-8
#: classify tolerances per profile, (ricci_floor, product, variance): "fd" is the
#: defaults above, loose enough for finite-difference jets; "strict" is for closed forms
TOLERANCE_PROFILES = {
    "strict": (1e-9, 1e-9, 1e-18),
    "fd": (RICCI_NULL_TOL, TUBE_PRODUCT_TOL, CONSTANCY_VAR_TOL),
}


class Verdict(Enum):
    EQUIDISTANT_TUBE = "EquidistantTube"
    HOROSPHERE = "Horosphere"
    SINGLE_END_CANDIDATE = "SingleEndCandidate"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ConstancyScan:
    """Split-spectrum statistics across a sample set."""

    kappa0_var: float
    kappa_t_var: float
    max_product_defect: float
    kappa0_mean: float
    kappa_t_mean: float
    split_ok: bool
    umbilic: bool
    umbilic_value: float
    samples: int
    ric_min: float       # smallest Ricci eigenvalue over the samples


def constancy_scan(field: HeightField, samples) -> ConstancyScan:
    """Cluster the curvature spectrum at each sample and measure constancy.

    With the {1, n-1} split present everywhere, returns across-sample variances of
    both clusters and the worst reciprocal-product defect.  A degenerate single
    cluster is reported as umbilic; any other structure sets split_ok False.  The
    smallest Ricci eigenvalue over all samples is read from the same spectra.
    """
    spec = shape_spectra(*field.jet_array(samples))
    kappas = spec.kappas
    count, n = kappas.shape
    ric_min = float(np.min(spec.ricci[:, 0], initial=math.inf))
    labels = _cluster_labels(kappas)
    umbilic = labels[:, -1] == 0
    # the {1, n-1} split: two clusters, the single one first (preferred at n = 2) or last
    two = labels[:, -1] == 1
    first = two & (labels[:, 1] == 1)
    split = first | (two & (labels[:, -2] == 0))
    split_ok = bool(np.all(umbilic | split))
    if umbilic.any() and not split.any():
        vals = kappas[umbilic].ravel()
        return ConstancyScan(float(np.var(vals)), float(np.var(vals)), math.nan,
                             float(np.mean(vals)), float(np.mean(vals)),
                             False, True, float(np.mean(vals)), count, ric_min)
    if not split.any() or umbilic.any():
        return ConstancyScan(math.nan, math.nan, math.nan, math.nan, math.nan,
                             False, False, math.nan, count, ric_min)
    first = first[split]
    k0 = np.where(first, kappas[split, 0], kappas[split, -1])
    kt = np.where(first[:, None], kappas[split, 1:], kappas[split, :-1]).ravel()
    defect = float(np.max(np.abs(np.repeat(k0, n - 1) * kt - 1.0)))
    return ConstancyScan(float(np.var(k0)), float(np.var(kt)), defect,
                         float(np.mean(k0)), float(np.mean(kt)),
                         split_ok, False, math.nan, count, ric_min)


def classify_global(constancy: ConstancyScan, boundary_points: int,
                    nonneg_ricci: bool = False,
                    product_tol: float = TUBE_PRODUCT_TOL,
                    var_tol: float = CONSTANCY_VAR_TOL) -> Verdict:
    """Combine spectrum constancy with the recession-set count into a global verdict.

    More than two boundary points on a surface asserted to have nonnegative Ricci
    curvature contradicts the classification and raises HypothesisContradiction.  The
    paper counts ends only under that hypothesis, so one boundary point makes a
    single-end candidate only when ``nonneg_ricci`` holds.
    """
    if boundary_points > 2 and nonneg_ricci:
        raise HypothesisContradiction(
            f"{boundary_points} boundary points on a nonnegative-Ricci surface")
    if constancy.umbilic and abs(constancy.umbilic_value - 1.0) <= UMBILIC_ONE_TOL:
        return Verdict.HOROSPHERE
    if (boundary_points == 2 and constancy.split_ok
            and constancy.max_product_defect <= product_tol
            and constancy.kappa0_var <= var_tol
            and constancy.kappa_t_var <= var_tol):
        return Verdict.EQUIDISTANT_TUBE
    if boundary_points == 1 and nonneg_ricci:
        return Verdict.SINGLE_END_CANDIDATE
    return Verdict.INCONCLUSIVE


def verdict_report(verdict: Verdict, constancy: ConstancyScan, boundary_points: int) -> dict:
    """Verdict JSON payload."""
    kappa0 = constancy.umbilic_value if constancy.umbilic else constancy.kappa0_mean
    kappa_t = constancy.umbilic_value if constancy.umbilic else constancy.kappa_t_mean
    return {
        "verdict": verdict.value,
        "kappa0": kappa0,
        "kappa_transverse": kappa_t,
        "variances": [constancy.kappa0_var, constancy.kappa_t_var],
        "boundary_points": boundary_points,
    }
