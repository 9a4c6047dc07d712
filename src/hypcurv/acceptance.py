"""End-to-end verification suite: eight criteria covering the whole pipeline.

Each criterion checks exact identities on the closed-form catalog or solver output
against an independent oracle, at fixed tolerances, and returns a record with a
one-line summary.  ``run_suite`` executes any subset and reports pass/fail lines;
the CLI's ``verify`` command and the acceptance tests both drive it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics, plaplace, rigidity
from .curvature import (cluster_kappas, commutation_residual, fd_residuals,
                        ricci_coordinate, ricci_from_shape, shape_spectra)
from .gridfn import GridFunction
from .heightfield import Jet2, _lattice_dims, _mesh_points, make_catalog_surface
from .inequalities import grad_direction_ricci, regime_reports

__all__ = ["CriterionResult", "run_suite", "CRITERIA", "random_jet"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.2f}s): {self.detail}"


def random_jet(rng, n: int) -> Jet2:
    """A random smooth jet: positive value, generic gradient, symmetric Hessian."""
    f = float(rng.uniform(0.2, 3.0))
    grad = rng.normal(size=n)
    h = rng.normal(size=(n, n))
    return Jet2(np.zeros(n), f, grad, 0.5 * (h + h.T))


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def criterion_horosphere_identity(seed: int) -> CriterionResult:
    """II = g, kappa = 1, H = n, Ric = 0 and zero density on constant graphs."""
    t0 = time.time()
    tol = 1e-12
    rng = np.random.default_rng(seed)
    failures = []
    for n in (3, 4):
        for c in (1.0, 2.5):
            field = make_catalog_surface("horosphere", {"c": c}, n)
            pts = field.sample_points(50, rng)
            f, df, hess = field.jet_array(pts)
            rep = regime_reports(f, df, hess)
            spec = rep.spectrum
            _check(failures, np.max(np.abs(spec.second_form - spec.forms.metric)) <= tol,
                   f"II != g at n={n} c={c}")
            _check(failures, np.max(np.abs(spec.kappas - 1.0)) <= tol,
                   f"kappa != 1 at n={n} c={c}")
            _check(failures, np.max(np.abs(spec.mean - n)) <= tol,
                   f"H != n at n={n} c={c}")
            for i, x in enumerate(pts):
                row = spec.point(i)
                ric = ricci_coordinate(Jet2(x, f[i], df[i], hess[i]), row.forms)
                ric2 = ricci_from_shape(row)
                _check(failures, np.max(np.abs(ric)) <= tol, f"Ric != 0 at n={n} c={c}")
                _check(failures, np.max(np.abs(ric2)) <= tol,
                       f"shape-route Ric != 0 at n={n} c={c}")
            _check(failures, np.max(np.abs(rep.n_subharmonic_density)) <= tol,
                   f"density != 0 at n={n} c={c}")
    detail = failures[0] if failures else "II=g, kappa=1, H=n, Ric=0, density=0 at 1e-12"
    return CriterionResult("horosphere-identity", not failures, detail, time.time() - t0)


def criterion_tube_spectrum(seed: int) -> CriterionResult:
    """Cone spectrum splits {1,n-1}, reciprocal product, flat direction root match."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    n = 3
    failures = []
    for s in (0.5, 1.0, 2.0, 5.0):
        field = make_catalog_surface("equidistant_cone", {"slope": s}, n)
        pts = field.sample_points(100, rng)
        k0_expect = 1.0 / math.sqrt(1.0 + s * s)
        kt_expect = math.sqrt(1.0 + s * s)
        f, df, hess = field.jet_array(pts)
        spec = shape_spectra(f, df, hess)
        for kappas in spec.kappas:
            clusters = cluster_kappas(kappas)
            _check(failures, len(clusters) == 2 and len(clusters[0]) == 1
                   and len(clusters[1]) == n - 1, f"bad cluster split at s={s}")
        k0s, kts = spec.kappas[:, 0], spec.kappas[:, 1:].ravel()
        _check(failures, np.max(np.abs(k0s[:, None] * spec.kappas[:, 1:] - 1.0)) <= 1e-10,
               f"kappa0*kappa_t != 1 at s={s}")
        for i, x in enumerate(pts):
            jet = Jet2(x, f[i], df[i], hess[i])
            _check(failures, abs(grad_direction_ricci(jet)) <= 1e-9,
                   f"gradient-direction Ricci != 0 at s={s}")
        roots = (spec.mean - np.sqrt(spec.mean ** 2 - 4 * (n - 1))) / 2
        _check(failures, np.max(np.abs(k0s - roots)) <= 1e-8,
               f"kappa0 != smaller root at s={s}")
        _check(failures, abs(np.mean(k0s) - k0_expect) <= 1e-10, f"kappa0 value at s={s}")
        _check(failures, abs(np.mean(kts) - kt_expect) <= 1e-10, f"kappa_t value at s={s}")
        _check(failures, np.var(k0s) <= 1e-18, f"kappa0 variance at s={s}")
        _check(failures, np.var(kts) <= 1e-18, f"kappa_t variance at s={s}")
    detail = failures[0] if failures else \
        "kappa split, product=1 @1e-10, var<=1e-18, grad Ricci=0 @1e-9, root @1e-8"
    return CriterionResult("equidistant-tube-spectrum", not failures, detail,
                           time.time() - t0)


def criterion_two_route_ricci(seed: int) -> CriterionResult:
    """Coordinate Ricci equals the shape-operator polynomial on random jets."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    failures = []
    worst_dev, worst_comm = 0.0, 0.0
    for n in (3, 4, 5):
        jets = [random_jet(rng, n) for _ in range(1000)]
        spectra = shape_spectra(np.array([j.f for j in jets]), np.array([j.grad for j in jets]),
                                np.array([j.hess for j in jets]))
        for i, jet in enumerate(jets):
            spec = spectra.point(i)
            r1 = ricci_coordinate(jet, spec.forms)
            r2 = ricci_from_shape(spec)
            scale = 1.0 + float(np.max(np.abs(r1)))
            dev = float(np.max(np.abs(r1 - r2))) / scale
            comm = commutation_residual(r1, spec.forms.metric, spec.shape)
            worst_dev = max(worst_dev, dev)
            worst_comm = max(worst_comm, comm)
    _check(failures, worst_dev <= 1e-9, f"two-route deviation {worst_dev:.2e}")
    _check(failures, worst_comm <= 1e-9, f"commutation residual {worst_comm:.2e}")
    detail = failures[0] if failures else \
        f"3000 jets: route deviation {worst_dev:.1e}, commutation {worst_comm:.1e}"
    return CriterionResult("two-route-ricci", not failures, detail, time.time() - t0)


def criterion_inequality_chain(seed: int) -> CriterionResult:
    """A+B=H, AB >= n-1, H >= n, density >= 0 on nonneg-Ricci fields; plane discriminates."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    n = 3
    failures = []
    nonneg = [make_catalog_surface("horosphere", {"c": 1.0}, n)]
    nonneg += [make_catalog_surface("equidistant_cone", {"slope": s}, n)
               for s in (0.5, 1.0, 2.0, 5.0)]
    nonneg += [make_catalog_surface("geodesic_sphere_cap",
                                    {"center_height": 2.0, "euclidean_radius": 1.0}, n)]
    for field in nonneg:
        rep = regime_reports(*field.jet_array(field.sample_points(50, rng)))
        (A, B), H = rep.factors, rep.spectrum.mean_closed
        _check(failures, np.all(np.abs(A + B - H) <= 1e-12 * np.maximum(1.0, np.abs(H))),
               f"A+B != H on {field.kind}")
        _check(failures, np.all(A * B >= n - 1 - 1e-9), f"AB < n-1 on {field.kind}")
        _check(failures, np.all(H >= n - 1e-9), f"H < n on {field.kind}")
        _check(failures, np.all(rep.n_subharmonic_density >= -1e-9),
               f"density < 0 on {field.kind}")
    plane = make_catalog_surface("tilted_plane", {"slope": 1.0}, n)
    pts = plane.sample_points(50, rng)
    rep = regime_reports(*plane.jet_array(pts))
    AB, x1 = rep.factors[0] * rep.factors[1], pts[:, 0]
    _check(failures, np.all(np.abs(AB - 1.0) <= 1e-12), "plane AB != 1")
    _check(failures, np.all(AB < n - 1), "plane AB not < n-1")
    _check(failures, np.all(np.abs(rep.n_subharmonic_density + 2.0 / x1 ** 2)
                            <= 1e-9 / x1 ** 2), "plane density != -2/x1^2")
    detail = failures[0] if failures else \
        "A+B=H @1e-12, AB>=n-1, H>=n, density>=0; plane AB=1<2, density=-2/x1^2"
    return CriterionResult("inequality-chain", not failures, detail, time.time() - t0)


def criterion_fd_oracles(seed: int) -> CriterionResult:
    """Codazzi and Gauss residuals converge at order >= 1.9 with terminal <= 1e-4."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    n = 3
    steps = (1e-3, 5e-4)
    floor = 1e-10
    failures = []
    fields = [
        make_catalog_surface("horosphere", {"c": 1.0}, n),
        make_catalog_surface("equidistant_cone", {"slope": 1.0}, n),
        make_catalog_surface("geodesic_sphere_cap",
                             {"center_height": 2.0, "euclidean_radius": 1.0}, n),
        make_catalog_surface("tilted_plane", {"slope": 1.0}, n),
    ]
    for field in fields:
        kwargs = {"r_min": 0.5, "r_max": 1.8} if field.kind == "equidistant_cone" else {}
        pts = field.sample_points(20, rng, margin=0.05, **kwargs)
        coarse, fine = (np.stack(fd_residuals(field, pts, step), axis=1) for step in steps)
        for x, point_coarse, point_fine in zip(pts, coarse, fine):
            for r_coarse, r_fine, tag in zip(point_coarse, point_fine, ("codazzi", "gauss")):
                _check(failures, r_fine <= 1e-4,
                       f"{tag} terminal residual {r_fine:.2e} on {field.kind}")
                if r_fine > floor:
                    order = math.log2(r_coarse / r_fine)
                    _check(failures, order >= 1.9,
                           f"{tag} order {order:.2f} on {field.kind} at {x}")
    detail = failures[0] if failures else \
        "codazzi+gauss: order >= 1.9 under halving, terminal <= 1e-4 (20 pts/surface)"
    return CriterionResult("fd-oracles", not failures, detail, time.time() - t0)


def _annulus_box_heights(fn, lo, hi, spacing):
    lo = np.asarray(lo, float)
    dims = _lattice_dims(lo, hi, spacing)
    mesh = np.moveaxis(_mesh_points(lo, dims, spacing), -1, 0)
    return GridFunction(dims, spacing, lo, fn(mesh))


def criterion_fundamental_solution(seed: int) -> CriterionResult:
    """p=n=3 solve reproduces log|x| at 1e-3; monotone trace; p=2 matches direct solve."""
    t0 = time.time()
    failures = []
    spacing = 1.0 / 32
    lo, hi = (0.5, -0.5, -0.5), (1.5, 0.5, 0.5)
    exact = _annulus_box_heights(
        lambda m: 0.5 * np.log(m[0] ** 2 + m[1] ** 2 + m[2] ** 2), lo, hi, spacing)
    start = exact.copy()
    start.values[start.interior_mask()] = float(
        np.mean(start.values[start.boundary_mask]))
    cfg = plaplace.SolverConfig(p=3.0, tolerance=1e-13)
    res = plaplace.solve_p_harmonic(start, cfg)
    err = float(np.max(np.abs(res.grid.values - exact.values)))
    _check(failures, err <= 1e-3, f"max error vs log|x| is {err:.2e}")
    mono = bool(np.all(np.diff(res.energy_trace) <= 0.0))
    _check(failures, mono, "energy trace not monotone")

    # p = 2 reduction against the sparse direct solve; small grid and amplitude keep
    # the energy-resolution floor of the descent far below the 1e-8 tolerance
    dims = (9, 9, 9)
    h2 = 1.0 / 8
    axes = [h2 * np.arange(9)] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    bnd = 0.02 * (np.sin(3 * mesh[0]) + mesh[1] ** 2 - 0.5 * mesh[2])
    gf = GridFunction(dims, h2, np.zeros(3), bnd.copy())
    gf.values[gf.interior_mask()] = 0.0
    direct = plaplace.solve_laplace_linear(gf)
    iterative = plaplace.solve_p_harmonic(
        gf, plaplace.SolverConfig(p=2.0, tolerance=1e-16, max_iterations=100000,
                                  stall_iterations=10))
    dev = float(np.max(np.abs(direct.values - iterative.grid.values)))
    _check(failures, dev <= 1e-8, f"p=2 oracle deviation {dev:.2e}")
    detail = failures[0] if failures else \
        f"33^3 solve err {err:.1e} <= 1e-3, trace monotone, p=2 oracle dev {dev:.1e}"
    return CriterionResult("n-harmonic-fundamental-solution", not failures, detail,
                           time.time() - t0)


def criterion_viscosity_probe(seed: int) -> CriterionResult:
    """Probe true on horosphere and cone boxes, false on the tilted-plane box."""
    t0 = time.time()
    failures = []
    cfg = plaplace.SolverConfig(p=3.0, tolerance=1e-13)
    hs = make_catalog_surface("horosphere", {"c": 1.0}, 3)
    r = plaplace.viscosity_probe(hs, [-0.5] * 3, [0.5] * 3, cfg, spacing=1.0 / 16)
    _check(failures, r.subharmonic, f"horosphere probe false (margin {r.min_margin:.2e})")
    cone = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
    r = plaplace.viscosity_probe(cone, (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), cfg,
                                 spacing=1.0 / 16)
    _check(failures, r.subharmonic, f"cone probe false (margin {r.min_margin:.2e})")
    plane = make_catalog_surface("tilted_plane", {"slope": 1.0}, 3)
    r = plaplace.viscosity_probe(plane, (1.0, -0.5, -0.5), (2.0, 0.5, 0.5), cfg,
                                 spacing=1.0 / 32)
    _check(failures, not r.subharmonic,
           f"plane probe true (margin {r.min_margin:.2e} vs tol {r.tolerance:.2e})")
    detail = failures[0] if failures else \
        "probe: horosphere true, cone true, tilted plane false at 10*spacing^2"
    return CriterionResult("viscosity-probe", not failures, detail, time.time() - t0)


def criterion_main_pipeline(seed: int) -> CriterionResult:
    """Cone classifies as the tube with k=2; horosphere k=1; k<=2 everywhere; decay."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    n = 3
    failures = []
    spacing = 1.0 / 64
    window = ([-0.5] * 3, [0.5] * 3)

    cone = make_catalog_surface("equidistant_cone", {"slope": 1.0}, n)
    rec = asymptotics.recession_report(cone, [1, 2, 3, 4], *window, spacing)
    _check(failures, rec.boundary_points == 2, f"cone k={rec.boundary_points}")
    samples = cone.sample_points(100, rng)
    scan = rigidity.constancy_scan(cone, samples)
    verdict = rigidity.classify_global(scan, rec.boundary_points, nonneg_ricci=True)
    _check(failures, verdict is rigidity.Verdict.EQUIDISTANT_TUBE,
           f"cone verdict {verdict.value}")
    for a, b in zip(rec.max_diameters, rec.max_diameters[1:]):
        _check(failures, b <= a / math.e + 2 * spacing,
               f"diameter decay {a:.3f}->{b:.3f} too slow")

    hs = make_catalog_surface("horosphere", {"c": 1.0}, n)
    rec_h = asymptotics.recession_report(hs, [1, 2, 3, 4], *window, spacing)
    _check(failures, rec_h.boundary_points == 1, f"horosphere k={rec_h.boundary_points}")
    scan_h = rigidity.constancy_scan(hs, hs.sample_points(50, rng))
    verdict_h = rigidity.classify_global(scan_h, rec_h.boundary_points, nonneg_ricci=True)
    _check(failures, verdict_h is rigidity.Verdict.HOROSPHERE,
           f"horosphere verdict {verdict_h.value}")

    fields = [hs, cone]
    fields += [make_catalog_surface("equidistant_cone", {"slope": s}, n)
               for s in (0.5, 2.0, 5.0)]
    cap = make_catalog_surface("geodesic_sphere_cap",
                               {"center_height": 2.0, "euclidean_radius": 1.0}, n)
    ks = []
    for field in fields:
        rep = asymptotics.recession_report(field, [1, 2, 3, 4], *window, spacing)
        ks.append(rep.boundary_points)
    lo, hi = cap.domain.lo * 0.9, cap.domain.hi * 0.9
    rep = asymptotics.recession_report(cap, [1, 2, 3, 4], lo, hi,
                                       float(hi[0] - lo[0]) / 32)
    ks.append(rep.boundary_points)
    _check(failures, all(k <= 2 for k in ks), f"some k > 2: {ks}")
    detail = failures[0] if failures else \
        f"cone=EquidistantTube k=2, horosphere k=1, all k<=2 ({ks}), decay factor >= e"
    return CriterionResult("main-theorem-pipeline", not failures, detail,
                           time.time() - t0)


CRITERIA = {
    "horosphere-identity": criterion_horosphere_identity,
    "equidistant-tube-spectrum": criterion_tube_spectrum,
    "two-route-ricci": criterion_two_route_ricci,
    "inequality-chain": criterion_inequality_chain,
    "fd-oracles": criterion_fd_oracles,
    "n-harmonic-fundamental-solution": criterion_fundamental_solution,
    "viscosity-probe": criterion_viscosity_probe,
    "main-theorem-pipeline": criterion_main_pipeline,
}

#: spec runtime budget per criterion, seconds
RUNTIME_BUDGET = {
    "horosphere-identity": 1.0,
    "equidistant-tube-spectrum": 5.0,
    "two-route-ricci": 10.0,
    "inequality-chain": 5.0,
    "fd-oracles": 30.0,
    "n-harmonic-fundamental-solution": 60.0,
    "viscosity-probe": 60.0,
    "main-theorem-pipeline": 30.0,
}


def run_suite(names=None, seed: int = 7, echo=print) -> list:
    """Run the named criteria (all by default); one pass/fail line each."""
    if names is None or names == "all" or names == ["all"]:
        names = list(CRITERIA)
    results = []
    for name in names:
        if name not in CRITERIA:
            raise KeyError(f"unknown criterion {name!r}")
        res = CRITERIA[name](seed)
        if res.elapsed > RUNTIME_BUDGET[name]:
            res = CriterionResult(res.name, False,
                                  f"runtime {res.elapsed:.1f}s over budget "
                                  f"{RUNTIME_BUDGET[name]:.0f}s ({res.detail})",
                                  res.elapsed)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
