"""End-to-end verification suite: eight criteria covering the whole pipeline.

Each criterion checks exact identities on the closed-form catalog or solver output
against an independent oracle, at fixed tolerances, and returns a record with a
one-line summary.  ``run_suite`` executes any subset and reports pass/fail lines;
the CLI's ``verify`` command and the acceptance tests both drive it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics, plaplace, rigidity
from .curvature import (cluster_kappas, commutation_residual, fd_residuals,
                        fundamental_forms, ricci_coordinate, ricci_from_shape,
                        shape_spectra)
from .gridfn import GridFunction
from .heightfield import Jet2, fd_validate_jet, make_catalog_surface, sample_height_grid
from .inequalities import (grad_direction_ricci, n_laplacian_expansion,
                           regime_reports, ricci_gradient_adapted)

__all__ = ["CriterionResult", "run_suite", "CRITERIA", "random_jet", "solve_laplace_linear"]


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


#: criterion name -> criterion(seed) -> CriterionResult, in suite order
CRITERIA = {}
#: spec runtime budget per criterion, seconds
RUNTIME_BUDGET = {}


def _criterion(name: str, budget: float):
    """Register ``body(seed, check)`` as the criterion ``name`` with its runtime budget.

    ``check(ok, msg)`` records msg when ok is false.  The registered criterion times
    the body and reports the first recorded failure, or else the body's summary.
    """
    def register(body):
        def criterion(seed: int) -> CriterionResult:
            t0 = time.time()
            failures = []

            def check(ok, msg):
                if not ok:
                    failures.append(msg)

            summary = body(seed, check)
            return CriterionResult(name, not failures, failures[0] if failures else summary,
                                   time.time() - t0)

        criterion.__doc__ = body.__doc__
        CRITERIA[name] = criterion
        RUNTIME_BUDGET[name] = budget
        return criterion
    return register


@_criterion("horosphere-identity", 1.0)
def criterion_horosphere_identity(seed: int, check) -> str:
    """II = g, kappa = 1, H = n, Ric = 0 and zero density on constant graphs."""
    tol = 1e-12
    rng = np.random.default_rng(seed)
    for n in (3, 4):
        for c in (1.0, 2.5):
            field = make_catalog_surface("horosphere", {"c": c}, n)
            pts = field.sample_points(50, rng)
            f, df, hess = field.jet_array(pts)
            rep = regime_reports(f, df, hess)
            spec, forms = rep.spectrum, fundamental_forms(f, df, hess)
            check(np.max(np.abs(spec.second_form - forms.metric)) <= tol,
                  f"II != g at n={n} c={c}")
            check(np.max(np.abs(spec.kappas - 1.0)) <= tol, f"kappa != 1 at n={n} c={c}")
            check(np.max(np.abs(spec.mean - n)) <= tol, f"H != n at n={n} c={c}")
            for i, x in enumerate(pts):
                row = forms.point(i)
                ric = ricci_coordinate(Jet2(x, f[i], df[i], hess[i]), row)
                ric2 = ricci_from_shape(spec.point(i), row)
                check(np.max(np.abs(ric)) <= tol, f"Ric != 0 at n={n} c={c}")
                check(np.max(np.abs(ric2)) <= tol, f"shape-route Ric != 0 at n={n} c={c}")
            check(np.max(np.abs(rep.n_subharmonic_density)) <= tol,
                  f"density != 0 at n={n} c={c}")
    return "II=g, kappa=1, H=n, Ric=0, density=0 at 1e-12"


@_criterion("equidistant-tube-spectrum", 5.0)
def criterion_tube_spectrum(seed: int, check) -> str:
    """Cone spectrum splits {1,n-1}, reciprocal product, flat direction root match."""
    rng = np.random.default_rng(seed)
    n = 3
    for s in (0.5, 1.0, 2.0, 5.0):
        field = make_catalog_surface("equidistant_cone", {"slope": s}, n)
        pts = field.sample_points(100, rng)
        k0_expect = 1.0 / math.sqrt(1.0 + s * s)
        kt_expect = math.sqrt(1.0 + s * s)
        f, df, hess = field.jet_array(pts)
        spec = shape_spectra(f, df, hess)
        for kappas in spec.kappas:
            clusters = cluster_kappas(kappas)
            check(len(clusters) == 2 and len(clusters[0]) == 1
                  and len(clusters[1]) == n - 1, f"bad cluster split at s={s}")
        k0s, kts = spec.kappas[:, 0], spec.kappas[:, 1:].ravel()
        check(np.max(np.abs(k0s[:, None] * spec.kappas[:, 1:] - 1.0)) <= 1e-10,
              f"kappa0*kappa_t != 1 at s={s}")
        for i, x in enumerate(pts):
            jet = Jet2(x, f[i], df[i], hess[i])
            check(abs(grad_direction_ricci(jet)) <= 1e-9,
                  f"gradient-direction Ricci != 0 at s={s}")
        roots = (spec.mean - np.sqrt(spec.mean ** 2 - 4 * (n - 1))) / 2
        check(np.max(np.abs(k0s - roots)) <= 1e-8, f"kappa0 != smaller root at s={s}")
        check(abs(np.mean(k0s) - k0_expect) <= 1e-10, f"kappa0 value at s={s}")
        check(abs(np.mean(kts) - kt_expect) <= 1e-10, f"kappa_t value at s={s}")
        check(np.var(k0s) <= 1e-18, f"kappa0 variance at s={s}")
        check(np.var(kts) <= 1e-18, f"kappa_t variance at s={s}")
    return "kappa split, product=1 @1e-10, var<=1e-18, grad Ricci=0 @1e-9, root @1e-8"


@_criterion("two-route-ricci", 10.0)
def criterion_two_route_ricci(seed: int, check) -> str:
    """Coordinate Ricci equals the shape-operator polynomial on random jets."""
    rng = np.random.default_rng(seed)
    worst_dev, worst_comm = 0.0, 0.0
    for n in (3, 4, 5):
        jets = [random_jet(rng, n) for _ in range(1000)]
        stacked = [np.array(v) for v in zip(*((j.f, j.grad, j.hess) for j in jets))]
        spectra, all_forms = shape_spectra(*stacked), fundamental_forms(*stacked)
        for i, jet in enumerate(jets):
            spec, forms = spectra.point(i), all_forms.point(i)
            r1 = ricci_coordinate(jet, forms)
            r2 = ricci_from_shape(spec, forms)
            scale = 1.0 + float(np.max(np.abs(r1)))
            dev = float(np.max(np.abs(r1 - r2))) / scale
            shape = forms.metric_inv @ spec.second_form
            comm = commutation_residual(r1, forms.metric, shape)
            worst_dev = max(worst_dev, dev)
            worst_comm = max(worst_comm, comm)
    check(worst_dev <= 1e-9, f"two-route deviation {worst_dev:.2e}")
    check(worst_comm <= 1e-9, f"commutation residual {worst_comm:.2e}")
    return f"3000 jets: route deviation {worst_dev:.1e}, commutation {worst_comm:.1e}"


def _check_scalar_oracles(check, field, pts, rep):
    """Off critical points, the density and the H1/H2 gradient-direction Ricci match
    their scalar oracles at 1e-9 (1 + |oracle|)."""
    for i in np.flatnonzero(~rep.at_critical_point):
        jet = field.jet(pts[i])
        for got, oracle in ((rep.n_subharmonic_density[i], n_laplacian_expansion),
                            (grad_direction_ricci(jet), ricci_gradient_adapted)):
            want = oracle(jet)
            check(abs(got - want) <= 1e-9 * (1.0 + abs(want)),
                  f"{oracle.__name__} mismatch on {field.kind} at {pts[i]}")


@_criterion("inequality-chain", 5.0)
def criterion_inequality_chain(seed: int, check) -> str:
    """A+B=H, AB >= n-1, H >= n, density >= 0 on nonneg-Ricci fields; plane discriminates;
    density and gradient Ricci match their scalar oracles."""
    rng = np.random.default_rng(seed)
    n = 3
    nonneg = [make_catalog_surface("horosphere", {"c": 1.0}, n)]
    nonneg += [make_catalog_surface("equidistant_cone", {"slope": s}, n)
               for s in (0.5, 1.0, 2.0, 5.0)]
    nonneg += [make_catalog_surface("geodesic_sphere_cap",
                                    {"center_height": 2.0, "euclidean_radius": 1.0}, n)]
    for field in nonneg:
        pts = field.sample_points(50, rng)
        rep = regime_reports(*field.jet_array(pts))
        _check_scalar_oracles(check, field, pts, rep)
        (A, B), H = rep.factors, rep.spectrum.mean_closed
        check(np.all(np.abs(A + B - H) <= 1e-12 * np.maximum(1.0, np.abs(H))),
              f"A+B != H on {field.kind}")
        check(np.all(A * B >= n - 1 - 1e-9), f"AB < n-1 on {field.kind}")
        check(np.all(H >= n - 1e-9), f"H < n on {field.kind}")
        check(np.all(rep.n_subharmonic_density >= -1e-9), f"density < 0 on {field.kind}")
    plane = make_catalog_surface("tilted_plane", {"slope": 1.0}, n)
    pts = plane.sample_points(50, rng)
    rep = regime_reports(*plane.jet_array(pts))
    _check_scalar_oracles(check, plane, pts, rep)
    AB, x1 = rep.factors[0] * rep.factors[1], pts[:, 0]
    check(np.all(np.abs(AB - 1.0) <= 1e-12), "plane AB != 1")
    check(np.all(AB < n - 1), "plane AB not < n-1")
    check(np.all(np.abs(rep.n_subharmonic_density + 2.0 / x1 ** 2)
                 <= 1e-9 / x1 ** 2), "plane density != -2/x1^2")
    return ("A+B=H @1e-12, AB>=n-1, H>=n, density>=0; plane AB=1<2, density=-2/x1^2; "
            "density=expansion, grad Ricci=adapted @1e-9")


@_criterion("fd-oracles", 30.0)
def criterion_fd_oracles(seed: int, check) -> str:
    """Jets match central differences; Codazzi and Gauss residuals converge at order
    >= 1.9 with terminal <= 1e-4."""
    rng = np.random.default_rng(seed)
    n = 3
    steps = (1e-3, 5e-4)
    floor = 1e-10
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
            check(fd_validate_jet(field, x).max <= 1e-6,
                  f"jet vs central differences on {field.kind} at {x}")
            for r_coarse, r_fine, tag in zip(point_coarse, point_fine, ("codazzi", "gauss")):
                check(r_fine <= 1e-4,
                      f"{tag} terminal residual {r_fine:.2e} on {field.kind}")
                if r_fine > floor:
                    order = math.log2(r_coarse / r_fine)
                    check(order >= 1.9, f"{tag} order {order:.2f} on {field.kind} at {x}")
    return ("jet vs central differences <= 1e-6; codazzi+gauss: order >= 1.9 under "
            "halving, terminal <= 1e-4 (20 pts/surface)")


def _cell_corners(dims, cell_mask):
    """Node indices of the 2^n corners of each cell in ``cell_mask`` (C order), one row
    per corner, and the corner sign table: ``signs[k, a]`` is +1 where corner k lies on
    the cell's upper side along axis a, else -1."""
    offsets = np.array(list(itertools.product((0, 1), repeat=len(dims))))
    lowest = np.ravel_multi_index(np.nonzero(cell_mask), dims)
    return lowest + np.ravel_multi_index(offsets.T, dims)[:, None], 2.0 * offsets - 1.0


def _gradient_operator(dims, spacing, cell_mask):
    """Dense map from node values to stacked per-cell gradient components."""
    corners, signs = _cell_corners(dims, cell_mask)
    A = np.zeros((len(dims), cell_mask.size, math.prod(dims)))
    for nodes, sign in zip(corners, signs / (2 ** (len(dims) - 1) * spacing)):
        A[:, np.flatnonzero(cell_mask), nodes] = sign[:, None]
    return A.reshape(-1, A.shape[-1])


def solve_laplace_linear(boundary_data: GridFunction) -> GridFunction:
    """p = 2 oracle: the normal equations ``A_I^T A_I u_I = -A_I^T A_B u_B`` of the cell
    gradient A, assembled densely from its own index arithmetic, one corner pair at a
    time, and solved by LU: a route independent of the descent's stencil."""
    gf = boundary_data.copy()
    gf.validate()
    interior = gf.interior_mask()
    corners, signs = _cell_corners(gf.dims, plaplace._complete_cells(gf.active_mask()))
    known = np.where(interior, 0.0, gf.values).ravel()
    free = np.count_nonzero(interior)
    row = np.full(known.size, free)     # the other nodes share a last row, dropped
    row[interior.ravel()] = np.arange(free)
    # A^T A couples corners a and b of a cell by signs[a] . signs[b] / (2^(n-1) h)^2;
    # within one pair each cell has its own entry, bar the dropped row and column
    coupling = signs @ signs.T / (2 ** (gf.ndim - 1) * gf.spacing) ** 2
    K, rhs = np.zeros((free + 1, free + 1)), np.zeros(free + 1)
    for a, b in itertools.product(range(len(corners)), repeat=2):
        K[row[corners[a]], row[corners[b]]] += coupling[a, b]
        rhs[row[corners[a]]] -= coupling[a, b] * known[corners[b]]
    gf.values[interior] = np.linalg.solve(K[:-1, :-1], rhs[:-1])
    return gf


@_criterion("n-harmonic-fundamental-solution", 60.0)
def criterion_fundamental_solution(seed: int, check) -> str:
    """p=n=3 solve reproduces log|x| at 1e-3; monotone trace; p=2 matches direct solve."""
    spacing = 1.0 / 32
    lo, hi = (0.5, -0.5, -0.5), (1.5, 0.5, 0.5)
    # log|x| is the slope-1 cone's height
    exact = sample_height_grid(make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3),
                               lo, hi, spacing)
    start = exact.copy()
    start.values[start.interior_mask()] = float(
        np.mean(start.values[start.boundary_mask]))
    res = plaplace.solve_p_harmonic(start, plaplace.SolverConfig(p=3.0))
    err = float(np.max(np.abs(res.grid.values - exact.values)))
    check(err <= 1e-3, f"max error vs log|x| is {err:.2e}")
    check(np.all(np.diff(res.energy_trace) <= 0.0), "energy trace not monotone")

    # p = 2 reduction against the direct solve
    mesh = np.meshgrid(*[np.arange(9) / 8] * 3, indexing="ij")
    gf = GridFunction((9, 9, 9), 1 / 8, np.zeros(3),
                      0.02 * (np.sin(3 * mesh[0]) + mesh[1] ** 2 - 0.5 * mesh[2]))
    gf.values[gf.interior_mask()] = 0.0
    direct = solve_laplace_linear(gf)
    iterative = plaplace.solve_p_harmonic(gf, plaplace.SolverConfig(p=2.0))
    dev = float(np.max(np.abs(direct.values - iterative.grid.values)))
    check(dev <= 1e-8, f"p=2 oracle deviation {dev:.2e}")
    return f"33^3 solve err {err:.1e} <= 1e-3, trace monotone, p=2 oracle dev {dev:.1e}"


@_criterion("viscosity-probe", 60.0)
def criterion_viscosity_probe(seed: int, check) -> str:
    """Probe true on horosphere and cone boxes, false on the tilted-plane box."""
    cfg = plaplace.SolverConfig(p=3.0)
    hs = make_catalog_surface("horosphere", {"c": 1.0}, 3)
    r = plaplace.viscosity_probe(hs, [-0.5] * 3, [0.5] * 3, cfg, spacing=1.0 / 16)
    check(r.subharmonic, f"horosphere probe false (margin {r.min_margin:.2e})")
    cone = make_catalog_surface("equidistant_cone", {"slope": 1.0}, 3)
    r = plaplace.viscosity_probe(cone, (0.5, -0.5, -0.5), (1.5, 0.5, 0.5), cfg,
                                 spacing=1.0 / 16)
    check(r.subharmonic, f"cone probe false (margin {r.min_margin:.2e})")
    plane = make_catalog_surface("tilted_plane", {"slope": 1.0}, 3)
    r = plaplace.viscosity_probe(plane, (1.0, -0.5, -0.5), (2.0, 0.5, 0.5), cfg,
                                 spacing=1.0 / 32)
    check(not r.subharmonic,
          f"plane probe true (margin {r.min_margin:.2e} vs tol {r.tolerance:.2e})")
    return "probe: horosphere true, cone true, tilted plane false at 10*spacing^2"


@_criterion("main-theorem-pipeline", 30.0)
def criterion_main_pipeline(seed: int, check) -> str:
    """Cone classifies as the tube with k=2; horosphere k=1; k<=2 everywhere; decay."""
    rng = np.random.default_rng(seed)
    n = 3
    spacing = 1.0 / 64
    window = ([-0.5] * 3, [0.5] * 3)

    cone = make_catalog_surface("equidistant_cone", {"slope": 1.0}, n)
    rec = asymptotics.recession_report(cone, [1, 2, 3, 4], *window, spacing)
    check(rec.boundary_points == 2, f"cone k={rec.boundary_points}")
    samples = cone.sample_points(100, rng)
    scan = rigidity.constancy_scan(cone, samples)
    verdict = rigidity.classify_global(scan, rec.boundary_points, nonneg_ricci=True)
    check(verdict is rigidity.Verdict.EQUIDISTANT_TUBE, f"cone verdict {verdict.value}")
    for a, b in zip(rec.max_diameters, rec.max_diameters[1:]):
        check(b <= a / math.e + 2 * spacing, f"diameter decay {a:.3f}->{b:.3f} too slow")

    hs = make_catalog_surface("horosphere", {"c": 1.0}, n)
    rec_h = asymptotics.recession_report(hs, [1, 2, 3, 4], *window, spacing)
    check(rec_h.boundary_points == 1, f"horosphere k={rec_h.boundary_points}")
    scan_h = rigidity.constancy_scan(hs, hs.sample_points(50, rng))
    verdict_h = rigidity.classify_global(scan_h, rec_h.boundary_points, nonneg_ricci=True)
    check(verdict_h is rigidity.Verdict.HOROSPHERE, f"horosphere verdict {verdict_h.value}")

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
    check(all(k <= 2 for k in ks), f"some k > 2: {ks}")
    return f"cone=EquidistantTube k=2, horosphere k=1, all k<=2 ({ks}), decay factor >= e"


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
