"""Command-line front end: analyze, scan, classify, solve, probe, boundary, verify.

Reports are JSON (17 significant digits, manifest embedded) or CSV with a manifest
sidecar.  Exit codes: 0 success, 1 verification/numeric failure, 2 usage error.  A
library error (``HypcurvError``) in any command prints ``{"error": ...}`` to stderr
and exits 1.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import acceptance, asymptotics, plaplace, rigidity
from .curvature import fd_residuals
from .errors import HypcurvError
from .gridfn import save_grid_function
from .heightfield import FD_STEP, field_from_json, field_to_descriptor, sample_height_grid
from .inequalities import grad_direction_ricci, point_regime_report, scan_field
from .reportio import RunManifest, dumps, format_float


def _parse_tuple(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise click.UsageError(f"cannot parse tuple {text!r}: {exc}")


def _parse_levels(text: str) -> list:
    """Sublevel depths 'M1,..,Mk', finite and strictly increasing."""
    levels = _parse_tuple(text)
    if not np.all(np.isfinite(levels)) or np.any(np.diff(levels) <= 0):
        raise click.UsageError(f"levels must be finite and strictly increasing, "
                               f"got {text!r}")
    return levels.tolist()


def _parse_grid(text: str, n: int):
    """Grid spec 'lo1,..,lon:hi1,..,hin:nodes' of an n-dimensional surface ->
    (lo, hi, nodes)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError("grid spec must be 'lo..:hi..:nodes'")
    lo, hi = _parse_tuple(parts[0]), _parse_tuple(parts[1])
    try:
        nodes = int(parts[2])
    except ValueError:
        raise click.UsageError(f"bad node count {parts[2]!r}")
    if lo.shape != hi.shape or np.any(lo >= hi) or nodes < 3:
        raise click.UsageError("grid spec needs lo < hi and nodes >= 3")
    if lo.shape != (n,):
        raise click.UsageError("grid dimension does not match the surface")
    return lo, hi, nodes


def _window(field, grid_spec):
    """(lo, hi, spacing) of the grid spec, spacing from axis 0.

    Without a spec: a cube of side min(hi - lo)/4 centred on the field's domain, with
    65 nodes per axis.
    """
    if grid_spec is None:
        centre = 0.5 * (field.domain.lo + field.domain.hi)
        half = float(np.min(field.domain.hi - field.domain.lo)) / 8
        lo, hi, nodes = centre - half, centre + half, 65
    else:
        lo, hi, nodes = _parse_grid(grid_spec, field.n)
    return lo, hi, float((hi[0] - lo[0]) / (nodes - 1))


def _load_surface(path: str):
    try:
        return field_from_json(path)
    except (HypcurvError, KeyError, ValueError, OSError) as exc:
        raise click.UsageError(f"invalid surface descriptor {path}: {exc}")


def _emit(payload: dict, manifest: RunManifest, out: str, name: str) -> str:
    """The JSON report: the manifest, then the payload; also written to out/name."""
    text = dumps({"manifest": manifest.to_dict(), **payload})
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    return text


def _echo(text: str):
    # an explicit stream: click caches its default stream per sys.stdout object and
    # so keeps every redirected stdout, with its report, alive in-process
    click.echo(text, nl=False, file=sys.stdout)


surface_opt = click.option("--surface", required=True, type=click.Path(exists=True),
                           help="Surface descriptor JSON.")
out_opt = click.option("--out", default=None, type=click.Path(), help="Output directory.")
seed_opt = click.option("--seed", default=7, type=int, show_default=True,
                        help="Seed for randomized sample points.")
profile_opt = click.option("--tolerance-profile", default="fd",
                           type=click.Choice(list(rigidity.TOLERANCE_PROFILES)),
                           show_default=True,
                           help="Tolerances for classification thresholds.")


class _Main(click.Group):
    """Command group that turns a library error into the error JSON and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HypcurvError as exc:
            click.echo(dumps({"error": str(exc)}), nl=False, file=sys.stderr)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Numerical lab for graph hypersurfaces in the hyperbolic upper half-space."""


@main.command()
@surface_opt
@click.option("--point", required=True, help="Evaluation point, comma separated.")
@click.option("--step", default=None, type=float, help="FD step for residuals.")
@out_opt
def analyze(surface, point, step, out):
    """Curvature and inequality report at one point."""
    field = _load_surface(surface)
    x = _parse_tuple(point)
    if step is None:
        step = FD_STEP * max(1.0, float(np.linalg.norm(x)))
    manifest = RunManifest("analyze", inputs={"surface": field_to_descriptor(field)},
                           config={"point": x.tolist(), "step": step})
    jet = field.jet(x)
    regime = point_regime_report(jet)
    spec = regime.spectrum
    codazzi, gauss = fd_residuals(field, x[None], step)
    report = {
        "x": x.tolist(),
        "f": jet.f,
        "g": spec.forms.metric.tolist(),
        "II": spec.second_form.tolist(),
        "kappas": spec.kappas.tolist(),
        "H": spec.mean,
        "ricci_eigs": spec.ricci.tolist(),
        "residuals": {"codazzi": float(codazzi[0]), "gauss": float(gauss[0])},
        "regime": regime.regime.value,
        "factors": list(regime.factors),
        "density": regime.n_subharmonic_density,
        "at_critical_point": regime.at_critical_point,
    }
    if not regime.at_critical_point:
        report["grad_direction_ricci"] = grad_direction_ricci(jet)
    _echo(_emit(report, manifest, out, "analyze.json"))


@main.command()
@surface_opt
@click.option("--grid", "grid_spec", required=True, help="Scan grid 'lo:hi:nodes'.")
@seed_opt
@out_opt
def scan(surface, grid_spec, seed, out):
    """CSV scan of curvature quantities over a point grid."""
    field = _load_surface(surface)
    lo, hi, nodes = _parse_grid(grid_spec, field.n)
    axes = [np.linspace(lo[d], hi[d], nodes) for d in range(field.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    inside = field.contains_array(pts)
    pts = pts[inside]
    manifest = RunManifest("scan", inputs={"surface": field_to_descriptor(field)},
                           config={"grid": grid_spec, "scanned_points": len(pts),
                                   "dropped_points": int(np.count_nonzero(~inside))},
                           seed=seed)
    rows = scan_field(field, pts)
    n = field.n
    header = ([f"x{i+1}" for i in range(n)] + ["f", "H"]
              + [f"kappa{i+1}" for i in range(n)]
              + ["min_ric_eig", "A", "B", "AB_minus_nm1", "density", "regime"])
    lines = [",".join(header)]
    for row in rows:
        cells = [format_float(v) if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    _echo(text)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "scan.csv"), "w") as fh:
            fh.write(text)
        manifest.outputs.append("scan.csv")
        _emit({}, manifest, out, "scan.manifest.json")


@main.command()
@surface_opt
@click.option("--levels", default="1,2,3,4", show_default=True,
              help="Sublevel depths for the recession analysis.")
@click.option("--grid", "grid_spec", default=None,
              help="Analysis window 'lo:hi:nodes' (default: a cube of side min(hi - lo)/4 "
                   "centred on the domain, 65 nodes).")
@click.option("--samples", default=100, type=click.IntRange(min=1), show_default=True,
              help="Curvature sample count.")
@seed_opt
@profile_opt
@out_opt
def classify(surface, levels, grid_spec, samples, seed, tolerance_profile, out):
    """Global verdict: rigidity constancy scan + recession-set count."""
    field = _load_surface(surface)
    levels_list = _parse_levels(levels)
    lo, hi, spacing = _window(field, grid_spec)
    rng = np.random.default_rng(seed)
    ric_tol, product_tol, var_tol = rigidity.TOLERANCE_PROFILES[tolerance_profile]
    manifest = RunManifest(
        "classify", inputs={"surface": field_to_descriptor(field)},
        config={"levels": levels_list, "window": [lo.tolist(), hi.tolist()],
                "spacing": spacing, "samples": samples,
                "tolerance_profile": tolerance_profile},
        seed=seed)
    rec = asymptotics.recession_report(field, levels_list, lo, hi, spacing)
    manifest.config["dims"] = list(rec.dims)
    pts = field.sample_points(samples, rng)
    scan_res = rigidity.constancy_scan(field, pts)
    nonneg = scan_res.ric_min >= -ric_tol
    verdict = rigidity.classify_global(scan_res, rec.boundary_points, nonneg_ricci=nonneg,
                                       product_tol=product_tol, var_tol=var_tol)
    payload = rigidity.verdict_report(verdict, scan_res, rec.boundary_points)
    payload["nonneg_ricci_on_samples"] = bool(nonneg)
    payload["recession"] = asymptotics.recession_json(rec)
    _echo(_emit(payload, manifest, out, "classify.json"))


@main.command()
@surface_opt
@click.option("--grid", "grid_spec", required=True, help="Solve grid 'lo:hi:nodes'.")
@click.option("--p", "p_value", default=None, type=float,
              help="Dirichlet exponent (default: the dimension n).")
@out_opt
def solve(surface, grid_spec, p_value, out):
    """p-harmonic Dirichlet solve with boundary data h = log f.

    With --out, writes the solution grid and energy_trace.csv, whose step column is
    the accepted length along the preconditioned descent direction.
    """
    field = _load_surface(surface)
    lo, hi, spacing = _window(field, grid_spec)
    p = float(p_value) if p_value is not None else float(field.n)
    if p < 2:
        raise click.UsageError(f"p must be >= 2, got {p}")
    manifest = RunManifest("solve", inputs={"surface": field_to_descriptor(field)},
                           config={"grid": grid_spec, "p": p})
    grid = sample_height_grid(field, lo, hi, spacing)
    grid = plaplace.tighten_boundary(grid)
    res = plaplace.solve_p_harmonic(grid, plaplace.SolverConfig(p=p))
    payload = {
        "converged": res.converged,
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "grad_norm": res.grad_norm,
        "final_energy": float(res.energy_trace[-1]),
        "backtracks": res.backtracks,
    }
    if out:
        os.makedirs(out, exist_ok=True)
        save_grid_function(res.grid, os.path.join(out, "solution.csv"),
                           os.path.join(out, "solution.json"))
        with open(os.path.join(out, "energy_trace.csv"), "w") as fh:
            fh.write("iteration,energy,step\n")
            steps = [0.0] + list(res.step_trace)
            for i, (e, s) in enumerate(zip(res.energy_trace, steps)):
                fh.write(f"{i},{format_float(float(e))},{format_float(float(s))}\n")
        manifest.outputs += ["solution.csv", "solution.json", "energy_trace.csv"]
    _echo(_emit(payload, manifest, out, "solve.json"))


@main.command()
@surface_opt
@click.option("--grid", "grid_spec", required=True, help="Probe box 'lo:hi:nodes'.")
@click.option("--p", "p_value", default=None, type=float,
              help="Dirichlet exponent (default: the dimension n).")
@out_opt
def probe(surface, grid_spec, p_value, out):
    """Viscosity comparison probe on one box: is h = log f p-subharmonic there?"""
    field = _load_surface(surface)
    lo, hi, spacing = _window(field, grid_spec)
    p = float(p_value) if p_value is not None else float(field.n)
    if p < 2:
        raise click.UsageError(f"p must be >= 2, got {p}")
    manifest = RunManifest("probe", inputs={"surface": field_to_descriptor(field)},
                           config={"grid": grid_spec, "p": p})
    result = plaplace.viscosity_probe(field, lo, hi, plaplace.SolverConfig(p=p),
                                      spacing=spacing)
    payload = {
        "subharmonic": result.subharmonic,
        "min_margin": result.min_margin,
        "tolerance": result.tolerance,
        "excised_nodes": result.excised_nodes,
        "spacing": result.spacing,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "backtracks": result.backtracks,
    }
    _echo(_emit(payload, manifest, out, "probe.json"))


@main.command()
@surface_opt
@click.option("--levels", default="1,2,3,4", show_default=True)
@click.option("--grid", "grid_spec", default=None,
              help="Window 'lo:hi:nodes' (default: as for classify).")
@out_opt
def boundary(surface, levels, grid_spec, out):
    """Recession-set report: sublevel components and boundary-point count."""
    field = _load_surface(surface)
    levels_list = _parse_levels(levels)
    lo, hi, spacing = _window(field, grid_spec)
    manifest = RunManifest("boundary", inputs={"surface": field_to_descriptor(field)},
                           config={"levels": levels_list,
                                   "window": [lo.tolist(), hi.tolist()],
                                   "spacing": spacing})
    rep = asymptotics.recession_report(field, levels_list, lo, hi, spacing)
    manifest.config["dims"] = list(rep.dims)
    _echo(_emit(asymptotics.recession_json(rep), manifest, out, "boundary.json"))


@main.command()
@click.option("--suite", default="all", show_default=True,
              help="Criterion names (comma separated) or 'all'.")
@seed_opt
@out_opt
def verify(suite, seed, out):
    """Run the acceptance suite; nonzero exit on any failure."""
    names = None if suite == "all" else [s.strip() for s in suite.split(",")]
    try:
        results = acceptance.run_suite(
            names, seed=seed, echo=lambda line: click.echo(line, file=sys.stdout))
    except KeyError as exc:
        raise click.UsageError(str(exc))
    manifest = RunManifest("verify", config={"suite": suite}, seed=seed)
    payload = {
        "passed": all(r.passed for r in results),
        "criteria": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                      "elapsed": r.elapsed} for r in results],
    }
    if out:
        _emit(payload, manifest, out, "verify.json")
    if not payload["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
