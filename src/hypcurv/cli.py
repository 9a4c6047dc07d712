"""Command-line front end: analyze, scan, classify, solve, probe, boundary, verify.

Reports are JSON (17 significant digits, manifest embedded) or CSV with a manifest
sidecar.  Exit codes: 0 success, 1 verification/numeric failure, 2 usage error.  A
library error (``HypcurvError``) in any command prints ``{"error": ...}`` to stderr
and exits 1.
"""

from __future__ import annotations

import functools
import os
import sys

import click
import numpy as np

from . import acceptance, asymptotics, plaplace, rigidity
from .curvature import fd_residuals, fundamental_forms
from .errors import HypcurvError, ParameterError
from .gridfn import save_grid_function
from .heightfield import (FD_STEP, check_node_budget, field_from_json, field_to_descriptor,
                          sample_height_grid)
from .inequalities import grad_direction_ricci, point_regime_report, scan_field
from .reportio import RunManifest, csv_rows, dumps


def _parse_tuple(text: str) -> np.ndarray:
    try:
        values = np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise click.UsageError(f"cannot parse tuple {text!r}: {exc}")
    if not np.isfinite(values).all():
        raise click.UsageError(f"tuple {text!r} holds a non-finite value")
    return values


def _parse_grid(text: str, n: int):
    """Grid spec 'lo1,..,lon:hi1,..,hin:nodes' of an n-dimensional surface ->
    (lo, hi, nodes); ParameterError for a lattice of nodes^n over the node budget."""
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
    check_node_budget((nodes,) * n)
    return lo, hi, nodes


def _window(field, grid_spec):
    """(lo, hi, spacing) of the grid spec, spacing from axis 0.

    Without a spec: a cube of side min(hi - lo)/4 centred on the field's domain, with
    the largest odd node count per axis, at most 65, whose lattice holds at most 65^3
    nodes (65 up to n = 3, 21 at n = 4, 3 at n = 11, ParameterError from n = 12).  An
    odd count puts a node on the centre, where a cone's apex sits.
    """
    if grid_spec is None:
        centre = 0.5 * (field.domain.lo + field.domain.hi)
        half = float(np.min(field.domain.hi - field.domain.lo)) / 8
        nodes = next((k for k in range(65, 2, -2) if k ** field.n <= 65 ** 3), None)
        if nodes is None:
            raise ParameterError(f"the default window cannot hold 3^{field.n} > 65^3 "
                                 "nodes; give the window with --grid")
        lo, hi = centre - half, centre + half
    else:
        lo, hi, nodes = _parse_grid(grid_spec, field.n)
    return lo, hi, float((hi[0] - lo[0]) / (nodes - 1))


def _recession(field, manifest, levels, grid_spec, **config):
    """The recession report on the ``--grid`` window; its config goes in the manifest."""
    lo, hi, spacing = _window(field, grid_spec)
    manifest.config.update(levels=levels, window=[lo.tolist(), hi.tolist()],
                           spacing=spacing, **config)
    rec = asymptotics.recession_report(field, levels, lo, hi, spacing)
    manifest.config["dims"] = list(rec.dims)
    return rec


def _write(out: str, name: str, text: str):
    """Write ``text`` to out/name, making the directory if needed."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w") as fh:
        fh.write(text)


def _emit(payload: dict, manifest: RunManifest, out: str, name: str) -> str:
    """The JSON report: the manifest, then the payload; also written to out/name."""
    text = dumps({"manifest": manifest.to_dict(), **payload})
    if out:
        _write(out, name, text)
    return text


def _echo(text: str):
    # an explicit stream: click caches its default stream per sys.stdout object and
    # so keeps every redirected stdout, with its report, alive in-process
    click.echo(text, nl=False, file=sys.stdout)


class _Checked(click.ParamType):
    """Option text read by ``parse``; its ValueError (ParameterError too) exits 2."""

    def __init__(self, name: str, parse):
        self.name, self.parse = name, parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


surface_opt = click.option("--surface", required=True, type=click.Path(exists=True),
                           help="Surface descriptor JSON.")
out_opt = click.option("--out", default=None, type=click.Path(), help="Output directory.")
seed_opt = click.option("--seed", default=7, type=click.IntRange(min=0), show_default=True,
                        help="Seed for randomized sample points.")
p_opt = click.option("--p", default=None,
                     type=_Checked("p", lambda t: plaplace.SolverConfig(p=float(t)).p),
                     help="Dirichlet exponent, finite and >= 2 (default: the dimension n).")
levels_opt = click.option(
    "--levels", default="1,2,3,4", show_default=True,
    type=_Checked("levels", lambda t: asymptotics._check_levels(_parse_tuple(t))),
    help="Sublevel depths for the recession analysis, finite and strictly increasing.")
window_opt = click.option("--grid", "grid_spec", default=None,
                          help="Analysis window 'lo:hi:nodes' (default: a cube of side "
                               "min(hi - lo)/4 centred on the domain, 65 nodes).")


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


def _command(report: str | None = None):
    """Register a command with ``--surface``, the body's own options and ``--out``.

    It loads the descriptor (exit 2 if invalid) and calls ``body(field, manifest, out,
    **options)``, which fills the manifest's config and outputs and returns the payload.
    The report is printed and written to out/<command>.json, or, for a body that prints
    its own output, only written to out/``report``."""
    def decorate(body):
        @functools.wraps(body, updated=())
        def run(surface, out, **options):
            try:
                field = field_from_json(surface)
            except (HypcurvError, KeyError, ValueError, OSError) as exc:
                raise click.UsageError(f"invalid surface descriptor {surface}: {exc}")
            manifest = RunManifest(body.__name__, {"surface": field_to_descriptor(field)})
            payload = body(field, manifest, out, **options)
            if report is None:
                _echo(_emit(payload, manifest, out, f"{body.__name__}.json"))
            elif out:
                _emit(payload, manifest, out, report)

        # click lists options in the reverse order of __click_params__ (not copied by wraps)
        out_opt(run)
        run.__click_params__ += getattr(body, "__click_params__", [])
        return main.command()(surface_opt(run))
    return decorate


@_command()
@click.option("--point", required=True, help="Evaluation point, comma separated.")
@click.option("--step", default=None, type=float, help="FD step for residuals.")
def analyze(field, manifest, out, point, step):
    """Curvature and inequality report at one point."""
    x = _parse_tuple(point)
    if step is None:
        step = FD_STEP * max(1.0, float(np.linalg.norm(x)))
    manifest.config.update(point=x.tolist(), step=step)
    jet = field.jet(x)
    regime = point_regime_report(jet)
    spec = regime.spectrum
    codazzi, gauss = fd_residuals(field, x[None], step)
    report = {
        "x": x.tolist(),
        "f": jet.f,
        "g": fundamental_forms(*jet.stacked()).metric[0].tolist(),
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
    return report


@_command(report="scan.manifest.json")
@click.option("--grid", "grid_spec", required=True, help="Scan grid 'lo:hi:nodes'.")
def scan(field, manifest, out, grid_spec):
    """CSV scan of curvature quantities over a point grid."""
    lo, hi, nodes = _parse_grid(grid_spec, field.n)
    axes = [np.linspace(lo[d], hi[d], nodes) for d in range(field.n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, field.n)
    inside = field.contains_array(pts)
    pts = pts[inside]
    manifest.config.update(grid=grid_spec, scanned_points=len(pts),
                           dropped_points=int(np.count_nonzero(~inside)))
    table = scan_field(field, pts)
    n = field.n
    header = [*(f"x{i+1}" for i in range(n)), "f", "H", *(f"kappa{i+1}" for i in range(n)),
              "min_ric_eig", "A", "B", "AB_minus_nm1", "density", "regime"]
    text = ",".join(header) + "\n" + csv_rows(table.values,
                                              {len(header) - 1: table.regimes})
    _echo(text)
    if out:
        _write(out, "scan.csv", text)
        manifest.outputs.append("scan.csv")
    return {}


@_command()
@levels_opt
@window_opt
@click.option("--samples", default=100, type=click.IntRange(min=1), show_default=True,
              help="Curvature sample count.")
@seed_opt
@click.option("--tolerance-profile", default="fd",
              type=click.Choice(list(rigidity.TOLERANCE_PROFILES)), show_default=True,
              help="Tolerances for classification thresholds.")
def classify(field, manifest, out, levels, grid_spec, samples, seed, tolerance_profile):
    """Global verdict: rigidity constancy scan + recession-set count."""
    ric_tol, product_tol, var_tol = rigidity.TOLERANCE_PROFILES[tolerance_profile]
    manifest.seed = seed
    rec = _recession(field, manifest, levels, grid_spec, samples=samples,
                     tolerance_profile=tolerance_profile)
    pts = field.sample_points(samples, np.random.default_rng(seed))
    scan_res = rigidity.constancy_scan(field, pts)
    nonneg = scan_res.ric_min >= -ric_tol
    verdict = rigidity.classify_global(scan_res, rec.boundary_points, nonneg_ricci=nonneg,
                                       product_tol=product_tol, var_tol=var_tol)
    return {**rigidity.verdict_report(verdict, scan_res, rec.boundary_points),
            "nonneg_ricci_on_samples": bool(nonneg),
            "recession": asymptotics.recession_json(rec)}


@_command()
@click.option("--grid", "grid_spec", required=True, help="Solve grid 'lo:hi:nodes'.")
@p_opt
def solve(field, manifest, out, grid_spec, p):
    """p-harmonic Dirichlet solve with boundary data h = log f.

    With --out, writes the solution grid and energy_trace.csv, whose row 0 holds the
    energy of the descent's chosen start (the samples of h or the p=2 predictor) and
    whose step column is the accepted length along the preconditioned descent
    direction.
    """
    lo, hi, spacing = _window(field, grid_spec)
    p = float(field.n) if p is None else p
    manifest.config.update(grid=grid_spec, p=p)
    grid = plaplace.tighten_boundary(sample_height_grid(field, lo, hi, spacing))
    res = plaplace.solve_p_harmonic(grid, plaplace.SolverConfig(p=p))
    if out:
        trace = np.column_stack([res.energy_trace, np.append(0.0, res.step_trace)])
        _write(out, "energy_trace.csv", "iteration,energy,step\n"
               + csv_rows(trace, {0: range(len(trace))}))
        save_grid_function(res.grid, os.path.join(out, "solution.csv"),
                           os.path.join(out, "solution.json"))
        manifest.outputs += ["solution.csv", "solution.json", "energy_trace.csv"]
    return {"converged": res.converged, "iterations": res.iterations,
            "stop_reason": res.stop_reason, "grad_norm": res.grad_norm,
            "final_energy": float(res.energy_trace[-1]), "backtracks": res.backtracks,
            "held_nodes": res.held_nodes}


@_command()
@click.option("--grid", "grid_spec", required=True, help="Probe box 'lo:hi:nodes'.")
@p_opt
def probe(field, manifest, out, grid_spec, p):
    """Viscosity comparison probe on one box: is h = log f p-subharmonic there?"""
    lo, hi, spacing = _window(field, grid_spec)
    p = float(field.n) if p is None else p
    manifest.config.update(grid=grid_spec, p=p)
    result = plaplace.viscosity_probe(field, lo, hi, plaplace.SolverConfig(p=p),
                                      spacing=spacing)
    return {key: getattr(result, key) for key in (
        "subharmonic", "min_margin", "tolerance", "excised_nodes", "spacing",
        "iterations", "stop_reason", "grad_norm", "backtracks", "held_nodes")}


@_command()
@levels_opt
@window_opt
def boundary(field, manifest, out, levels, grid_spec):
    """Recession-set report: sublevel components and boundary-point count."""
    return asymptotics.recession_json(_recession(field, manifest, levels, grid_spec))


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
    _emit(payload, manifest, out, "verify.json")
    if not payload["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
