"""Seeded inputs and the operations of the three workloads.

A workload is a fixed list of operations, run in whole rounds by one closed-loop
client. Each operation has a ``kind`` that names the end-to-end metric its time
feeds, a timed ``call`` into hypcurv (the click ``main`` with real CLI arguments,
or a named library entry point) and an untimed ``check`` from ``checks``.

Every workload carries every operation kind, so that each run reports every
end-to-end metric. The kinds a workload is about form its body; the others are
small companion operations (27-point catalog and sampled-grid scans, two
``analyze`` calls, 9^3 cold-start and CLI solves and an apex probe, or one small
``classify``), kept to a few percent of the round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from checks import Surface

WORKLOADS = ("scan", "classify", "dirichlet")
#: fundamental-solution box of the cold-start ladder and of the CLI solve
SOLVE_LO, SOLVE_HI = (0.5, -0.5, -0.5), (1.5, 0.5, 0.5)
LADDER = (17, 25, 33)
#: classify: sublevel depths, lattice nodes per axis and curvature samples
LEVELS = "1,2,3,4"
CLASSIFY_NODES = 65
CLASSIFY_SAMPLES = 400
CLASSIFY_SLOPES = (1.2, 1.8, 2.6)


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], object]
    points: int = 0


@dataclass
class Workload:
    descriptors: list
    ops: list
    round_checks: list = field(default_factory=list)


def fmt(values) -> str:
    return ",".join(repr(float(v)) for v in np.atleast_1d(values))


def grid_spec(lo, hi, nodes: int) -> str:
    return f"{fmt(lo)}:{fmt(hi)}:{nodes}"


class Inputs:
    """Writes descriptor files into ``work`` and remembers which surface each is."""

    def __init__(self, work: str):
        self.work = work
        self.paths = []

    def catalog(self, name: str, surface: Surface) -> str:
        path = os.path.join(self.work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(surface.descriptor(), fh)
        self.paths.append(path)
        return path

    def sampled(self, name: str, surface: Surface, lo, nodes: int, spacing: float) -> str:
        """A ``sampled_grid`` descriptor of the surface's closed-form values."""
        lo = np.asarray(lo, float)
        axes = [lo[d] + spacing * np.arange(nodes) for d in range(surface.n)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, surface.n)
        values = [surface.f(x) for x in pts]
        idx = np.stack(np.meshgrid(*[np.arange(nodes)] * surface.n, indexing="ij"),
                       axis=-1).reshape(-1, surface.n)
        face = np.any((idx == 0) | (idx == nodes - 1), axis=1)
        with open(os.path.join(self.work, f"{name}.csv"), "w") as fh:
            fh.write("value,boundary\n")
            fh.writelines(f"{v!r},{int(b)}\n" for v, b in zip(values, face))
        with open(os.path.join(self.work, f"{name}.header.json"), "w") as fh:
            json.dump({"dims": [nodes] * surface.n, "spacing": spacing,
                       "origin": lo.tolist()}, fh)
        path = os.path.join(self.work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"kind": "sampled_grid", "values_csv": f"{name}.csv",
                       "header_json": f"{name}.header.json"}, fh)
        self.paths.append(path)
        return path


def draw_surfaces(rng) -> dict:
    """Catalog parameters drawn from the seed."""
    b = float(rng.uniform(0.9, 1.1))
    return {
        "cones": [Surface("equidistant_cone", 3, {"slope": float(rng.uniform(lo, hi))})
                  for lo, hi in ((0.5, 0.8), (1.0, 1.5), (2.0, 3.0))],
        "cone4": Surface("equidistant_cone", 4, {"slope": float(rng.uniform(0.8, 1.5))}),
        "cap": Surface("geodesic_sphere_cap", 3,
                       {"center_height": b * float(rng.uniform(1.8, 2.2)),
                        "euclidean_radius": b}),
        "horosphere": Surface("horosphere", 3, {"c": float(rng.uniform(0.6, 1.8))}),
        "plane": Surface("tilted_plane", 3, {"slope": float(rng.uniform(0.5, 2.0))}),
    }


def analyze_point(surface: Surface, rng) -> np.ndarray:
    """A point well inside the surface's domain and away from the cone apex."""
    n = surface.n
    if surface.kind == "equidistant_cone":
        u = rng.normal(size=n)
        return u / np.linalg.norm(u) * rng.uniform(0.6, 1.4)
    if surface.kind == "geodesic_sphere_cap":
        half = 0.25 * surface.params["euclidean_radius"]
        return rng.uniform(-half, half, size=n)
    if surface.kind == "tilted_plane":
        return np.concatenate([[rng.uniform(1.0, 2.0)], rng.uniform(-0.5, 0.5, n - 1)])
    return rng.uniform(-1.0, 1.0, size=n)


def exact_log_norm(lo, nodes: int) -> tuple:
    """log|x| on the cubic lattice with ``nodes`` per axis from ``lo``; and its spacing."""
    h = 1.0 / (nodes - 1)
    axes = [lo[d] + h * np.arange(nodes) for d in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return 0.5 * np.log(mesh[0] ** 2 + mesh[1] ** 2 + mesh[2] ** 2), h


class Builder:
    """Turns seeded inputs into operations on the hypcurv modules ``cli``, ``plaplace``
    and ``gridfn``."""

    def __init__(self, cli, plaplace, gridfn, seed: int, work: str):
        self.cli, self.plaplace, self.gridfn = cli, plaplace, gridfn
        self.seed = seed
        self.work = work

    def run_cli(self, *args) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.cli.main.main(args=[str(a) for a in args], prog_name="hypcurv",
                               standalone_mode=False)
        return buf.getvalue()

    # -- operations -------------------------------------------------------------------
    def scan(self, path, surface, lo, hi, nodes, kind="scan", label=None) -> Op:
        count = nodes ** surface.n

        def check(text):
            rows = checks.parse_scan_csv(text, surface.n)
            if kind == "scan":
                return checks.check_catalog_rows(rows, surface, count)
            return checks.sampled_kappa_error(rows, surface, count)

        return Op(kind, label or f"{kind} {os.path.basename(path)}", lambda: self.run_cli(
            "scan", "--surface", path, "--grid", grid_spec(lo, hi, nodes)), check, count)

    def analyze(self, path, surface, x) -> Op:
        return Op("analyze", f"analyze {os.path.basename(path)} {fmt(x)}",
                  lambda: self.run_cli("analyze", "--surface", path, "--point", fmt(x)),
                  lambda text: checks.check_analyze(json.loads(text), surface))

    def classify(self, path, surface, half, nodes, samples) -> Op:
        lo, hi = -half * np.ones(3), half * np.ones(3)
        spacing = 2 * half / (nodes - 1)
        return Op("classify", f"classify {os.path.basename(path)}",
                  lambda: self.run_cli("classify", "--surface", path, "--levels", LEVELS,
                                       "--grid", grid_spec(lo, hi, nodes),
                                       "--samples", samples, "--seed", self.seed),
                  lambda text: checks.check_classify(json.loads(text), surface, spacing))

    def probe(self, path, surface, lo, hi, nodes, excised=0) -> Op:
        spacing = (hi[0] - lo[0]) / (nodes - 1)
        return Op("probe", f"probe {os.path.basename(path)} {nodes}",
                  lambda: self.run_cli("probe", "--surface", path,
                                       "--grid", grid_spec(lo, hi, nodes)),
                  lambda text: checks.check_probe(json.loads(text), surface, spacing,
                                                  excised))

    def cold_solve(self, nodes, kind) -> Op:
        """p=3 solve of log|x| from a constant start, through solve_p_harmonic."""
        exact, h = exact_log_norm(SOLVE_LO, nodes)
        start = self.gridfn.GridFunction((nodes,) * 3, h, np.asarray(SOLVE_LO), exact.copy())
        start.values[start.interior_mask()] = float(np.mean(exact[start.boundary_mask]))

        def check(res):
            label = f"cold solve {nodes}^3"
            checks.expect(res.converged, f"{label} did not converge")
            checks.check_monotone(res.energy_trace, label)
            return checks.fundamental_error(res.grid.values, exact, h, label)

        config = self.plaplace.SolverConfig(p=3.0)
        return Op(kind, f"cold solve {nodes}", lambda: self.plaplace.solve_p_harmonic(
            start, config), check)

    def cli_solve(self, path, surface, nodes) -> Op:
        """CLI ``solve`` (warm start from h itself) on a cone, whose h is log(s|x|)."""
        out = os.path.join(self.work, f"solve{nodes}")
        exact, h = exact_log_norm(SOLVE_LO, nodes)
        exact = exact + math.log(surface.params["slope"])

        def check(text):
            doc = json.loads(text)
            checks.expect(doc["converged"] is True, "CLI solve did not converge")
            trace = np.loadtxt(os.path.join(out, "energy_trace.csv"), delimiter=",",
                               skiprows=1, ndmin=2)
            checks.check_monotone(trace[:, 1], "CLI solve")
            with open(os.path.join(out, "solution.json")) as fh:
                header = json.load(fh)
            checks.expect(header["dims"] == [nodes] * 3, f"CLI solve dims {header['dims']}")
            sol = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",", skiprows=1)
            checks.fundamental_error(sol[:, 0].reshape(exact.shape), exact, h, "CLI solve")

        return Op("cli_solve", f"cli solve {nodes}", lambda: self.run_cli(
            "solve", "--surface", path, "--grid", grid_spec(SOLVE_LO, SOLVE_HI, nodes),
            "--p", "3", "--out", out), check)

    # -- workloads ----------------------------------------------------------------------
    def build(self, name: str, rng) -> Workload:
        inputs = Inputs(self.work)
        s = draw_surfaces(rng)
        j = rng.uniform(0.0, 0.05, size=4)
        lo3 = np.array([0.5, -0.5, -0.5])
        if name == "scan":
            return self._scan(inputs, s, rng, j, lo3)
        if name == "classify":
            return self._classify(inputs, s, rng, j, lo3)
        if name == "dirichlet":
            return self._dirichlet(inputs, s, rng, j, lo3)
        raise ValueError(f"unknown workload {name!r}")

    def _companion_scans(self, inputs, s, rng, j, lo3) -> list:
        """27-point catalog and sampled-grid scans and two analyze calls."""
        cone = s["cones"][1]
        path = inputs.catalog("cone", cone)
        grid = inputs.sampled("cone_grid", cone, lo3, 11, 0.1)
        centre = np.array([0.7, -0.3, -0.3]) + j[:3]
        cap_path = inputs.catalog("cap", s["cap"])
        return [self.scan(path, cone, lo3 + j[:3], lo3 + 1 + j[:3], 3),
                self.scan(grid, cone, centre, centre + 0.6, 3, kind="sampled"),
                self.analyze(path, cone, analyze_point(cone, rng)),
                self.analyze(cap_path, s["cap"], analyze_point(s["cap"], rng))]

    def _companion_classify(self, inputs) -> Op:
        cone = Surface("equidistant_cone", 3, {"slope": CLASSIFY_SLOPES[1]})
        return self.classify(inputs.catalog("companion_cone", cone), cone, 0.5, 33, 100)

    def _companion_solves(self, inputs) -> list:
        """9^3 cold-start and CLI solves and an apex probe; fixed, like every solver input."""
        cone = Surface("equidistant_cone", 3, {"slope": 1.0})
        path = inputs.catalog("solver_cone", cone)
        return [self.cold_solve(9, "solve"), self.cli_solve(path, cone, 9),
                self.probe(path, cone, -0.5 * np.ones(3), 0.5 * np.ones(3), 9, excised=1)]

    def _scan(self, inputs, s, rng, j, lo3) -> Workload:
        b = s["cap"].params["euclidean_radius"]
        ops = []
        for i, cone in enumerate(s["cones"]):
            path = inputs.catalog(f"cone{i}", cone)
            ops.append(self.scan(path, cone, lo3 + j[:3], lo3 + 1 + j[:3], 7))
        cone4 = s["cone4"]
        lo4 = np.array([0.5, -0.5, -0.5, -0.5]) + j
        ops.append(self.scan(inputs.catalog("cone4", cone4), cone4, lo4, lo4 + 1, 5))
        cap_half = 0.25 * b
        paths = {"cap": inputs.catalog("cap", s["cap"]),
                 "horosphere": inputs.catalog("horosphere", s["horosphere"]),
                 "plane": inputs.catalog("plane", s["plane"])}
        ops.append(self.scan(paths["cap"], s["cap"], -cap_half + b * j[:3],
                             cap_half + b * j[:3], 7))
        ops.append(self.scan(paths["horosphere"], s["horosphere"], -1 + j[:3], 1 + j[:3], 7))
        lo_plane = np.array([1.0, -0.5, -0.5]) + j[:3]
        ops.append(self.scan(paths["plane"], s["plane"], lo_plane, lo_plane + 1, 7))

        # sampled grids of a cone and the cap at two spacings, scanned at one lattice
        cone = s["cones"][1]
        cap = s["cap"]
        centre_cone = np.array([0.7, -0.3, -0.3]) + j[:3]
        centre_cap = (-0.15 + 0.6 * j[:3]) * b
        sampled = []
        for nodes, spacing in ((11, 0.1), (21, 0.05)):
            grid = inputs.sampled(f"cone_grid{nodes}", cone, lo3, nodes, spacing)
            sampled.append(self.scan(grid, cone, centre_cone, centre_cone + 0.6, 3,
                                     kind="sampled", label=f"sampled cone {nodes}"))
        for nodes in (11, 21):
            grid = inputs.sampled(f"cap_grid{nodes}", cap, -0.3 * b * np.ones(3), nodes,
                                  0.6 * b / (nodes - 1))
            sampled.append(self.scan(grid, cap, centre_cap, centre_cap + 0.3 * b, 3,
                                     kind="sampled", label=f"sampled cap {nodes}"))
        ops += sampled

        for name, surface in (("cone0", s["cones"][0]), ("cone2", s["cones"][2]),
                              ("cone4", cone4), ("cap", cap),
                              ("horosphere", s["horosphere"]), ("plane", s["plane"])):
            path = os.path.join(self.work, f"{name}.json")
            ops += [self.analyze(path, surface, analyze_point(surface, rng))
                    for _ in range(4)]

        ops += [self._companion_classify(inputs)] + self._companion_solves(inputs)

        def sampled_orders(results):
            for tag in ("cone", "cap"):
                checks.check_sampled_order(results[f"sampled {tag} 11"],
                                           results[f"sampled {tag} 21"], f"sampled {tag}")

        return Workload(inputs.paths, ops, [sampled_orders])

    def _classify(self, inputs, s, rng, j, lo3) -> Workload:
        ops = []
        # the sublevel work grows as slope^-3, so the slopes are fixed and the seed
        # picks the curvature samples, the horosphere height and the cap
        for i, slope in enumerate(CLASSIFY_SLOPES):
            cone = Surface("equidistant_cone", 3, {"slope": slope})
            path = inputs.catalog(f"classify_cone{i}", cone)
            ops.append(self.classify(path, cone, 0.5, CLASSIFY_NODES, CLASSIFY_SAMPLES))
        horo = s["horosphere"]
        ops.append(self.classify(inputs.catalog("horosphere", horo), horo, 0.5,
                                 CLASSIFY_NODES, CLASSIFY_SAMPLES))
        cap = s["cap"]
        cap_half = round(0.3 * cap.params["euclidean_radius"], 6)
        ops.append(self.classify(inputs.catalog("classify_cap", cap), cap, cap_half,
                                 CLASSIFY_NODES, CLASSIFY_SAMPLES))
        ops += self._companion_scans(inputs, s, rng, j, lo3) + self._companion_solves(inputs)
        return Workload(inputs.paths, ops)

    def _dirichlet(self, inputs, s, rng, j, lo3) -> Workload:
        # The solver's iteration count moves with the rounding of its input (see
        # CHANGES.md), so every solver input here is fixed; the seed picks only the
        # horosphere height (a constant h, which the solver accepts at once) and
        # the companion inputs.
        ops = [self.cold_solve(n, "solve" if n == LADDER[-1] else "ladder") for n in LADDER]
        cone = Surface("equidistant_cone", 3, {"slope": 1.0})
        cone_path = inputs.catalog("probe_cone", cone)
        ops.append(self.cli_solve(cone_path, cone, 25))
        cap = Surface("geodesic_sphere_cap", 3, {"center_height": 2.0, "euclidean_radius": 1.0})
        plane = Surface("tilted_plane", 3, {"slope": 1.0})
        horo = s["horosphere"]
        ones = np.ones(3)
        ops += [
            self.probe(cone_path, cone, np.array(SOLVE_LO), np.array(SOLVE_HI), 17),
            self.probe(cone_path, cone, -0.5 * ones, 0.5 * ones, 9, excised=1),
            self.probe(inputs.catalog("probe_cap", cap), cap, -0.3 * ones, 0.3 * ones, 13),
            self.probe(inputs.catalog("horosphere", horo), horo, -0.5 * ones, 0.5 * ones, 17),
            # spacing 1/32: at 1/16 the plane's margin sits within 4% of the tolerance
            self.probe(inputs.catalog("probe_plane", plane), plane,
                       np.array([1.0, -0.5, -0.5]), np.array([2.0, 0.5, 0.5]), 33),
        ]
        # a round here is long, so the companions run twice for enough samples
        ops += 2 * (self._companion_scans(inputs, s, rng, j, lo3)
                    + [self._companion_classify(inputs)])

        def ladder_order(results):
            checks.check_ladder({n: results[f"cold solve {n}"] for n in LADDER})

        return Workload(inputs.paths, ops, [ladder_order])
