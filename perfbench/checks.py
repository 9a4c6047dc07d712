"""Output checks for the benchmark, computed apart from hypcurv.

Every expected value comes from a closed form of the surface catalog or from a
property the method must have (an identity, a bound, a convergence order). None is
a stored copy of an earlier run's output. Each check raises CheckFailure with a
one-line reason; it imports nothing from hypcurv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: relative tolerance for closed-form values computed in double precision
TOL = 1e-9
#: Codazzi and Gauss residual ceiling for ``analyze`` at its default FD step
RESIDUAL_MAX = 1e-4
#: least convergence order of sampled-grid curvatures when the spacing halves
SAMPLED_ORDER_MIN = 2.0
#: least convergence order of the p=3 fundamental-solution error along the ladder
LADDER_ORDER_MIN = 1.8
#: error ceiling of the p=3 fundamental solution on the 33^3 grid
FUNDAMENTAL_ERR_MAX = 1e-3
#: second-order error constant: every solve must reach |u - log|x|| <= C h^2
FUNDAMENTAL_ERR_CONST = 0.5
#: slack, in lattice spacings, between a cone sublevel diameter and 2 e^-M / s
DIAMETER_SLACK = 4.0


class CheckFailure(AssertionError):
    """An output of the program disagrees with its closed form or property."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


def expect_close(name: str, got, want, tol: float = TOL):
    got, want = float(got), float(want)
    expect(abs(got - want) <= tol * max(1.0, abs(want)),
           f"{name}: got {got!r}, closed form {want!r}")


@dataclass(frozen=True)
class Surface:
    """A catalog surface with the closed forms the checks compare against.

    ``kind`` and ``params`` are exactly what the hypcurv descriptor holds.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, **self.params}

    def f(self, x) -> float:
        x = np.asarray(x, float)
        p = self.params
        if self.kind == "horosphere":
            return p["c"]
        if self.kind == "geodesic_sphere_cap":
            return p["center_height"] - math.sqrt(p["euclidean_radius"] ** 2 - float(x @ x))
        if self.kind == "equidistant_cone":
            return p["slope"] * float(np.linalg.norm(x))
        if self.kind == "tilted_plane":
            return p["slope"] * float(x[0])
        raise ValueError(self.kind)

    def kappas(self) -> np.ndarray:
        """Ascending principal curvatures (the same at every point of each kind)."""
        p, n = self.params, self.n
        if self.kind == "horosphere":
            return np.ones(n)
        if self.kind == "geodesic_sphere_cap":
            return np.full(n, p["center_height"] / p["euclidean_radius"])
        if self.kind == "equidistant_cone":
            q = math.sqrt(1.0 + p["slope"] ** 2)
            return np.array([1.0 / q] + [q] * (n - 1))
        if self.kind == "tilted_plane":
            return np.full(n, 1.0 / math.sqrt(1.0 + p["slope"] ** 2))
        raise ValueError(self.kind)

    def ricci_eigs(self) -> np.ndarray:
        """Ascending Ricci eigenvalues -(n-1) + kappa_i H - kappa_i^2 (Gauss equation)."""
        k = self.kappas()
        return np.sort(-(self.n - 1) + k * k.sum() - k * k)

    def factors(self) -> tuple:
        """(A, B): A is the normal curvature along Df, B = H - A.

        On the umbilic kinds every direction has curvature kappa; on the cone the
        gradient is radial, the direction of the single curvature 1/sqrt(1+s^2).
        """
        k = self.kappas()
        return float(k[0]), float(k.sum() - k[0])

    def density(self, x) -> float:
        """Adapted-frame density (n-1)(log f)_11 + sum_{i>=2} (log f)_ii.

        Where Df = 0 the program reports Delta log f instead, and so does this.
        """
        x = np.asarray(x, float)
        n, p = self.n, self.params
        if self.kind in ("horosphere", "equidistant_cone"):
            return 0.0
        if self.kind == "tilted_plane":
            return -(n - 1) / float(x[0]) ** 2
        a, b = p["center_height"], p["euclidean_radius"]
        r2 = float(x @ x)
        w = math.sqrt(b * b - r2)
        f = a - w
        if r2 == 0.0:
            return n / (b * f)
        u_rr = b * b / (w ** 3 * f) - r2 / (w * w * f * f)
        u_tt = 1.0 / (w * f)
        return (n - 1) * (u_rr + u_tt)

    def regime(self) -> str:
        """Strongest convexity regime the closed-form curvatures satisfy.

        Cone: kappa_0 kappa_t = 1 and one Ricci eigenvalue is exactly 0, so it is
        NonnegSectional but not Horoconvex (kappa_0 < 1). Plane: kappa < 1 gives
        negative Ricci, so only StrictlyConvex. Cap (a/b > 1) and horosphere: all
        kappa >= 1, Horoconvex.
        """
        return {"horosphere": "Horoconvex", "geodesic_sphere_cap": "Horoconvex",
                "equidistant_cone": "NonnegSectional",
                "tilted_plane": "StrictlyConvex"}[self.kind]


# -- scan and analyze --------------------------------------------------------------------

def parse_scan_csv(text: str, n: int) -> list:
    """Rows of the ``scan`` CSV as dicts of floats (``regime`` stays a string)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    expect(len(header) == 2 * n + 8, f"scan header has {len(header)} columns")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        expect(len(cells) == len(header), f"scan row has {len(cells)} cells")
        rows.append({"x": np.array([float(c) for c in cells[:n]]),
                     "f": float(cells[n]), "H": float(cells[n + 1]),
                     "kappas": np.array([float(c) for c in cells[n + 2:2 * n + 2]]),
                     "min_ric": float(cells[2 * n + 2]), "A": float(cells[2 * n + 3]),
                     "B": float(cells[2 * n + 4]), "ab_defect": float(cells[2 * n + 5]),
                     "density": float(cells[2 * n + 6]), "regime": cells[2 * n + 7]})
    return rows


def check_row_identities(row: dict, n: int, tol: float = TOL):
    """Identities every scan row must satisfy, whatever the surface."""
    k, H = row["kappas"], row["H"]
    expect(np.all(np.diff(k) >= 0), f"kappas not ascending at {row['x']}")
    expect_close("H = sum kappa", H, k.sum(), tol)
    expect_close("A + B = H", row["A"] + row["B"], H, tol)
    expect_close("AB-(n-1)", row["ab_defect"], row["A"] * row["B"] - (n - 1), tol)
    ric = np.min(-(n - 1) + k * H - k * k)
    expect_close("min Ricci eigenvalue", row["min_ric"], ric, 10 * tol)


def check_catalog_rows(rows: list, surface: Surface, count: int):
    """Every row of a closed-form scan equals its closed form."""
    expect(len(rows) == count, f"{surface.kind}: {len(rows)} rows, lattice has {count}")
    n = surface.n
    kappas = surface.kappas()
    ric_min = surface.ricci_eigs()[0]
    A, B = surface.factors()
    for row in rows:
        check_row_identities(row, n)
        x = row["x"]
        expect_close(f"{surface.kind} f", row["f"], surface.f(x))
        for i in range(n):
            expect_close(f"{surface.kind} kappa{i + 1}", row["kappas"][i], kappas[i])
        expect_close(f"{surface.kind} H", row["H"], kappas.sum())
        expect_close(f"{surface.kind} min Ricci", row["min_ric"], ric_min)
        expect_close(f"{surface.kind} A", row["A"], A)
        expect_close(f"{surface.kind} B", row["B"], B)
        expect_close(f"{surface.kind} AB-(n-1)", row["ab_defect"], A * B - (n - 1))
        expect_close(f"{surface.kind} density", row["density"], surface.density(x))
        expect(row["regime"] == surface.regime(),
               f"{surface.kind}: regime {row['regime']} at {x}, expected {surface.regime()}")


def sampled_kappa_error(rows: list, surface: Surface, count: int) -> float:
    """Check a sampled-grid scan's identities; return its worst curvature error.

    Interpolated jets carry an O(h^3) error, so only the identities are exact here
    and the closed forms are met to a convergence order (see check_sampled_order).
    """
    expect(len(rows) == count, f"sampled {surface.kind}: {len(rows)} rows, expected {count}")
    worst = 0.0
    for row in rows:
        check_row_identities(row, surface.n, tol=1e-8)
        worst = max(worst, float(np.max(np.abs(row["kappas"] - surface.kappas()))))
    expect(worst <= 1e-2, f"sampled {surface.kind}: curvature error {worst:.3e} > 1e-2")
    return worst


def check_sampled_order(coarse_err: float, fine_err: float, label: str):
    """Curvature error must fall at order >= 2 when the sampling spacing halves."""
    expect(fine_err > 0 and coarse_err > 0, f"{label}: zero error cannot show an order")
    order = math.log2(coarse_err / fine_err)
    expect(order >= SAMPLED_ORDER_MIN,
           f"{label}: curvature error order {order:.2f} < {SAMPLED_ORDER_MIN}")


def check_analyze(doc: dict, surface: Surface):
    n = surface.n
    x = np.asarray(doc["x"], float)
    kappas = surface.kappas()
    expect_close("analyze f", doc["f"], surface.f(x))
    for i in range(n):
        expect_close(f"analyze kappa{i + 1}", doc["kappas"][i], kappas[i])
    expect_close("analyze H", doc["H"], kappas.sum())
    eigs = surface.ricci_eigs()
    for i in range(n):
        expect_close(f"analyze Ricci eigenvalue {i + 1}", doc["ricci_eigs"][i], eigs[i], 1e-8)
    for name in ("codazzi", "gauss"):
        r = doc["residuals"][name]
        expect(r <= RESIDUAL_MAX, f"analyze {name} residual {r:.3e} > {RESIDUAL_MAX}")
    A, B = surface.factors()
    expect_close("analyze A", doc["factors"][0], A)
    expect_close("analyze B", doc["factors"][1], B)
    expect_close("analyze density", doc["density"], surface.density(x))
    expect(doc["regime"] == surface.regime(),
           f"analyze regime {doc['regime']}, expected {surface.regime()}")


# -- classify ---------------------------------------------------------------------------

def check_classify(doc: dict, surface: Surface, spacing: float):
    """Verdict, boundary points, kappas and sublevel diameters against closed forms.

    Cone: h < -M is the ball |x| < e^-M / s, so every level has one component whose
    lattice diameter is at most 2 e^-M / s and at least that minus a few spacings.
    """
    bp = doc["boundary_points"]
    expect(bp <= 2, f"{surface.kind}: {bp} boundary points, the theorem allows at most 2")
    want = {"equidistant_cone": ("EquidistantTube", 2), "horosphere": ("Horosphere", 1),
            "geodesic_sphere_cap": ("Inconclusive", 0)}[surface.kind]
    expect((doc["verdict"], bp) == want,
           f"{surface.kind}: verdict {doc['verdict']} with {bp} points, expected {want}")
    kappas = surface.kappas()
    expect_close(f"{surface.kind} kappa0", doc["kappa0"], kappas[0])
    expect_close(f"{surface.kind} kappa_transverse", doc["kappa_transverse"], kappas[-1])
    if surface.kind != "equidistant_cone":
        return
    s = surface.params["slope"]
    for M, comp in zip(doc["recession"]["levels"], doc["recession"]["components"]):
        d, two_r = comp["max_diameter"], 2.0 * math.exp(-M) / s
        expect(comp["count"] == 1, f"cone level {M}: {comp['count']} components")
        expect(two_r - DIAMETER_SLACK * spacing <= d <= two_r + 1e-12,
               f"cone level {M}: diameter {d:.4f} vs 2e^-M/s = {two_r:.4f}")


# -- dirichlet --------------------------------------------------------------------------

def check_monotone(trace, label: str):
    trace = np.asarray(trace, float)
    expect(trace.size >= 1 and bool(np.all(np.diff(trace) <= 0.0)),
           f"{label}: energy trace increases")


def fundamental_error(values: np.ndarray, exact: np.ndarray, spacing: float,
                      label: str) -> float:
    """Max nodal error against log|x|; must be second order with a small constant."""
    err = float(np.max(np.abs(values - exact)))
    bound = FUNDAMENTAL_ERR_CONST * spacing ** 2
    expect(err <= bound, f"{label}: error {err:.3e} vs log|x| > {bound:.3e}")
    return err


def check_ladder(errors: dict):
    """Errors along the cold-start ladder {nodes: error}: accuracy and order."""
    nodes = sorted(errors)
    finest = errors[nodes[-1]]
    if nodes[-1] >= 33:
        expect(finest <= FUNDAMENTAL_ERR_MAX,
               f"{nodes[-1]}^3 error {finest:.3e} > {FUNDAMENTAL_ERR_MAX}")
    for a, b in zip(nodes, nodes[1:]):
        order = math.log(errors[a] / errors[b]) / math.log((b - 1) / (a - 1))
        expect(order >= LADDER_ORDER_MIN,
               f"ladder {a}^3 -> {b}^3: error order {order:.2f} < {LADDER_ORDER_MIN}")


def check_probe(doc: dict, surface: Surface, spacing: float, excised: int):
    """True where log f is n-subharmonic (cone, cap, horosphere), false on the plane."""
    want = surface.kind != "tilted_plane"
    expect(doc["subharmonic"] is want,
           f"{surface.kind} probe says {doc['subharmonic']}, expected {want}")
    tol = 10.0 * float(spacing) ** 2
    expect_close("probe tolerance", doc["tolerance"], tol)
    expect_close("probe spacing", doc["spacing"], spacing)
    expect(bool(doc["min_margin"] >= -tol) is want, f"{surface.kind} probe margin "
           f"{doc['min_margin']:.3e} contradicts its verdict at tolerance {tol:.3e}")
    expect(doc["excised_nodes"] == excised,
           f"{surface.kind} probe excised {doc['excised_nodes']} nodes, expected {excised}")
