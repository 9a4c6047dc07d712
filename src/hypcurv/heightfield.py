"""Graph hypersurfaces over domains in R^n and their second-order jets.

The upper half-space carries the hyperbolic metric, and every surface here is the
vertical graph of a positive function f over an axis-aligned box (minus optional
excised balls).  Every kind evaluates its jets over stacked points
(:meth:`HeightField.jet_array`).  The catalog kinds have exact closed-form jets:

* ``horosphere``          f = c                       (flat level set)
* ``geodesic_sphere_cap`` f = a -/+ sqrt(b^2 - |x|^2)  (Euclidean sphere, a > b > 0)
* ``equidistant_cone``    f = s|x|                    (tube about the vertical axis)
* ``tilted_plane``        f = s*x_1                   (tube about a vertical plane)
* ``sampled_grid``        lattice samples + local tensor-product interpolation

Jets from closed forms are cross-validated against central differences by
:func:`fd_validate_jet`, which is the module's independent oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .gridfn import GridFunction, box_face_mask, load_grid_function

__all__ = [
    "Jet2", "Box", "BallMask", "HeightField",
    "Horosphere", "GeodesicSphereCap", "EquidistantCone", "TiltedPlane", "SampledGridField",
    "make_catalog_surface", "field_from_descriptor", "field_from_json", "field_to_descriptor",
    "fd_validate_jet", "JetValidation", "sample_height_grid", "CATALOG_KINDS",
]

#: default finite-difference step before the max(1, |x|) scaling
FD_STEP = 1e-4
#: default radius of the mandatory excised ball at a cone apex
CONE_MASK_RADIUS = 1e-3
#: default tensor-product interpolation order (polynomial degree) for sampled grids
INTERP_ORDER = 4
#: points interpolated per batch by ``SampledGridField._interpolate``
VALUE_CHUNK = 4096

CATALOG_KINDS = ("horosphere", "geodesic_sphere_cap", "equidistant_cone",
                 "tilted_plane", "sampled_grid")


@dataclass(frozen=True)
class Jet2:
    """Point value, gradient and Hessian of the graph function f at x."""

    x: np.ndarray
    f: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        object.__setattr__(self, "hess", np.asarray(self.hess, dtype=float))
        _check_jets(self.x[None], np.array([self.f], dtype=float), self.hess[None])

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def grad_norm_sq(self) -> float:
        return float(self.grad @ self.grad)

    def stacked(self):
        """(f, Df, D2f) with a leading point axis of length 1, as ``jet_array`` returns."""
        return np.array([self.f], dtype=float), self.grad[None], self.hess[None]


def _check_jets(X, f, hess):
    """The invariants of a jet at stacked points X: f > 0 and a symmetric Hessian.

    Raises ParameterError naming the first point that fails.
    """
    bad = ~(f > 0)
    if bad.any():
        i = np.argmax(bad)
        raise ParameterError(f"graph value must be positive, got f={f[i]} at {X[i]}")
    asym = np.abs(hess - hess.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = asym > 1e-12 * np.abs(hess).max(axis=(-2, -1), initial=1.0)
    if bad.any():
        i = np.argmax(bad)
        raise ParameterError(
            f"Hessian not symmetric (max asymmetry {asym[i]:g}) at {X[i]}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_n, hi_n]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ParameterError("box needs lo < hi componentwise")

    def contains(self, x, margin: float = 0.0):
        """Is each point of x, shape (..., n), in the box shrunk by ``margin``?"""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo + margin) & (x <= self.hi - margin), axis=-1)


@dataclass(frozen=True)
class BallMask:
    """Excised open ball (singularity mask)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ParameterError("mask radius must be positive")


class HeightField:
    """Base class: a positive graph function with exact or interpolated jets."""

    kind = "abstract"
    #: does the natural domain of f extend beyond any analysis box?
    unbounded = False

    def __init__(self, n: int, domain: Box, masks=()):
        if n < 2:
            raise ParameterError(f"dimension must be >= 2, got n={n}")
        self.n = int(n)
        self.domain = domain
        self.masks = tuple(masks)

    # closed forms supplied by subclasses --------------------------------------------
    def _jet_array(self, X):
        """(f, Df, D2f) at points X of shape (P, n) that passed :meth:`_require`."""
        raise NotImplementedError

    def _value(self, x) -> float:
        return float(self._jet_array(x[None])[0][0])

    # public surface -----------------------------------------------------------------
    def contains(self, x) -> bool:
        """Is x in the box and outside every mask ball?"""
        x = np.asarray(x, dtype=float)
        return x.shape == (self.n,) and bool(self.contains_array(x))

    def contains_array(self, X) -> np.ndarray:
        """:meth:`contains` for each point of X, shape (..., n)."""
        X = np.asarray(X, dtype=float)
        return self.domain.contains(X) & ~_masked_points(self, X)

    def _require(self, X) -> np.ndarray:
        """Points X of shape (P, n); DomainError names the first outside box or masks."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DomainError(f"point has dimension {X.shape[1:]}, field has n={self.n}")
        outside = ~self.domain.contains(X)
        if outside.any():
            raise DomainError(f"point {X[np.argmax(outside)]} outside domain box")
        masked = _masked_points(self, X)
        if masked.any():
            raise DomainError(f"point {X[np.argmax(masked)]} inside an excised ball")
        return X

    def value(self, x) -> float:
        return self._value(self._require(np.asarray(x, dtype=float)[None])[0])

    def jet_array(self, X):
        """Jets at points X of shape (P, n): f (P,), Df (P, n) and D2f (P, n, n).

        Every point gets the checks of :meth:`jet`; the error names the first point
        that fails one.
        """
        X = self._require(X)
        f, df, hess = self._jet_array(X)
        _check_jets(X, f, hess)
        return f, df, hess

    def jet(self, x) -> Jet2:
        """Second-order jet of f at x (exact for catalog kinds): one-point ``jet_array``."""
        x = np.asarray(x, dtype=float)
        f, df, hess = self._jet_array(self._require(x[None]))
        return Jet2(x, float(f[0]), df[0], hess[0])  # Jet2 makes the checks of jet_array

    def height(self, x) -> float:
        """h = log f; -inf inside a mask ball (where f degenerates)."""
        x = np.asarray(x, dtype=float)
        if not self.domain.contains(x):
            raise DomainError(f"point {x} outside domain box")
        if _masked_points(self, x):
            return -math.inf
        v = self._value(x)
        return math.log(v) if v > 0 else -math.inf

    def value_array(self, X: np.ndarray) -> np.ndarray:
        """Vectorized f over points X of shape (..., n); every kind supplies its own."""
        raise NotImplementedError

    def height_array(self, X: np.ndarray) -> np.ndarray:
        """Vectorized h = log f with -inf at masked points; no domain-box check."""
        X = np.asarray(X, dtype=float)
        vals = self.value_array(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(_masked_points(self, X) | (vals <= 0), -np.inf,
                            np.log(np.maximum(vals, 1e-300)))

    def sample_points(self, count: int, rng, r_min: float = None, r_max: float = None,
                      margin: float = 0.0) -> np.ndarray:
        """Rejection-sample points from the domain box, optionally within a radius band.

        Candidates are drawn and filtered in blocks, and the generator is rewound to
        stop right after the count-th accepted one, so the points and the generator's
        final state are those of drawing one candidate at a time.  Gives up after
        100000 * count candidates.
        """
        lo, hi = self.domain.lo + margin, self.domain.hi - margin
        if np.any(lo >= hi):
            raise ParameterError(f"margin {margin} leaves no room in the domain box")
        if r_min is not None and r_max is not None and r_min > r_max:
            raise ParameterError(f"empty radius band: r_min={r_min} > r_max={r_max}")
        out = [np.empty((0, self.n))]
        got, drawn, left = 0, 0, 100000 * count
        while got < count:
            if left == 0:
                raise ParameterError("sampling region too small for the domain")
            # enough candidates for the rest at the acceptance rate seen so far
            k = min(left, 1 << 16, (count - got) * (drawn + 1) // (got + 1) * 5 // 4 + 16)
            state = rng.bit_generator.state
            X = rng.uniform(lo, hi, size=(k, self.n))
            drawn, left = drawn + k, left - k
            r = np.sqrt(_row_dot(X, X))
            keep = self.contains_array(X)
            if r_min is not None:
                keep &= r >= r_min
            if r_max is not None:
                keep &= r <= r_max
            accepted = np.flatnonzero(keep)[:count - got]
            if got + len(accepted) == count:
                rng.bit_generator.state = state
                rng.uniform(lo, hi, size=(accepted[-1] + 1, self.n))
            out.append(X[accepted])
            got += len(accepted)
        return np.concatenate(out)

    def params(self) -> dict:
        return {}


class Horosphere(HeightField):
    """Constant graph f = c: the umbilic level set with all curvatures 1."""

    kind = "horosphere"
    unbounded = True

    def __init__(self, c: float, n: int, domain: Box = None):
        if not c > 0:
            raise ParameterError(f"horosphere height must be positive, got c={c}")
        if domain is None:
            domain = Box(-2.0 * np.ones(n), 2.0 * np.ones(n))
        super().__init__(n, domain)
        self.c = float(c)

    def _jet_array(self, X):
        return np.full(len(X), self.c), np.zeros(X.shape), np.zeros(X.shape + (self.n,))

    def value_array(self, X):
        X = np.asarray(X, dtype=float)
        return np.full(X.shape[:-1], self.c)

    def params(self):
        return {"c": self.c}


class GeodesicSphereCap(HeightField):
    """Cap of the Euclidean sphere centered at height a with radius b (a > b > 0).

    The full sphere is a geodesic sphere of hyperbolic radius artanh(b/a); the lower
    cap (f = a - sqrt(b^2 - |x|^2)) is the convex-oriented piece under the upward
    normal, with principal curvatures coth of the radius.
    """

    kind = "geodesic_sphere_cap"
    unbounded = False

    def __init__(self, center_height: float, euclidean_radius: float, cap: str = "lower",
                 n: int = 3, domain: Box = None):
        a, b = float(center_height), float(euclidean_radius)
        if not (a > b > 0):
            raise ParameterError(f"sphere cap needs a > b > 0, got a={a}, b={b}")
        if cap not in ("lower", "upper"):
            raise ParameterError(f"cap must be 'lower' or 'upper', got {cap!r}")
        if domain is None:
            half = 0.6 * b / math.sqrt(n)
            domain = Box(-half * np.ones(n), half * np.ones(n))
        super().__init__(n, domain)
        self.a, self.b, self.cap = a, b, cap

    def hyperbolic_radius(self) -> float:
        return math.atanh(self.b / self.a)

    def _jet_array(self, X):
        w2 = self.b ** 2 - _row_dot(X, X)
        if np.any(w2 <= 0):
            raise DomainError(
                f"point {X[np.argmax(w2 <= 0)]} outside the cap chart |x| < b")
        w = np.sqrt(w2)[:, None, None]
        sgn = 1.0 if self.cap == "lower" else -1.0
        hess = sgn * (np.eye(self.n) / w + X[:, :, None] * X[:, None, :] / w ** 3)
        return self.a - sgn * w[:, 0, 0], sgn * X / w[:, 0], hess

    def value_array(self, X):
        X = np.asarray(X, dtype=float)
        w2 = self.b ** 2 - np.einsum("...i,...i->...", X, X)
        w = np.sqrt(np.maximum(w2, 0.0))
        vals = self.a - w if self.cap == "lower" else self.a + w
        return np.where(w2 > 0, vals, -1.0)

    def params(self):
        return {"center_height": self.a, "euclidean_radius": self.b, "cap": self.cap}


class EquidistantCone(HeightField):
    """Cone f = s|x|: the surface at constant distance arcsinh(1/s) from the vertical axis.

    f is not differentiable at the axis and h -> -inf there, so a ball around the
    origin is always excised.
    """

    kind = "equidistant_cone"
    unbounded = True

    def __init__(self, slope: float, n: int, mask_radius: float = CONE_MASK_RADIUS,
                 domain: Box = None):
        if not slope > 0:
            raise ParameterError(f"cone slope must be positive, got s={slope}")
        if not mask_radius > 0:
            raise ParameterError("cone requires a positive mask radius at the apex")
        if domain is None:
            domain = Box(-2.0 * np.ones(n), 2.0 * np.ones(n))
        super().__init__(n, domain, masks=(BallMask(np.zeros(n), mask_radius),))
        self.slope = float(slope)

    def tube_distance(self) -> float:
        return math.asinh(1.0 / self.slope)

    def _jet_array(self, X):
        r = np.sqrt(_row_dot(X, X))[:, None, None]
        hess = self.slope * (np.eye(self.n) / r - X[:, :, None] * X[:, None, :] / r ** 3)
        return self.slope * r[:, 0, 0], self.slope * X / r[:, 0], hess

    def value_array(self, X):
        X = np.asarray(X, dtype=float)
        return self.slope * np.sqrt(np.einsum("...i,...i->...", X, X))

    def params(self):
        return {"slope": self.slope, "mask_radius": self.masks[0].radius}


class TiltedPlane(HeightField):
    """Plane f = s*x_1 over the half-space x_1 > 0: umbilic with curvature 1/sqrt(1+s^2)."""

    kind = "tilted_plane"
    unbounded = True

    def __init__(self, slope: float, n: int, domain: Box = None):
        if not slope > 0:
            raise ParameterError(f"plane slope must be positive, got s={slope}")
        if domain is None:
            lo = np.full(n, -1.0)
            hi = np.full(n, 1.0)
            lo[0], hi[0] = 0.5, 2.5
            domain = Box(lo, hi)
        if domain.lo[0] <= 0:
            raise ParameterError("tilted plane domain must satisfy x_1 > 0")
        super().__init__(n, domain)
        self.slope = float(slope)

    def _jet_array(self, X):
        df = np.zeros(X.shape)
        df[:, 0] = self.slope
        return self.slope * X[:, 0], df, np.zeros(X.shape + (self.n,))

    def value_array(self, X):
        X = np.asarray(X, dtype=float)
        return self.slope * X[..., 0]

    def params(self):
        return {"slope": self.slope}


# -- sampled grids -------------------------------------------------------------------

def _lagrange_weight_table(npts: int) -> np.ndarray:
    """Monomial coefficients of the Lagrange basis on nodes 0..npts-1 and derivatives.

    Entry [k, j] holds the k-th derivative (k = 0, 1, 2) of basis polynomial j, highest
    power first and padded with leading zeros to npts coefficients.
    """
    offs = np.arange(npts, dtype=float)
    table = np.zeros((3, npts, npts))
    for j in range(npts):
        roots = np.delete(offs, j)
        coeff = np.poly(roots) / np.prod(offs[j] - roots)
        for k in range(3):
            der = np.polyder(coeff, k)
            table[k, j, npts - len(der):] = der
    return table


class SampledGridField(HeightField):
    """Height field backed by lattice samples with local polynomial interpolation.

    Values, gradients and Hessians all come from one kernel, :meth:`_interpolate`:
    tensor-product Lagrange interpolation of the configured order on a window of
    (order+1)^n nodes around each query point, contracted axis by axis with the 1D
    basis and its derivatives.  Windows containing excised (-inf) nodes raise
    DomainError.
    """

    kind = "sampled_grid"
    unbounded = False

    def __init__(self, grid: GridFunction, order: int = INTERP_ORDER):
        if order < 2:
            raise ParameterError("interpolation order must be >= 2 for curvature jets")
        if any(d < order + 1 for d in grid.dims):
            raise ParameterError(f"grid too small for order {order} interpolation")
        n = grid.ndim
        lo = grid.origin
        hi = grid.origin + grid.spacing * (np.asarray(grid.dims) - 1)
        super().__init__(n, Box(lo, hi))
        self.grid = grid
        self.order = int(order)
        self._table = _lagrange_weight_table(order + 1)

    @classmethod
    def from_field(cls, field: HeightField, box: Box, nodes_per_axis: int,
                   order: int = INTERP_ORDER) -> "SampledGridField":
        """Sample a field's graph values on a lattice covering ``box``."""
        gf = _sample_values_grid(field, box, nodes_per_axis)
        return cls(gf, order=order)

    def _interpolate(self, pts, deriv: int) -> np.ndarray:
        """Every mixed partial of order <= ``deriv`` per axis at points ``pts`` (P, n).

        Returns shape (P,) + (deriv+1,)*n; entry [p, a_1, .., a_n] is
        d^a_1/dx_1^a_1 .. d^a_n/dx_n^a_n f at pts[p].  Raises DomainError if a window
        touches excised nodes.
        """
        if len(pts) > VALUE_CHUNK:
            # bounded chunks keep the gathered windows, (order+1)^n values a point, small
            return np.concatenate([self._interpolate(pts[i:i + VALUE_CHUNK], deriv)
                                   for i in range(0, len(pts), VALUE_CHUNK)])
        n, width = self.n, self.order + 1
        t = (pts - self.grid.origin) / self.grid.spacing
        starts = np.clip(np.floor(t).astype(int) - (self.order - 1) // 2, 0,
                         np.asarray(self.grid.dims) - width)
        local = t - starts
        index = tuple((starts[:, d, None] + np.arange(width)).reshape(
            (-1,) + (1,) * d + (width,) + (1,) * (n - 1 - d)) for d in range(n))
        block = self.grid.values[index]
        finite = np.all(np.isfinite(block.reshape(len(pts), -1)), axis=1)
        if not np.all(finite):
            raise DomainError(f"interpolation window at {pts[np.argmin(finite)]} "
                              "touches excised nodes")
        # weights[p, d, k, j]: d^k/dx_d^k of basis j at local[p, d], by Horner over the
        # padded table, then the chain rule's 1/spacing^k
        table = self._table[:deriv + 1]
        weights = np.zeros(local.shape + table.shape[:2])
        for column in np.moveaxis(table, -1, 0):
            weights = weights * local[:, :, None, None] + column
        weights /= self.grid.spacing ** np.arange(deriv + 1)[:, None]
        out = block
        for d in range(n):
            # contract the leading window axis; its derivative axis goes last
            out = np.einsum("pj...,pkj->p...k", out, weights[:, d])
        return out

    def _value(self, x):
        return self._interpolate(np.asarray(x, float)[None], 0).item()

    def value_array(self, X):
        """Interpolated f over points X of shape (..., n), the same windows as ``_value``.

        Raises DomainError if the window of any point touches excised nodes.
        """
        X = np.asarray(X, dtype=float)
        return self._interpolate(X.reshape(-1, self.n), 0).reshape(X.shape[:-1])

    def _jet_array(self, X):
        partials = self._interpolate(X, 2).reshape(len(X), -1)
        # flat index of d/dx_i in the (3,)*n partials; d_i d_j f sits at the sum
        axis = 3 ** np.arange(self.n)[::-1]
        return partials[:, 0], partials[:, axis], partials[:, axis[:, None] + axis]

    def params(self):
        return {"order": self.order, "dims": list(self.grid.dims),
                "spacing": self.grid.spacing, "origin": self.grid.origin.tolist()}


def _mesh_points(lo, dims, spacing):
    axes = [lo[d] + spacing * np.arange(dims[d]) for d in range(len(dims))]
    # broadcast views: stack makes the one copy
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)


def _row_dot(a, b):
    """a . b over any leading point axes, rounded as ``a @ b`` is at one point."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _in_ball(m: BallMask, X) -> np.ndarray:
    d = X - m.center
    return np.einsum("...i,...i->...", d, d) < m.radius ** 2


def _masked_points(field: HeightField, X) -> np.ndarray:
    masked = np.zeros(X.shape[:-1], dtype=bool)
    for m in field.masks:
        masked |= _in_ball(m, X)
    return masked


def _lattice_masked(field: HeightField, X, lo, spacing: float) -> np.ndarray:
    """``_masked_points`` on the lattice mesh X with node 0 at ``lo``.

    Each ball is tested only on the index box it covers, widened by one node against
    rounding, by the same expression, so every node gets the same bit.
    """
    dims = X.shape[:-1]
    masked = np.zeros(dims, dtype=bool)
    for m in field.masks:
        first = np.clip(np.floor((m.center - m.radius - lo) / spacing) - 1, 0, dims)
        stop = np.clip(np.ceil((m.center + m.radius - lo) / spacing) + 2, 0, dims)
        box = tuple(map(slice, first.astype(int), stop.astype(int)))
        masked[box] |= _in_ball(m, X[box])
    return masked


def _lattice_dims(lo, hi, spacing: float) -> tuple:
    """Node counts of the lattice over [lo, hi] at ``spacing``.

    Raises ParameterError unless every axis extent is a whole number of spacings
    (relative 1e-9), so the lattice ends exactly on ``hi``.
    """
    extents = np.asarray(hi, float) - np.asarray(lo, float)
    steps = extents / spacing
    whole = np.round(steps)
    if np.any(np.abs(steps - whole) > 1e-9 * np.maximum(whole, 1.0)):
        raise ParameterError(f"window extents {extents.tolist()} are not whole multiples "
                             f"of the spacing {spacing!r}")
    return tuple(int(k) + 1 for k in whole)


def _lattice_grid(field: HeightField, lo, dims, spacing: float, transform) -> GridFunction:
    """``transform(f)`` at the nodes of the lattice with node 0 at ``lo``; -inf and a
    boundary flag where f <= 0 or inside a mask ball."""
    X = _mesh_points(lo, dims, spacing)
    vals = field.value_array(X)
    good = (vals > 0) & ~_lattice_masked(field, X, lo, spacing)
    return GridFunction(dims, spacing, lo.copy(), np.where(good, transform(vals), -np.inf),
                        box_face_mask(dims) | ~good)


def _sample_values_grid(field: HeightField, box: Box, nodes_per_axis: int) -> GridFunction:
    """Graph values f on a lattice; masked points get -inf and a boundary flag.

    The spacing comes from axis 0; the other axes must be whole multiples of it.
    """
    spacing = float((box.hi[0] - box.lo[0]) / (nodes_per_axis - 1))
    dims = _lattice_dims(box.lo, box.hi, spacing)
    return _lattice_grid(field, box.lo, dims, spacing, lambda vals: vals)


def sample_height_grid(field: HeightField, lo, hi, spacing: float) -> GridFunction:
    """Heights h = log f on a lattice over [lo, hi]; -inf at masked nodes.

    The window must sit inside the field's domain box, and each of its extents must
    be a whole number of spacings (else ParameterError).
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if not (field.domain.contains(lo) and field.domain.contains(hi)):
        raise DomainError("analysis window exits the field domain")
    dims = _lattice_dims(lo, hi, spacing)
    if any(d < 3 for d in dims):
        raise ParameterError("analysis window too small for the requested spacing")
    # the expression of height_array, so the heights are the same to the bit
    return _lattice_grid(field, lo, dims, spacing,
                         lambda vals: np.log(np.maximum(vals, 1e-300)))


# -- construction and descriptors ------------------------------------------------------

def make_catalog_surface(kind: str, params: dict, n: int) -> HeightField:
    """Build a catalog surface from keyword parameters.

    Raises ParameterError for an unknown kind or invalid parameters.
    """
    params = dict(params)
    domain = params.pop("domain", None)
    if domain is not None and not isinstance(domain, Box):
        domain = Box(np.asarray(domain["lo"], float), np.asarray(domain["hi"], float))
    if kind == "horosphere":
        return Horosphere(params.pop("c", 1.0), n, domain=domain)
    if kind == "geodesic_sphere_cap":
        return GeodesicSphereCap(params.pop("center_height"), params.pop("euclidean_radius"),
                                 params.pop("cap", "lower"), n, domain=domain)
    if kind == "equidistant_cone":
        return EquidistantCone(params.pop("slope"), n,
                               mask_radius=params.pop("mask_radius", CONE_MASK_RADIUS),
                               domain=domain)
    if kind == "tilted_plane":
        return TiltedPlane(params.pop("slope"), n, domain=domain)
    raise ParameterError(f"unknown catalog kind {kind!r}")


def field_from_descriptor(desc: dict, base_dir: str = ".") -> HeightField:
    """Instantiate a field from its JSON descriptor (see README for the schema)."""
    if "kind" not in desc:
        raise ParameterError("descriptor missing 'kind'")
    kind = desc["kind"]
    if kind == "sampled_grid":
        import os
        order = int(desc.get("order", INTERP_ORDER))
        grid = load_grid_function(os.path.join(base_dir, desc["values_csv"]),
                                  os.path.join(base_dir, desc["header_json"]))
        return SampledGridField(grid, order=order)
    if "n" not in desc:
        raise ParameterError("descriptor missing 'n'")
    params = {k: v for k, v in desc.items() if k not in ("kind", "n")}
    return make_catalog_surface(kind, params, int(desc["n"]))


def field_from_json(path: str) -> HeightField:
    import os
    with open(path) as fh:
        desc = json.load(fh)
    return field_from_descriptor(desc, base_dir=os.path.dirname(os.path.abspath(path)))


def field_to_descriptor(field: HeightField) -> dict:
    desc = {"kind": field.kind, "n": field.n}
    desc.update(field.params())
    desc["domain"] = {"lo": field.domain.lo.tolist(), "hi": field.domain.hi.tolist()}
    return desc


# -- finite-difference oracle ----------------------------------------------------------

@dataclass(frozen=True)
class JetValidation:
    """Componentwise deviation of closed-form derivatives from central differences."""

    grad_residual: float
    hess_residual: float
    step: float

    @property
    def max(self) -> float:
        return max(self.grad_residual, self.hess_residual)


def fd_validate_jet(field: HeightField, x, step: float = None) -> JetValidation:
    """Compare the field's jet against 3-point gradient / 5-point-stencil Hessian differences.

    The default step 1e-4 is scaled by max(1, |x|); all stencil points must lie in the
    field's domain or DomainError is raised.
    """
    x = np.asarray(x, dtype=float)
    n = field.n
    if step is None:
        step = FD_STEP * max(1.0, float(np.linalg.norm(x)))
    jet = field.jet(x)

    def val(y):
        if not field.contains(y):
            raise DomainError(f"finite-difference stencil exits domain at {y}")
        return field._value(y)

    f0 = val(x)
    e = np.eye(n) * step
    grad_fd = np.empty(n)
    hess_fd = np.empty((n, n))
    for i in range(n):
        fp, fm = val(x + e[i]), val(x - e[i])
        grad_fd[i] = (fp - fm) / (2 * step)
        hess_fd[i, i] = (fp - 2 * f0 + fm) / step ** 2
    for i in range(n):
        for j in range(i + 1, n):
            fpp = val(x + e[i] + e[j])
            fpm = val(x + e[i] - e[j])
            fmp = val(x - e[i] + e[j])
            fmm = val(x - e[i] - e[j])
            hess_fd[i, j] = hess_fd[j, i] = (fpp - fpm - fmp + fmm) / (4 * step ** 2)
    return JetValidation(
        grad_residual=float(np.max(np.abs(jet.grad - grad_fd))),
        hess_residual=float(np.max(np.abs(jet.hess - hess_fd))),
        step=step,
    )
