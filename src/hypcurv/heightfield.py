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

import functools
import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .gridfn import GridFunction, _box_faces, load_grid_function

__all__ = [
    "Jet2", "Box", "BallMask", "HeightField",
    "Horosphere", "GeodesicSphereCap", "EquidistantCone", "TiltedPlane", "SampledGridField",
    "make_catalog_surface", "field_from_descriptor", "field_from_json", "field_to_descriptor",
    "fd_validate_jet", "JetValidation", "sample_height_grid",
]

#: default finite-difference step before the max(1, |x|) scaling
FD_STEP = 1e-4
#: default radius of the mandatory excised ball at a cone apex
CONE_MASK_RADIUS = 1e-3
#: default tensor-product interpolation order (polynomial degree) for sampled grids
INTERP_ORDER = 4
#: points interpolated per batch by ``SampledGridField._interpolate``
VALUE_CHUNK = 4096
#: most nodes of an analysis lattice (256^3; one float array of them is 134 MB)
MAX_LATTICE_NODES = 1 << 24


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
        _check_jets(self.x[None], *self.stacked())

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def stacked(self):
        """(f, Df, D2f) with a leading point axis of length 1, as ``jet_array`` returns."""
        return np.array([self.f], dtype=float), self.grad[None], self.hess[None]


def _check_jets(X, f, df, hess):
    """The invariants of a jet at stacked points X: f^4 and f^-4 normal floats, Df, D2f
    and 1 + |Df|^2 finite, and a symmetric Hessian.

    Raises ParameterError naming the first point that fails.
    """
    least = np.finfo(float).tiny ** 0.25  # the kernel's Gauss terms reach f^-4
    with np.errstate(over="ignore", invalid="ignore"):  # 1 + |Df|^2 is inf or NaN
        bad = ~((f >= least) & (f <= 1.0 / least) & np.isfinite(1.0 + _row_dot(df, df))
                & np.isfinite(hess).all(axis=(-2, -1)))
    if bad.any():
        i = np.argmax(bad)
        raise ParameterError(f"graph value must lie in [{least:.3g}, {1.0 / least:.3g}] "
                             f"and Df, D2f, 1 + |Df|^2 finite, got f={f[i]} at {X[i]}")
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

    def contains(self, x):
        """Is each point of x, shape (..., n), in the box?"""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)


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

    def _lattice_values(self, axes) -> np.ndarray:
        """f at every node of the lattice with per-axis coordinates ``axes``, as a new
        array, with f <= 0 where f is undefined; no mask or domain-box check."""
        raise NotImplementedError

    # public surface -----------------------------------------------------------------
    def contains_array(self, X) -> np.ndarray:
        """Is each point of X, shape (..., n), in the box and outside every mask ball?"""
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

    def jet_array(self, X):
        """Jets at points X of shape (P, n): f (P,), Df (P, n) and D2f (P, n, n).

        Every point gets the checks of :meth:`jet`; the error names the first point
        that fails one.
        """
        X = self._require(X)
        with np.errstate(all="ignore"):  # an overflow fails the checks
            f, df, hess = self._jet_array(X)
        _check_jets(X, f, df, hess)
        return f, df, hess

    def jet(self, x) -> Jet2:
        """Second-order jet of f at x (exact for catalog kinds): one-point ``jet_array``."""
        f, df, hess = self.jet_array(np.asarray(x, dtype=float)[None])
        return Jet2(x, float(f[0]), df[0], hess[0])

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

    def __init__(self, c: float = 1.0, n: int = 3, domain: Box = None):
        if not c > 0:
            raise ParameterError(f"horosphere height must be positive, got c={c}")
        if domain is None:
            domain = Box(-2.0 * np.ones(n), 2.0 * np.ones(n))
        super().__init__(n, domain)
        self.c = float(c)

    def _jet_array(self, X):
        return np.full(len(X), self.c), np.zeros(X.shape), np.zeros(X.shape + (self.n,))

    def _lattice_values(self, axes):
        return np.full(tuple(map(len, axes)), self.c)

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

    def _lattice_values(self, axes):
        # in one array: w2 = b^2 - |x|^2, then w = sqrt(max(w2, 0)), then a -/+ w; -1 off
        # the chart
        w = _lattice_sq_norm(axes)
        np.subtract(self.b ** 2, w, out=w)
        off_chart = ~(w > 0)
        np.sqrt(np.maximum(w, 0.0, out=w), out=w)
        (np.subtract if self.cap == "lower" else np.add)(self.a, w, out=w)
        np.copyto(w, -1.0, where=off_chart)
        return w

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

    def _lattice_values(self, axes):
        f = _lattice_sq_norm(axes)
        return np.multiply(self.slope, np.sqrt(f, out=f), out=f)

    def sample_points(self, count: int, rng, r_min: float = None, r_max: float = None,
                      margin: float = 0.0) -> np.ndarray:
        """:meth:`HeightField.sample_points`; with neither end of the band given, within
        min|domain.hi| / 4 <= |x| <= min|domain.hi|, clear of the apex."""
        if r_min is None and r_max is None:
            r_max = float(np.min(np.abs(self.domain.hi)))
            r_min = r_max / 4
        return super().sample_points(count, rng, r_min, r_max, margin)

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

    def _lattice_values(self, axes):
        row = self.slope * axes[0].reshape((-1,) + (1,) * (len(axes) - 1))
        return np.broadcast_to(row, tuple(map(len, axes))).copy()

    def params(self):
        return {"slope": self.slope}


# -- sampled grids -------------------------------------------------------------------

@functools.cache
def _lagrange_weight_table(npts: int) -> np.ndarray:
    """Monomial coefficients of the Lagrange basis on nodes 0..npts-1 and derivatives.

    Entry [k, j] holds the k-th derivative (k = 0, 1, 2) of basis polynomial j, highest
    power first and padded with leading zeros to npts coefficients.  Built once per
    npts and shared by every field of that order, so it is read-only.
    """
    offs = np.arange(npts, dtype=float)
    table = np.zeros((3, npts, npts))
    for j in range(npts):
        roots = np.delete(offs, j)
        coeff = np.poly(roots) / np.prod(offs[j] - roots)
        for k in range(3):
            der = np.polyder(coeff, k)
            table[k, j, npts - len(der):] = der
    table.setflags(write=False)
    return table


class SampledGridField(HeightField):
    """Height field backed by lattice samples with local polynomial interpolation.

    Values, gradients and Hessians all come from one kernel, :meth:`_interpolate`:
    tensor-product Lagrange interpolation of the configured order on a window of
    (order+1)^n nodes around each query point, contracted axis by axis with the 1D
    basis and its derivatives.  A jet whose window touches excised (-inf) nodes raises
    DomainError; a lattice node whose window does gets -inf, as in a mask ball.
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
    def from_field(cls, field: HeightField, lo, hi, spacing: float,
                   order: int = INTERP_ORDER) -> "SampledGridField":
        """Values f on the lattice over [lo, hi] at ``spacing``, as ``sample_height_grid``."""
        return cls(_lattice_grid(field, lo, hi, spacing, lambda vals: vals), order=order)

    def _interpolate(self, pts, deriv: int):
        """Every mixed partial of order <= ``deriv`` per axis at points ``pts`` (P, n),
        and whether each point's window holds finite samples only.

        The partials have shape (P,) + (deriv+1,)*n; entry [p, a_1, .., a_n] is
        d^a_1/dx_1^a_1 .. d^a_n/dx_n^a_n f at pts[p], and 0 where the window touches
        excised nodes.
        """
        if len(pts) > VALUE_CHUNK:
            # bounded chunks keep the gathered windows, (order+1)^n values a point, small
            chunks = [self._interpolate(pts[i:i + VALUE_CHUNK], deriv)
                      for i in range(0, len(pts), VALUE_CHUNK)]
            return tuple(np.concatenate(part) for part in zip(*chunks))
        n, width = self.n, self.order + 1
        t = (pts - self.grid.origin) / self.grid.spacing
        starts = np.clip(np.floor(t).astype(int) - (self.order - 1) // 2, 0,
                         np.asarray(self.grid.dims) - width)
        local = t - starts
        index = tuple((starts[:, d, None] + np.arange(width)).reshape(
            (-1,) + (1,) * d + (width,) + (1,) * (n - 1 - d)) for d in range(n))
        block = self.grid.values[index]
        finite = np.all(np.isfinite(block.reshape(len(pts), -1)), axis=1)
        block[~finite] = 0.0  # no -inf * 0 in the contraction
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
        return out, finite

    def _jet_array(self, X):
        partials, finite = self._interpolate(X, 2)
        if not finite.all():
            raise DomainError(f"interpolation window at {X[np.argmin(finite)]} "
                              "touches excised nodes")
        partials = partials.reshape(len(X), -1)
        # flat index of d/dx_i in the (3,)*n partials; d_i d_j f sits at the sum
        axis = 3 ** np.arange(self.n)[::-1]
        return partials[:, 0], partials[:, axis], partials[:, axis[:, None] + axis]

    def _lattice_values(self, axes):
        # 0, so excised, at nodes whose window touches excised samples
        f = self._interpolate(_mesh(axes).reshape(-1, self.n), 0)[0]
        return f.reshape(tuple(map(len, axes)))

    def params(self):
        return {"order": self.order, "dims": list(self.grid.dims),
                "spacing": self.grid.spacing, "origin": self.grid.origin.tolist()}


def _lattice_axes(lo, dims, spacing):
    """Per-axis node coordinates of the lattice with node 0 at ``lo``, as
    ``GridFunction.axes`` gives them."""
    return [lo[d] + spacing * np.arange(dims[d]) for d in range(len(dims))]


def _mesh(axes):
    # broadcast views: stack makes the one copy
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)


def _lattice_sq_norm(axes) -> np.ndarray:
    """|x|^2 at every lattice node, as a new array: the per-axis squares, broadcast
    and added in axis order, with no node mesh."""
    n = len(axes)
    return sum(np.square(a).reshape((-1,) + (1,) * (n - 1 - d)) for d, a in enumerate(axes))


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


def _lattice_masked(field: HeightField, axes, lo, spacing: float) -> np.ndarray:
    """``_masked_points`` at the nodes of the lattice with node 0 at ``lo`` and per-axis
    coordinates ``axes``.

    Each ball is tested only on the index box it covers, widened by one node against
    rounding, on the mesh of that box alone and by the same expression, so every node
    gets the same bit.
    """
    dims = tuple(map(len, axes))
    masked = np.zeros(dims, dtype=bool)
    for m in field.masks:
        first = np.clip(np.floor((m.center - m.radius - lo) / spacing) - 1, 0, dims)
        stop = np.clip(np.ceil((m.center + m.radius - lo) / spacing) + 2, 0, dims)
        box = tuple(map(slice, first.astype(int), stop.astype(int)))
        masked[box] |= _in_ball(m, _mesh([a[b] for a, b in zip(axes, box)]))
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


def check_node_budget(dims) -> None:
    """ParameterError if a lattice of ``dims`` holds over ``MAX_LATTICE_NODES`` nodes."""
    nodes = math.prod(dims)
    if nodes > MAX_LATTICE_NODES:
        raise ParameterError(f"lattice of {nodes} nodes {tuple(dims)} exceeds the budget "
                             f"of {MAX_LATTICE_NODES} nodes")


def _lattice_grid(field: HeightField, lo, hi, spacing: float, transform) -> GridFunction:
    """f on the checked lattice over [lo, hi] (see ``sample_height_grid``), mapped in
    place by ``transform``; -inf and a boundary flag where f <= 0 or inside a mask ball.

    A lattice of more than ``MAX_LATTICE_NODES`` nodes raises ParameterError before any
    node array is allocated, and one with an overflowed value after.

    The values and the flags are written into the arrays that the grid keeps.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if not (field.domain.contains(lo) and field.domain.contains(hi)):
        raise DomainError("analysis window exits the field domain")
    dims = _lattice_dims(lo, hi, spacing)
    if any(d < 3 for d in dims):
        raise ParameterError("analysis window too small for the requested spacing")
    check_node_budget(dims)
    axes = _lattice_axes(lo, dims, spacing)
    with np.errstate(all="ignore"):
        vals = field._lattice_values(axes)
    if not np.isfinite(vals).all():
        node = np.argwhere(~np.isfinite(vals))[0].tolist()
        raise ParameterError(f"f not finite at lattice node {node} of {dims}")
    bad = vals > 0
    np.logical_not(bad, out=bad)
    bad |= _lattice_masked(field, axes, lo, spacing)
    transform(vals)
    np.copyto(vals, -np.inf, where=bad)
    for face in _box_faces(len(dims)):
        bad[face] = True
    return GridFunction(dims, spacing, lo.copy(), vals, bad)


def sample_height_grid(field: HeightField, lo, hi, spacing: float) -> GridFunction:
    """Heights h = log f on the lattice over [lo, hi] at ``spacing``; -inf at masked nodes.

    The window must sit inside the field's domain box (else DomainError), and each of
    its extents must be a whole number of spacings, at least two, with at most
    ``MAX_LATTICE_NODES`` nodes in all (else ParameterError).
    """
    return _lattice_grid(field, lo, hi, spacing,
                         lambda vals: np.log(np.maximum(vals, 1e-300, out=vals), out=vals))


# -- construction and descriptors ------------------------------------------------------

#: the closed-form kinds by name, with the constructor signature whose keywords are the
#: descriptor keys (taken once: a signature costs more than building the surface)
_CATALOG = {cls.kind: (cls, inspect.signature(cls))
            for cls in (Horosphere, GeodesicSphereCap, EquidistantCone, TiltedPlane)}


def make_catalog_surface(kind: str, params: dict, n: int) -> HeightField:
    """Build a catalog surface from its constructor's keyword parameters.

    Raises ParameterError for an unknown kind or keyword, a missing one, or bad values,
    non-finite numbers and values of the wrong type among them.
    """
    params = dict(params)
    domain = params.pop("domain", None)
    if domain is not None and not isinstance(domain, Box):
        domain = Box(np.asarray(domain["lo"], float), np.asarray(domain["hi"], float))
    if kind not in _CATALOG:
        raise ParameterError(f"unknown catalog kind {kind!r}")
    cls, signature = _CATALOG[kind]
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{kind}: {key} must be finite, got {value}")
    try:
        signature.bind(n=n, domain=domain, **params)
        return cls(n=n, domain=domain, **params)
    except TypeError as exc:
        raise ParameterError(f"{kind}: {exc}") from None


def field_from_descriptor(desc: dict, base_dir: str = ".") -> HeightField:
    """Instantiate a field from its JSON descriptor (see README for the schema)."""
    if "kind" not in desc:
        raise ParameterError("descriptor missing 'kind'")
    kind = desc["kind"]
    if kind == "sampled_grid":
        import os
        unknown = sorted(set(desc) - {"kind", "values_csv", "header_json", "order"})
        if unknown:
            raise ParameterError(f"sampled_grid: unexpected key(s) {unknown}")
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

    The default step 1e-4 is scaled by max(1, |x|); every stencil point must lie in the
    field's domain and have a jet there (on a cap's chart, on a sampled grid's finite
    windows), or DomainError is raised.
    """
    x = np.asarray(x, dtype=float)
    n = field.n
    if step is None:
        step = FD_STEP * max(1.0, float(np.linalg.norm(x)))
    # the stencil: x, then x +- e_i, then x +- e_i +- e_j (i < j) in sign order ++ +- -+ --
    e = np.eye(n) * step
    i, j = np.triu_indices(n, 1)
    Y = np.concatenate([x[None], x + e, x - e, x + e[i] + e[j], x + e[i] - e[j],
                        x - e[i] + e[j], x - e[i] - e[j]])
    inside = field.contains_array(Y)
    if not inside.all():
        raise DomainError(
            f"finite-difference stencil exits domain at {Y[np.argmin(inside)]}")
    try:
        values, grad, hess = field.jet_array(Y)  # the jet at x is row 0
    except DomainError as exc:  # off a cap's chart, or a window on excised samples
        raise DomainError(f"finite-difference stencil exits domain: {exc}") from None
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(values, np.cumsum([1, n, n] + [len(i)] * 3))
    grad_fd = (fp - fm) / (2 * step)
    hess_fd = np.diag((fp - 2 * f0 + fm) / step ** 2)
    hess_fd[i, j] = hess_fd[j, i] = (fpp - fpm - fmp + fmm) / (4 * step ** 2)
    return JetValidation(
        grad_residual=float(np.max(np.abs(grad[0] - grad_fd))),
        hess_residual=float(np.max(np.abs(hess[0] - hess_fd))),
        step=step,
    )
