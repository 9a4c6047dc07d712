"""Discrete p-Dirichlet energy minimization and the viscosity-subharmonicity probe.

The energy of a grid function u is the cell sum

    E(u) = sum_cells (|Du_cell|^2 + eps^2)^(p/2) * spacing^n

where Du_cell averages the forward differences along each axis over the cell: its
component a is the difference along axis a of the sums along the other axes, so one
separable sum/difference stencil and its transpose give the energy and its gradient.
Each sum or difference of neighbouring slices is one ufunc call over the flat node
values and ``stride`` entries shorter than its input, so the cell components cover
just the nodes that can be a cell's lowest corner, with no zeroed tail.  Cells with an
excised (-inf) corner contribute nothing.  The minimizer over interior nodes is found
by preconditioned descent: each direction applies the exact inverse of the p = 2
operator on the lattice box, a sine transform applied as one matmul per axis, scaled
on both sides by a diagonal that follows the p-Laplacian coefficient ``|Du|^(p-2)``
of the current iterate (each node's coefficient, clipped to within a factor
``MAX_COEFFICIENT_RATIO`` of its mean, to the power -1/2).  Where the box holds up to
``MAX_HELD_NODES`` nodes inside it (excised or tightened into the boundary, as around a
cone apex), a capacitance matrix corrects that inverse to the exact inverse of the
free-node block, so the iteration count does not grow with the lattice; above the cap
the direction is a principal block of the box inverse, weaker where many nodes are
held.  The descent starts from the given interior values or from the p = 2 predictor,
one exact p = 2 step from them, whichever has the lower energy.  A backtracking
(Armijo) line search, whose rejected trials evaluate the energy alone, keeps the
recorded energy trace monotonically non-increasing.  The descent stops once a trial
step predicts a decrease within rounding of the energy, or once a step passes the
Armijo test with the energy unchanged.  For p = 2 the stationarity condition is
linear, and ``acceptance.solve_laplace_linear``, a direct dense solve of the
independently assembled system, is the oracle for the descent.

The viscosity probe samples h = log f on a box, solves the p = n Dirichlet problem
with boundary h, and reports whether the p-harmonic solution dominates h up to a
discretization tolerance of 10 * spacing^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .gridfn import GridFunction
from .heightfield import HeightField, sample_height_grid

__all__ = [
    "SolverConfig", "PHarmonicResult", "ProbeResult",
    "solve_p_harmonic", "viscosity_probe", "tighten_boundary",
]

#: most nodes held inside the box (a cone apex holds 27) for which the descent direction
#: inverts the free-node block exactly through a k x k capacitance matrix
MAX_HELD_NODES = 64

#: K: the diagonal scale of the descent direction clips each node's summed p-Laplacian
#: coefficient to [1/K, K] times its mean over the free nodes
MAX_COEFFICIENT_RATIO = 3.0


@dataclass(frozen=True)
class SolverConfig:
    """Optimizer settings for the p-Dirichlet minimization.

    ``tolerance`` is the least relative decrease a trial step must still predict: the
    descent stops (``"stalled"``) once ``t g.z <= tolerance |E|``, where two energies
    that close differ by about their own rounding and the Armijo test could no longer
    tell a better iterate from a worse one.
    """

    p: float
    epsilon: float = 1e-8
    max_iterations: int = 20000
    tolerance: float = 1e-13       # least relative decrease a trial step must predict
    armijo: float = 1e-4           # sufficient-decrease parameter
    backtrack: float = 0.5         # step halving factor
    max_backtracks: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 2):
            raise ParameterError(f"solver requires a finite p >= 2, got p={self.p}")
        if not self.epsilon > 0:
            raise ParameterError("regularization epsilon must be positive")
        if not self.tolerance > 0:
            raise ParameterError("tolerance must be positive")


# -- cell-based energy ------------------------------------------------------------------

def _pair(x, stride, sign):
    """``x[i + stride] + sign * x[i]`` over flat node values, ``stride`` entries shorter.

    With the stride of one axis: the sum (S, ``sign=1``) or difference (D, ``sign=-1``)
    of neighbouring slices.  Entry i stays with node i, so after the n pairs of a cell
    gradient component entry i holds the cell whose lowest corner is node i (where no
    cell sits, finite junk that zero weights remove).
    """
    return (np.add if sign > 0 else np.subtract)(x[stride:], x[:-stride])


def _pair_adjoint(y, stride, sign):
    """Transpose of :func:`_pair`, ``stride`` entries longer: first slice, ``lo +- hi``
    inside, last slice.  Needs ``y.size >= stride``, which every lattice of at least 3
    nodes per axis gives."""
    m = y.size
    out = np.empty(m + stride)
    np.multiply(y[:stride], sign, out=out[:stride])
    (np.add if sign > 0 else np.subtract)(y[:-stride], y[stride:], out=out[stride:m])
    out[m:] = y[m - stride:]
    return out


def _corner_fold(mask, op):
    """``op`` over the 2^n corner shifts of ``mask``: entry i folds mask[i + {0,1}^n]."""
    out = None
    for corner in itertools.product((0, 1), repeat=mask.ndim):
        view = mask[tuple(slice(c, d - 1 + c) for c, d in zip(corner, mask.shape))]
        out = view.copy() if out is None else op(out, view, out=out)
    return out


def _complete_cells(active):
    """Cells, indexed by their lowest corner, whose 2^n corners are all active."""
    return _corner_fold(active, np.logical_and)


def _strides(shape):
    """Flat-index strides of the axes of a C-ordered lattice, in nodes."""
    return [math.prod(shape[a + 1:]) for a in range(len(shape))]


def _cell_weights(active):
    """1 at the lowest corner of each complete cell and 0 elsewhere, over the first
    ``N - sum(strides)`` flat nodes: those that can be a cell's lowest corner."""
    corners = active.size - sum(_strides(active.shape))
    cells = np.pad(_complete_cells(active), [(0, 1)] * active.ndim).ravel()
    return cells[:corners].astype(float)


def _energy(values, spacing, p, eps, weights):
    """Energy of ``values`` and the state that :func:`_energy_gradient` reads.

    Each cell sits at its lowest corner, so cell gradient component a is
    ``D_a prod_{b != a} S_b u / (2^(n-1) h)`` over the flat values; it shares the sums
    along the axes before a with the later components.  Each pair drops ``stride``
    trailing entries, so every component covers the ``N - sum(strides)`` possible
    lowest corners.  The density is ``w * wp``, with ``w = |Du|^2 + eps^2`` and
    ``wp = weights * w^(p/2 - 1)``, 0 off complete cells.
    """
    n = values.ndim
    strides = _strides(values.shape)
    comps, sums = [], values.ravel()
    for a in range(n):
        c = _pair(sums, strides[a], -1)
        for b in range(a + 1, n):
            c = _pair(c, strides[b], 1)
        comps.append(c)
        if a + 1 < n:
            sums = _pair(sums, strides[a], 1)
    w = comps[0] * comps[0]
    for c in comps[1:]:
        w += c * c
    w *= (2.0 ** (1 - n) / spacing) ** 2
    w += eps * eps
    wp = w ** (p / 2.0 - 1.0)
    wp *= weights
    return float(np.vdot(w, wp)) * spacing ** n, (values.shape, strides, comps, wp)


def _energy_gradient(state, spacing, p):
    """Energy gradient ``p h^n A^T (wp * A u)``, the transposed chain of :func:`_energy`."""
    shape, strides, comps, wp = state
    n = len(comps)
    grad = None
    for a in reversed(range(n)):
        g = wp * comps[a]
        for b in range(a + 1, n):
            g = _pair_adjoint(g, strides[b], 1)
        g = _pair_adjoint(g, strides[a], -1)
        if grad is not None:
            g += _pair_adjoint(grad, strides[a], 1)
        grad = g
    grad *= p * spacing ** n * (2.0 ** (1 - n) / spacing) ** 2
    return grad.reshape(shape)


def tighten_boundary(gf: GridFunction) -> GridFunction:
    """Mark as boundary every active node incident to an incomplete cell.

    After tightening, each interior node sees only complete cells, which keeps the
    discrete stationarity conditions consistent near excised regions.
    """
    out = gf.copy()
    active = out.active_mask()
    # node i touches the cells i - {0,1}^n: the corner shifts of the padded cell mask
    bad = _corner_fold(np.pad(~_complete_cells(active), 1), np.logical_or)
    out.boundary_mask |= active & bad
    out.validate()
    return out


@dataclass
class PHarmonicResult:
    """Solver output: the final grid, the full (monotone) energy trace and why it stopped.

    ``start`` is ``"given"`` where the descent started from the interior values it was
    given and ``"harmonic"`` where it started from the p = 2 predictor
    (:func:`solve_p_harmonic`); ``energy_trace[0]`` is the energy of that start.
    ``step_trace`` holds the accepted step length of each iteration; it scales the
    preconditioned direction, not the raw gradient.  ``iterations`` counts the accepted
    steps, ``len(step_trace)``, whatever the stop reason; the predictor is not one.
    ``stop_reason`` is one of ``"stalled"``, ``"zero_gradient"``,
    ``"line_search_exhausted"`` or ``"max_iterations"``; only the last leaves
    ``converged`` false.  ``grad_norm`` is the Euclidean norm of the energy gradient
    over the interior nodes at the result.
    ``backtracks`` counts the rejected Armijo trials; each costs one energy evaluation.
    ``held_nodes`` counts the nodes off the box faces that the solve held fixed; the
    direction inverted the free-node block exactly when it is at most
    ``MAX_HELD_NODES``.
    """

    grid: GridFunction
    energy_trace: np.ndarray
    step_trace: np.ndarray
    converged: bool
    iterations: int
    stop_reason: str
    grad_norm: float
    backtracks: int
    held_nodes: int
    start: str


def _box_preconditioner(dims, spacing, p):
    """Exact inverse of ``p h^n A_I^T A_I`` on the interior of the lattice box.

    ``A`` is the cell-gradient operator (``acceptance._gradient_operator`` with every
    cell complete) and ``I`` the nodes off the box faces.  On that product set
    ``A_I^T A_I = sum_a L_a (x) prod_{b != a} M_b`` with ``L = tridiag(-1, 2, -1)/h^2``
    and ``M = tridiag(1/4, 1/2, 1/4)``, both diagonalised by the orthonormal DST-I
    matrix ``S``.  The eigenvalues of ``M``, ``(1 + cos theta_k)/2``, vanish towards
    the checkerboard (hourglass) mode, which the inverse therefore captures exactly.
    Returns ``apply(g)`` mapping an array of the interior shape ``dims - 2`` to
    ``S (S g / (p h^n Lambda))``, transformed axis by axis, beside the per-axis ``S``
    and the eigenvalue grid ``p h^n Lambda``.  ``S`` is symmetric, so each axis is one
    matmul on a reshaped view, ``S @ x`` over ``(before, m, after)`` or ``x @ S`` over
    ``(before, m)`` for the last axis, and no transposed copy is made.
    """
    n = len(dims)
    shape = tuple(d - 2 for d in dims)
    transforms, eig_l, eig_m = [], [], []
    for d in dims:
        m = d - 2
        k = np.arange(1, m + 1)
        theta = np.pi * k / (m + 1)
        transforms.append(math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k, k) * np.pi / (m + 1)))
        eig_l.append((2.0 - 2.0 * np.cos(theta)) / spacing ** 2)
        eig_m.append(0.5 * (1.0 + np.cos(theta)))

    eig_l, eig_m = np.ix_(*eig_l), np.ix_(*eig_m)
    lam = sum(eig_l[a] * math.prod(eig_m[b] for b in range(n) if b != a) for a in range(n))
    scale = p * spacing ** n * lam

    blocks = [(math.prod(shape[:a]), shape[a], math.prod(shape[a + 1:])) for a in range(n)]

    def transform(x):
        for S, block in zip(transforms[:-1], blocks):
            x = S @ x.reshape(block)
        return (x.reshape(-1, shape[-1]) @ transforms[-1]).reshape(shape)

    return (lambda g: transform(transform(g) / scale)), transforms, scale


def _capacitance_inverse(held, transforms, scale):
    """Inverse of the capacitance matrix ``C = E^T P^-1 E`` of the k held nodes.

    ``held`` is the k x n array of their indices in the interior shape, ``E`` their
    k unit columns, and ``transforms`` and ``scale`` the DST matrices and eigenvalue
    grid of :func:`_box_preconditioner`.  ``P^-1 = F diag(1/scale) F^T`` with row i of
    ``F`` the outer product of the rows ``S_a[i_a, :]``, so C is a sum over the
    first-axis frequencies x of ``outer(S_0[h_0, x], S_0[h_0, x])`` times
    ``(G / scale[x]) G^T``, where G (k x interior/m_0) holds the products of the other
    axes' rows: no node-sized array per held node is formed.
    """
    k = len(held)
    G = np.ones((k, 1))
    for S, idx in zip(transforms[1:], held.T[1:]):
        G = (G[:, :, None] * S[idx][:, None, :]).reshape(k, -1)
    first = transforms[0][held[:, 0]]
    C = np.zeros((k, k))
    for x, s in enumerate(scale.reshape(first.shape[1], -1)):
        C += np.outer(first[:, x], first[:, x]) * ((G / s) @ G.T)
    return np.linalg.inv(C)


def _free_node_inverse(interior, spacing, p):
    """The descent direction ``(g, s) -> z`` of the p = 2 operator on the free nodes, and k.

    ``P`` is the p = 2 operator on the box interior (:func:`_box_preconditioner`) and
    k the number of nodes inside the box that ``interior`` holds fixed.  With none, z
    is ``P^-1 g``.  With ``0 < k <= MAX_HELD_NODES``, z inverts the free-node block
    ``P_FF`` exactly by the capacitance matrix method (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971; Proskurowski & Widlund, Math. Comp. 30, 1976):
    ``z0 = P^-1 g``, ``lam = C^-1 z0[held]``, ``z = z0 - P^-1 E lam``, which is zero at
    the held nodes, so a direction costs one more box transform pair and the solve
    stores only ``C^-1``.  Above the cap z is ``P^-1 g`` zeroed at the held nodes, a
    principal block of ``P^-1``.  Every principal block of the inverse of an SPD matrix
    is SPD, so either way ``g.z > 0`` for a nonzero g on the free nodes.  The scale s,
    over the box interior and 0 at the held nodes (:func:`_node_scale`), multiplies g
    as it is gathered and z before it is scattered back, so the direction is
    ``s * z(s * g)``, zero off the free nodes.
    """
    precondition, transforms, scale = _box_preconditioner(interior.shape, spacing, p)
    inner = tuple(slice(1, -1) for _ in interior.shape)
    free = interior[inner]
    held = np.argwhere(~free)
    if 0 < len(held) <= MAX_HELD_NODES:
        c_inv, at_held = _capacitance_inverse(held, transforms, scale), tuple(held.T)
    else:
        c_inv = None

    def direction(g, s):
        z = np.zeros_like(g)
        zi = precondition(g[inner] * s)
        if c_inv is not None:
            lam = np.zeros_like(zi)
            lam[at_held] = c_inv @ zi[at_held]
            zi -= precondition(lam)
        zi *= s
        z[inner] = zi
        return z

    return direction, len(held)


def _node_scale(state, free):
    """Diagonal scale ``s`` of the descent direction at the state of :func:`_energy`.

    ``d`` sums the lagged coefficient ``wp`` (``|Du|^(p-2)`` on complete cells, 0
    elsewhere) over each node's 2^n cells: it is how much the coefficient weighs the
    p = 2 operator at that node.  ``free`` marks the free nodes of the box interior.
    Over the interior ``s = 1/sqrt(clip(d / ref, 1/K, K))``, with ``ref`` the mean of d
    over the free nodes and ``K = MAX_COEFFICIENT_RATIO``, and s is 0 at the held
    nodes.  Where every cell around the free nodes is complete and p = 2, d is ``2^n``
    at each of them and s is exactly 1.  Where d vanishes on every free node (none is
    free, or ``wp`` underflows at a large p) s is 1 on the free nodes.
    """
    shape, strides, _, wp = state
    # after the n sums of the cell stencil entry i holds the cells whose lowest corner
    # is i + {0,1}^n, the cells around node i + sum(strides): the first interior node
    # for i = 0, so a view with the node strides reads d over the interior
    for stride in strides:
        wp = _pair(wp, stride, 1)
    d = np.ndarray(free.shape, wp.dtype, wp, 0, [stride * wp.itemsize for stride in strides])
    s = d * free
    total = float(s.sum())
    if total == 0.0:
        return free.astype(float)
    ref = total / np.count_nonzero(free)
    # sqrt(ref) / sqrt(d clipped to ref [1/K, K]), so that d == ref gives exactly 1
    np.maximum(s, ref / MAX_COEFFICIENT_RATIO, out=s)
    np.minimum(s, ref * MAX_COEFFICIENT_RATIO, out=s)
    np.sqrt(s, out=s)
    np.divide(math.sqrt(ref), s, out=s)
    s *= free
    return s


def solve_p_harmonic(boundary_data: GridFunction, config: SolverConfig) -> PHarmonicResult:
    """Minimize the regularized p-Dirichlet energy over the interior nodes.

    Preconditioned descent (Huang, Li & Liu 2007): the search direction is
    ``z = s * P_FF^-1 (s * g)``, ``P = p h^n A_I^T A_I`` the p=2 operator on the box
    interior (:func:`_box_preconditioner`) and F its free (interior-mask) nodes; with
    more than ``MAX_HELD_NODES`` nodes inside the box excised or tightened into the
    boundary, a principal block of ``P^-1`` stands in for ``P_FF^-1``
    (:func:`_free_node_inverse`).  The diagonal scale s (:func:`_node_scale`) is rebuilt
    at every accepted iterate from the same cell state as its gradient: for p > 2 the
    Hessian weighs the p=2 operator by the lagged coefficient ``|Du|^(p-2)``, which
    varies across the box, and scaling the fast separable inverse by that
    coefficient's inverse square root at each node keeps it (Concus & Golub, SIAM J.
    Numer. Anal. 10, 1973).  The coefficient is clipped to ``[1/K, K]`` times its mean
    over F, ``K = MAX_COEFFICIENT_RATIO``, so s stays within ``[K^-1/2, K^1/2]`` and z
    stays an SPD map of g on F, zero off F.  The step is a Barzilai-Borwein length in
    that metric, ``t = t_prev^2 (g_prev.z_prev) / (du.dg)`` with du and dg the last
    changes of u and g, backtracked until the Armijo test ``E(u - t z) <= E(u) -
    armijo t g.z`` holds, so the energy trace is monotone.  ``tighten_boundary`` holds
    every corner of every incomplete cell, so on a tightened lattice ``P_FF`` is the
    p=2 operator itself and, at p = 2, s is exactly 1 on F; the iteration count does
    not grow with the lattice (a cone's apex holds 27 nodes); above the cap it does.

    Start: from the interior entries ``u_0`` of ``boundary_data`` (the height samples
    themselves, in the probe's case) or from the p = 2 predictor ``u_h = u_0 - (p/2)
    z(g_2)``, with ``g_2`` the p = 2 energy gradient at ``u_0`` and z the direction at a
    unit scale, which inverts ``P_2 = (2/p) P`` on F.  The descent starts from ``u_h``
    only where ``E(u_h) < E(u_0)`` (a NaN energy never wins), so from a cold start it
    skips the steps a p = 2 solve would take, and a p=2 solve on a tightened lattice
    with at most ``MAX_HELD_NODES`` held nodes starts at its minimizer and takes no
    step.  Where ``u_0`` wins every iterate is the same as without the predictor.

    A trial step costs one energy evaluation (:func:`_energy`); the gradient and the
    scale are built from its retained cell components only once the step is accepted
    (:func:`_energy_gradient`), so a solve makes ``iterations + 2`` gradient builds
    (one is ``g_2``), ``iterations + 1`` scales and ``len(energy_trace) + backtracks +
    1`` energy evaluations (one is ``E(u_h)``), one more when its last trial passed the
    Armijo test but was not accepted.  ``iterations == len(step_trace)`` for every stop
    reason.

    Termination: before each line search, the trial step predicts a decrease ``t g.z``
    of at most ``config.tolerance * |E|`` (``"stalled"``) or the gradient vanishes
    (``"zero_gradient"``); a step passes the Armijo test with the energy unchanged
    (``"stalled"``, the step is not accepted: it passed on rounding alone, as happens
    where the minimum energy is about 0 and ``tolerance |E|`` lies below every step's
    rounding); no step passes the Armijo test after ``config.max_backtracks`` halvings
    (``"line_search_exhausted"``, taken as the numerical optimum); or
    ``config.max_iterations`` steps were accepted (``"max_iterations"``, the result is
    then flagged non-converged).
    """
    gf = boundary_data.copy()
    gf.validate()
    boundary_vals = gf.values[gf.boundary_mask & gf.active_mask()]
    if boundary_vals.size == 0 or not np.all(np.isfinite(boundary_vals)):
        raise DataError("boundary values must be finite")
    interior = gf.interior_mask()
    active = gf.active_mask()
    # excised nodes enter as zeros; their cells are masked out of the energy
    vals = np.where(active, gf.values, 0.0)
    weights = _cell_weights(active)
    h, p, eps = gf.spacing, config.p, config.epsilon
    direction, held = _free_node_inverse(interior, h, p)
    free = interior[tuple(slice(1, -1) for _ in interior.shape)]
    energy, state = _energy(vals, h, p, eps, weights)
    # the p = 2 predictor: the p = 2 gradient is the adjoint chain of the start's own
    # cell components weighted by the cells alone, and a unit scale inverts
    # P_2 = (2/p) P on the free nodes
    grad = _energy_gradient((*state[:3], weights), h, 2.0)
    harmonic = vals - (p / 2.0) * direction(grad, free.astype(float))
    e_harmonic, state_harmonic = _energy(harmonic, h, p, eps, weights)
    start = "given"
    if e_harmonic < energy:  # a NaN energy never wins
        start, vals, energy, state = "harmonic", harmonic, e_harmonic, state_harmonic
    del harmonic, state_harmonic
    # masked to the interior once, after the loop: inside it every product reading g
    # off the free nodes meets a zero (the direction's scale, z, the step u - u_prev)
    grad = _energy_gradient(state, h, p)
    scale = _node_scale(state, free)
    del state  # the cell components are dead once the gradient and scale are built
    trace, steps = [energy], []
    converged, stop_reason = False, "max_iterations"
    backtracks = 0
    t = 1.0
    s = grad_prev = gz_prev = None
    for _ in range(config.max_iterations):
        z = direction(grad, scale)
        gz = float(np.vdot(grad, z))
        if gz == 0.0:
            converged, stop_reason = True, "zero_gradient"
            break
        if s is not None:
            # Barzilai-Borwein trial step in the P-metric, backtracked to guarantee decrease
            sy = float(np.vdot(s, grad - grad_prev))
            t = t * t * gz_prev / sy if sy > 0 else t * 2.0
        if t * gz <= config.tolerance * abs(energy):
            # the trial step predicts a decrease below the energy's own resolution
            converged, stop_reason = True, "stalled"
            break
        for _ in range(config.max_backtracks):
            cand = vals - t * z
            e_new, state = _energy(cand, h, p, eps, weights)
            if e_new <= energy - config.armijo * t * gz:
                break
            backtracks += 1
            t *= config.backtrack
        else:
            converged, stop_reason = True, "line_search_exhausted"
            break
        if e_new == energy:
            # the step passed the Armijo test on rounding alone: it lowers nothing
            converged, stop_reason = True, "stalled"
            break
        s, grad_prev, gz_prev = cand - vals, grad, gz
        vals, energy = cand, e_new
        grad = _energy_gradient(state, h, p)
        scale = _node_scale(state, free)
        del state
        trace.append(energy)
        steps.append(t)

    grad = np.where(interior, grad, 0.0)
    out = gf.copy()
    out.values = np.where(active, vals, gf.values)
    return PHarmonicResult(out, np.asarray(trace), np.asarray(steps), converged, len(steps),
                           stop_reason, float(np.sqrt(np.sum(grad * grad))), backtracks,
                           held, start)


@dataclass(frozen=True)
class ProbeResult:
    """Viscosity-comparison probe outcome on one box.

    ``iterations``, ``stop_reason``, ``grad_norm``, ``backtracks`` and ``held_nodes``
    are those of the p-harmonic solve (:class:`PHarmonicResult`).
    """

    subharmonic: bool
    min_margin: float
    tolerance: float
    excised_nodes: int
    spacing: float
    iterations: int
    stop_reason: str
    grad_norm: float
    backtracks: int
    held_nodes: int


def viscosity_probe(field: HeightField, lo, hi, config: SolverConfig,
                    spacing: float) -> ProbeResult:
    """Does the p-harmonic extension of h's boundary values dominate h on the box?

    Excised (-inf) nodes inside the box are removed from the Dirichlet domain and
    counted in the report; tolerance is 10 * spacing^2.
    """
    h_grid = sample_height_grid(field, lo, hi, spacing)
    excised = int(np.sum(~h_grid.active_mask()))
    h_grid = tighten_boundary(h_grid)
    result = solve_p_harmonic(h_grid, config)
    interior = h_grid.interior_mask()
    tol = 10.0 * spacing ** 2
    margin = (float(np.min(result.grid.values[interior] - h_grid.values[interior]))
              if np.any(interior) else 0.0)
    return ProbeResult(margin >= -tol, margin, tol, excised, spacing, result.iterations,
                       result.stop_reason, result.grad_norm, result.backtracks,
                       result.held_nodes)
