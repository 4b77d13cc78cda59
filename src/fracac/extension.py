"""Weighted harmonic extension to the upper half space, its energy, the
Neumann trace check, and the scale-normalized energy monotonicity quantity.

The extension U of a boundary field u solves div(y^{1-s} grad U) = 0 with
U(.,0) = u (Caffarelli-Silvestre), in closed form on both routes: periodic
levels are the exact extension of the trigonometric interpolant of u (a
Bessel multiplier per Fourier mode); 1D exterior levels and gradients are
exact for the piecewise-constant interpolant, through the kernel
y^s / (z^2 + y^2)^{(1+s)/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

import numpy as np
from scipy import fft as sfft
from scipy.special import betainc, gamma as gamma_fn, kv

from ._lattice import axis_cell_bounds, exterior_asymptote, fft_workers
from .energies import Potential
from .errors import ConfigurationError
from .fields import (
    ConstantExterior,
    FieldExterior,
    Grid,
    Periodic,
    ScalarField,
)

__all__ = [
    "ExtensionField",
    "MonotonicityTrace",
    "extension_constant",
    "extend",
    "extend_by_weighted_solve",
    "halfspace_extension",
    "extension_energy",
    "neumann_trace_residual",
    "monotonicity_trace",
]


def extension_constant(s: float) -> float:
    """d_s = 2^{s-1} Gamma(s/2) / Gamma(1 - s/2); equals 1 at s = 1."""
    return 2.0 ** (s - 1.0) * gamma_fn(s / 2.0) / gamma_fn(1.0 - s / 2.0)


def _levels(s: float, h: float, y_max: float, levels) -> np.ndarray:
    """Validated level heights led by y = 0, shared by every backend.  The
    default grades geometrically from h/4 by a ratio 1.15 to at least y_max."""
    if not (0.0 < s < 1.0):
        raise ConfigurationError("extension order must lie in (0, 1)")
    if levels is None:
        if not y_max > 0.0:
            raise ConfigurationError("y_max must be positive")
        k = int(np.ceil(np.log(y_max / (h / 4.0)) / np.log(1.15)))
        levels = h / 4.0 * 1.15 ** np.arange(k + 1)
    ylev = np.asarray(levels, dtype=float).ravel()
    pos = ylev[1:] if ylev.size and ylev[0] == 0.0 else ylev
    if pos.size < 2 or not (np.all(pos > 0.0) and np.all(np.diff(pos) > 0.0)):
        raise ConfigurationError("levels need two or more positive, increasing heights")
    return np.concatenate([[0.0], pos])


def _kernel_total_mass(s: float) -> float:
    return np.sqrt(np.pi) * gamma_fn(s / 2.0) / gamma_fn((1.0 + s) / 2.0)


def _kernel_density(eta: np.ndarray, s: float) -> np.ndarray:
    """q(eta) = (1 + eta^2)^{-(1+s)/2}, the 1D kernel in the variable z/y."""
    return (1.0 + eta * eta) ** (-(1.0 + s) / 2.0)


def _kernel_cdf_tail(eta: np.ndarray, s: float) -> np.ndarray:
    """Q(eta) = integral_eta^inf q(t) dt (vectorized, any sign of eta).

    Written through the regularized incomplete beta function, which keeps
    cell-exact kernel weights cheap.
    """
    eta = np.asarray(eta, dtype=float)
    total = _kernel_total_mass(s)
    a = np.abs(eta)
    upper = 0.5 * total * betainc(s / 2.0, 0.5, 1.0 / (1.0 + a * a))
    return np.where(eta >= 0.0, upper, total - upper)


def _xi_squared(g: Grid) -> np.ndarray:
    """|xi|^2 over the FFT modes of a periodic grid (shape g.shape)."""
    freqs = 2.0 * np.pi * sfft.fftfreq(g.nodes_per_axis, d=g.h)
    return sum(m * m for m in np.meshgrid(*([freqs] * g.n), indexing="ij"))


@dataclass
class ExtensionField:
    """U(x, y) on base-grid nodes times graded levels (level 0 is y = 0).

    `grad_eval(px, py) -> (Ux, Uy)` is the exact gradient anywhere in the
    open half space when the construction route has a closed form for it;
    the energy quadrature uses it to resolve the corner of non-smooth
    boundary data.
    """

    base: ScalarField
    s: float
    y_levels: np.ndarray
    values: np.ndarray          # shape (levels,) + base.grid.shape
    grad_eval: Optional[Callable] = None
    resolution_flag: bool = False
    _corner_cache: dict = dfield(default_factory=dict, repr=False)


@dataclass
class MonotonicityTrace:
    radii: np.ndarray
    phi_values: np.ndarray
    error_bars: np.ndarray
    violations: list = dfield(default_factory=list)
    hypothesis_ok: bool = True

    def __post_init__(self):
        if not np.all(np.diff(self.radii) > 0):
            raise ConfigurationError("radii must be strictly increasing")
        if not np.all(np.isfinite(self.phi_values)):
            raise ConfigurationError("monotonicity values must be finite")


# ---------------------------------------------------------------------------
# construction backends
# ---------------------------------------------------------------------------

def _extend_periodic(u: ScalarField, s: float, ylev: np.ndarray) -> np.ndarray:
    """Each level is ifftn(fftn(u) * phi(|xi| y)) in any dimension, with the
    Bessel multiplier phi(t) = 2^{1-s/2} / Gamma(s/2) * t^{s/2} K_{s/2}(t):
    phi(0) = 1 keeps the mean, and phi = 0 where K_{s/2} underflows."""
    sig = s / 2.0
    xi = np.sqrt(_xi_squared(u.grid))
    xi.flat[0] = 1.0                # |xi| = 0 only at the mean mode, reset below
    out = np.empty((len(ylev),) + u.grid.shape)
    out[0] = u.values
    with sfft.set_workers(fft_workers()):
        fu = sfft.fftn(u.values)
        for j, y in enumerate(ylev[1:], start=1):
            phi = 2.0 ** (1.0 - sig) / gamma_fn(sig) * (xi * y) ** sig * kv(sig, xi * y)
            phi.flat[0] = 1.0
            out[j] = sfft.ifftn(fu * phi).real
    return out


class _Exterior1DTail:
    """Per-level boundary tails of the extension kernel for 1D exterior grids."""

    def __init__(self, u: ScalarField, s: float):
        g = u.grid
        b = g.boundary
        self.b_lo, self.b_hi = axis_cell_bounds(g)
        self.s = s
        self.field_sides = ()       # per side: sign, nodes t, exterior minus its limit
        if isinstance(b, ConstantExterior):
            self.g_lo, self.g_hi = b.sides[0]
        elif isinstance(b, FieldExterior):
            self.g_lo, self.g_hi = exterior_asymptote(g)
            span = np.geomspace(1e-3, 2e4, 1200)
            t_hi, t_lo = self.b_hi + span, self.b_lo - span
            self.field_sides = ((1.0, t_hi, b(t_hi[:, None]) - self.g_hi),
                                (-1.0, t_lo, b(t_lo[:, None]) - self.g_lo))
        else:
            raise ConfigurationError("unsupported exterior for the extension")

    def values(self, x: np.ndarray, y: float) -> np.ndarray:
        """Tail integral of u_ext against the kernel beyond each boundary."""
        s = self.s
        v = (self.g_hi * _kernel_cdf_tail((self.b_hi - x) / y, s)
             + self.g_lo * _kernel_cdf_tail((x - self.b_lo) / y, s))
        for sgn, t, p in self.field_sides:
            ker = y ** s / ((x[:, None] - t[None, :]) ** 2 + y ** 2) ** ((1 + s) / 2.0)
            v = v + sgn * np.trapezoid(ker * p[None, :], t, axis=1)
        return v

    def field_gradient(self, x: np.ndarray, y: float):
        """(d/dx, d/dy) of the field-exterior sums in `values(x, y)`, with the
        kernel differentiated inside the trapezoid sums."""
        s = self.s
        vx = vy = 0.0
        for sgn, t, p in self.field_sides:
            d = x[:, None] - t[None, :]
            r2 = d * d + y * y
            ker = sgn * p[None, :] * y ** s / r2 ** ((1 + s) / 2.0)
            vx = vx + np.trapezoid(-(1 + s) * d / r2 * ker, t, axis=1)
            vy = vy + np.trapezoid((s / y - (1 + s) * y / r2) * ker, t, axis=1)
        return vx, vy


def _extend_exterior_1d(u: ScalarField, s: float, ylev: np.ndarray):
    """Cell-exact kernel masses over box cells plus closed-form side tails.

    Cell weights are CDF differences of the kernel, so each level is the
    exact continuum convolution of the piecewise-constant interpolant of u;
    levels below the grid spacing stay meaningful, which the Neumann trace
    extraction relies on.  `grad_eval` differentiates the same masses: the
    mass Q((e - x)/y) beyond an edge e has gradient (q, eta q)/y, so grad U is
    q and eta q at the edges weighted by the jumps of the interpolant, the
    exterior limits included.
    """
    g = u.grid
    x = g.axis_coords()
    N = x.size
    tails = _Exterior1DTail(u, s)
    total = _kernel_total_mass(s)
    out = np.empty((len(ylev), N))
    out[0] = u.values

    # offsets k = -(N-1)..(N-1); the cell at offset k has edges (k -+ 1/2)h
    k_edges = (np.arange(-(N - 1), N + 1, dtype=float) - 0.5) * g.h
    for j, y in enumerate(ylev[1:], start=1):
        qe = _kernel_cdf_tail(k_edges / y, s)
        row = qe[:-1] - qe[1:]            # mass of each offset cell, symmetric
        conv = np.convolve(u.values, row, mode="full")[N - 1:2 * N - 1]
        out[j] = (conv + tails.values(x, y)) / total   # cells + tails tile R exactly

    edges = np.concatenate([x - g.h / 2.0, [x[-1] + g.h / 2.0]])
    jumps = np.diff(u.values, prepend=tails.g_lo, append=tails.g_hi)

    def grad_eval(px, py):
        px = np.asarray(px, dtype=float).ravel()
        py = np.asarray(py, dtype=float).ravel()
        ux, uy = np.empty(px.shape), np.empty(px.shape)
        for y in np.unique(py):            # one height at a time bounds memory
            sel = py == y
            eta = (edges[None, :] - px[sel][:, None]) / y
            q = _kernel_density(eta, s)
            tx, ty = tails.field_gradient(px[sel], y)
            ux[sel] = (q @ jumps / y + tx) / total
            uy[sel] = ((eta * q) @ jumps / y + ty) / total
        return ux, uy

    return out, grad_eval


def extend(u: ScalarField, s: float, y_max: float,
           levels: Optional[np.ndarray] = None) -> ExtensionField:
    """Bounded weighted-harmonic extension of u, level by level.

    Periodic grids (n <= 2) extend the trigonometric interpolant of u
    exactly; 1D exterior grids extend the piecewise-constant interpolant
    exactly, with a positive unit-mass kernel (so a maximum principle).
    `levels`, with or without the leading 0, needs at least two positive,
    strictly increasing heights.  The resolution flag is raised when the
    mean disagreement between the two smallest levels and the boundary
    data exceeds 1% of the data range.
    """
    g = u.grid
    ylev = _levels(s, g.h, y_max, levels)

    grad_eval = None
    if isinstance(g.boundary, Periodic):
        if g.n > 2:
            raise ConfigurationError("periodic extension supports n <= 2")
        vals = _extend_periodic(u, s, ylev)
    elif g.n == 1:
        vals, grad_eval = _extend_exterior_1d(u, s, ylev)
    else:
        raise ConfigurationError("exterior-model extension is 1D-base only")

    rng_u = max(float(u.values.max() - u.values.min()), 1e-12)
    mean_gap = max(float(np.mean(np.abs(vals[1] - u.values))),
                   float(np.mean(np.abs(vals[2] - u.values))))
    flag = mean_gap > 0.01 * rng_u
    return ExtensionField(u, float(s), ylev, vals, grad_eval, flag)


def extend_by_weighted_solve(u: ScalarField, s: float, y_max: float,
                             levels: Optional[np.ndarray] = None) -> ExtensionField:
    """Alternative backend: per-mode finite-volume solve of the weighted ODE.

    Periodic grids only.  Each Fourier mode m(y) satisfies
    (y^{1-s} m')' = y^{1-s} |xi|^2 m with m(0) = 1 and decay at the far
    top (imposed at 4 * y_max).  It shares no discretization with the
    Bessel multiplier of `extend`, which makes it an independent check.
    """
    g = u.grid
    if not isinstance(g.boundary, Periodic):
        raise ConfigurationError("the weighted solve backend needs a periodic grid")
    ylev = _levels(s, g.h, y_max, levels)
    # extend the mesh well above y_max so the top Dirichlet 0 is harmless
    pad = [ylev[-1]]
    while pad[-1] < 4.0 * y_max:
        pad.append(pad[-1] * 1.15)
    yy = np.concatenate([ylev, pad[1:]])
    K = len(yy)

    xi2 = _xi_squared(g).ravel()
    with sfft.set_workers(fft_workers()):
        fu = sfft.fftn(u.values).ravel()

    # tridiagonal FV matrix per mode on interior nodes 1..K-2; the flux
    # coefficient integrates the degenerate weight exactly, so the y^s
    # boundary behavior is represented without resolution loss
    yhalf = 0.5 * (yy[1:] + yy[:-1])
    a = s / (yy[1:] ** s - yy[:-1] ** s)     # exact two-point flux coefficients
    cellw = (yhalf[1:] ** (2.0 - s) - yhalf[:-1] ** (2.0 - s)) / (2.0 - s)

    # one Thomas sweep for all modes at once (rows: interior nodes, columns:
    # modes); the right-hand side is a[0] * fu on the first interior row
    n_int = K - 2
    diag = (a[:-1] + a[1:])[:, None] + xi2[None, :] * cellw[:, None]
    lower = -a[1:-1]
    cp = np.empty((n_int - 1, xi2.size))
    modes = np.zeros((K, xi2.size), dtype=complex)
    modes[0] = fu
    dp = modes[1:-1]                # forward sweep, then back substitution in place
    denom = diag[0]
    dp[0] = a[0] * fu / denom
    for i in range(1, n_int):
        cp[i - 1] = lower[i - 1] / denom
        denom = diag[i] - lower[i - 1] * cp[i - 1]
        dp[i] = -(lower[i - 1] * dp[i - 1]) / denom
    for i in range(n_int - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]

    vals = np.empty((len(ylev),) + g.shape)
    with sfft.set_workers(fft_workers()):
        for j in range(len(ylev)):
            vals[j] = sfft.ifftn(modes[j].reshape(g.shape)).real
    return ExtensionField(u, float(s), ylev, vals)


def halfspace_extension(s: float, grid: Grid, y_max: float) -> ExtensionField:
    """Exact degree-zero extension of the half-line sign field.

    Built from the continuum kernel integral of the exact indicator, so the
    values are homogeneous to round-off; `grad_eval` is analytic:
    grad U = (2 q(x/y) / (M y)) * (1, -x/y) with M the kernel's total mass.
    """
    if grid.n != 1:
        raise ConfigurationError("the exact cone extension is 1D-base only")
    total = _kernel_total_mass(s)

    def grad_eval(px, py):
        eta = np.asarray(px, dtype=float) / py
        ux = 2.0 * _kernel_density(eta, s) / (total * py)
        return ux, -eta * ux

    x = grid.axis_coords()
    ylev = _levels(s, grid.h, y_max, None)
    vals = np.empty((len(ylev), x.size))
    vals[0] = np.sign(x)
    for j, y in enumerate(ylev[1:], start=1):
        vals[j] = 1.0 - 2.0 * _kernel_cdf_tail(x / y, s) / total
    base = ScalarField(grid, np.sign(x))
    return ExtensionField(base, float(s), ylev, vals, grad_eval)


# ---------------------------------------------------------------------------
# energy and monotonicity
# ---------------------------------------------------------------------------

def _corner_patch_energy(U: ExtensionField, x_c: float, y_c: float,
                         nx: int = 64, ny: int = 64) -> float:
    """Graded tensor quadrature of y^{1-s} |grad U|^2 over the corner box
    [-x_c, x_c] x [0, y_c].

    The exact gradient is read at the midpoints of a mesh that grades
    geometrically toward the corner, resolving boundary-data singularities
    the uniform slab mesh cannot see.
    """
    xe = np.geomspace(1e-7, x_c, nx + 1)
    ye = np.geomspace(1e-7, y_c, ny + 1)
    xm, dx = 0.5 * (xe[1:] + xe[:-1]), np.diff(xe)
    ym, dy = 0.5 * (ye[1:] + ye[:-1]), np.diff(ye)
    X, Y = np.meshgrid(np.concatenate([-xm, xm]), ym, indexing="ij")
    ux, uy = U.grad_eval(X.ravel(), Y.ravel())
    dens = Y.ravel() ** (1.0 - U.s) * (ux ** 2 + uy ** 2)
    return float(dens @ np.outer(np.concatenate([dx, dx]), dy).ravel())


def _dirichlet_slabs(U: ExtensionField, R: float, skip_corner) -> float:
    """Slab-by-slab weighted Dirichlet energy inside the half-ball."""
    g = U.base.grid
    s = U.s
    ylev = U.y_levels
    vals = U.values
    if g.n != 1:
        raise ConfigurationError("half-ball energies are 1D-base only")
    x = g.axis_coords()
    h = g.h
    total = 0.0
    for k in range(len(ylev) - 1):
        y0, y1 = ylev[k], ylev[k + 1]
        ymid = 0.5 * (y0 + y1)
        if ymid > R:
            break
        wgt = (y1 ** (2.0 - s) - y0 ** (2.0 - s)) / (2.0 - s)
        du_dy = (vals[k + 1] - vals[k]) / (y1 - y0)
        umid = 0.5 * (vals[k + 1] + vals[k])
        du_dx = np.gradient(umid, x)
        dens = du_dy ** 2 + du_dx ** 2
        sel = x ** 2 + ymid ** 2 <= R ** 2
        if skip_corner is not None and y1 <= skip_corner[1] + 1e-12:
            sel &= np.abs(x) > skip_corner[0]
        total += wgt * h * float(dens[sel].sum())
    return total


def extension_energy(U: ExtensionField, R: float, W: Potential,
                     epsilon: float = 1.0) -> float:
    """(d_s/2) * weighted Dirichlet energy over the half-ball of radius R
    plus the boundary potential term."""
    g = U.base.grid
    if R > g.box_radius or R > U.y_levels[-1]:
        raise ConfigurationError("half-ball exceeds the extension box")
    s = U.s
    skip = None
    corner = 0.0
    if U.grad_eval is not None:
        kc = int(np.searchsorted(U.y_levels, 0.5))
        y_c = U.y_levels[kc]
        x_c = (round(0.5 / g.h) + 0.5) * g.h
        skip = (x_c, y_c)
        key = (x_c, y_c)
        if key not in U._corner_cache:
            U._corner_cache[key] = _corner_patch_energy(U, x_c, y_c)
        corner = U._corner_cache[key]
    dirichlet = _dirichlet_slabs(U, R, skip) + corner
    x = g.axis_coords()
    selb = np.abs(x) <= R
    pot = epsilon ** (-s) * g.h * float(W.w(U.values[0][selb]).sum())
    return 0.5 * extension_constant(s) * dirichlet + pot


def neumann_trace_residual(U: ExtensionField, W: Potential,
                           epsilon: float = 1.0) -> np.ndarray:
    """Pointwise gap between the extrapolated weighted normal derivative and
    the potential gradient, relative to the scale of the latter.

    The quantity d_s y^{1-s} dU/dy behaves like G0 + c y^{2-s} near the
    boundary; two inner slabs give a Richardson value for G0, which must
    match epsilon^{-s} W'(u) for solutions.
    """
    s = U.s
    ylev = U.y_levels
    vals = U.values
    d_s = extension_constant(s)

    def g_at(k):
        y0, y1 = ylev[k], ylev[k + 1]
        ymid = 0.5 * (y0 + y1)
        return ymid, d_s * ymid ** (1.0 - s) * (vals[k + 1] - vals[k]) / (y1 - y0)

    y_a, g_a = g_at(1)
    y_b, g_b = g_at(3)
    wa, wb = y_b ** (2.0 - s), y_a ** (2.0 - s)
    g0 = (g_a * wa - g_b * wb) / (wa - wb)
    target = epsilon ** (-s) * W.wp(U.values[0])
    scale = float(np.max(np.abs(target))) or 1.0
    return np.abs(g0 - target) / scale


def monotonicity_trace(U: ExtensionField, radii, W: Potential,
                       epsilon: float = 1.0,
                       hypothesis_ok: bool = True) -> MonotonicityTrace:
    """Phi(R) = R^{s-n} * half-ball energy, with per-radius error bars.

    Error bars come from recomputing on every other level (halved y
    resolution); an adjacent decrease beyond the combined bars is recorded
    as a violation.  `hypothesis_ok` marks whether the boundary data is a
    converged solution; without it no monotonicity is claimed.
    """
    g = U.base.grid
    radii = np.asarray(radii, dtype=float)
    n = g.n
    s = U.s
    phi = np.array([extension_energy(U, R, W, epsilon) * R ** (s - n) for R in radii])
    coarse = ExtensionField(U.base, U.s, U.y_levels[::2], U.values[::2], U.grad_eval,
                            _corner_cache=U._corner_cache)
    phi_c = np.array([extension_energy(coarse, R, W, epsilon) * R ** (s - n) for R in radii])
    err = np.abs(phi - phi_c) + 1e-9 * np.abs(phi)
    violations = []
    for k in range(len(radii) - 1):
        drop = phi[k] - phi[k + 1]
        budget = err[k] + err[k + 1]
        if drop > budget:
            violations.append({"from_radius": float(radii[k]),
                               "to_radius": float(radii[k + 1]),
                               "decrease": float(drop),
                               "error_bar": float(budget)})
    return MonotonicityTrace(radii, phi, err, violations, hypothesis_ok)
