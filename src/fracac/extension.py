"""Weighted harmonic extension to the upper half space, its energy, the
Neumann trace check, and the scale-normalized energy monotonicity quantity.

The extension U of a boundary field u solves div(y^{1-s} grad U) = 0 with
U(.,0) = u.  It is built level by level as a convolution with the kernel
y^s / (|z|^2 + y^2)^{(n+s)/2}, normalized numerically on each level so
constants extend to constants exactly (which also fixes the kernel's
absolute constant in the discrete setting).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

import numpy as np
from scipy import fft as sfft
from scipy.special import betainc, gamma as gamma_fn

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


def default_levels(h: float, y_max: float, ratio: float = 1.15) -> np.ndarray:
    """Geometric grading toward 0: smallest level h/4, growing by `ratio`."""
    y_min = h / 4.0
    k = int(np.ceil(np.log(y_max / y_min) / np.log(ratio)))
    return np.concatenate([[0.0], y_min * ratio ** np.arange(k + 1)])


def _kernel_total_mass(s: float) -> float:
    return np.sqrt(np.pi) * gamma_fn(s / 2.0) / gamma_fn((1.0 + s) / 2.0)


def _kernel_cdf_tail(eta: np.ndarray, s: float) -> np.ndarray:
    """integral_eta^inf (1 + t^2)^{-(1+s)/2} dt (vectorized, any sign of eta).

    Written through the regularized incomplete beta function, which keeps
    cell-exact kernel weights cheap.
    """
    eta = np.asarray(eta, dtype=float)
    total = _kernel_total_mass(s)
    a = np.abs(eta)
    upper = 0.5 * total * betainc(s / 2.0, 0.5, 1.0 / (1.0 + a * a))
    return np.where(eta >= 0.0, upper, total - upper)


@dataclass
class ExtensionField:
    """U(x, y) on base-grid nodes times graded levels (level 0 is y = 0).

    `point_eval(x, y)` evaluates U anywhere in the open half space when the
    construction route supports it; the energy quadrature uses it to
    resolve the corner of non-smooth boundary data.
    """

    base: ScalarField
    s: float
    y_levels: np.ndarray
    values: np.ndarray          # shape (levels,) + base.grid.shape
    point_eval: Optional[Callable] = None
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
    """Level-wise convolution with the image-folded kernel, via FFT.

    In 1D the torus row uses cell-exact kernel masses (CDF differences), so
    levels below the grid spacing remain meaningful; in 2D the cells are
    midpoint-sampled with images.
    """
    g = u.grid
    L = g.period
    p = g.nodes_per_axis
    k = np.arange(p, dtype=float) * g.h
    k = np.where(k > L / 2.0, k - L, k)
    meshes = np.meshgrid(*([k] * g.n), indexing="ij")
    m_img = 40
    img = L * np.arange(-m_img, m_img + 1, dtype=float)
    rho_far = (m_img + 0.5) * L
    out = np.empty((len(ylev),) + g.shape)
    out[0] = u.values
    with sfft.set_workers(fft_workers()):
        fu = sfft.fftn(u.values)
        for j, y in enumerate(ylev[1:], start=1):
            if g.n == 1:
                z = meshes[0][..., None] + img[None, :]
                row = (_kernel_cdf_tail((z - g.h / 2.0) / y, s)
                       - _kernel_cdf_tail((z + g.h / 2.0) / y, s)).sum(axis=-1)
                # kernel mass decays only like (y/rho)^s: fold the images
                # beyond the truncation in as a uniform correction
                row += 2.0 * _kernel_cdf_tail(rho_far / y, s) / p
            else:
                ix, iy = np.meshgrid(img, img, indexing="ij")
                zx = meshes[0][..., None] + ix.ravel()[None, None, :]
                zy = meshes[1][..., None] + iy.ravel()[None, None, :]
                row = g.cell_volume() * (
                    y ** s / (zx ** 2 + zy ** 2 + y ** 2) ** ((g.n + s) / 2.0)).sum(axis=-1)
                row += 2.0 * np.pi * y ** s * rho_far ** (-s) / s / p ** 2
            row /= row.sum()        # constants preserved exactly
            out[j] = sfft.ifftn(fu * sfft.fftn(row)).real
    return out


class _Exterior1DTail:
    """Per-level boundary tails of the extension kernel for 1D exterior grids."""

    def __init__(self, u: ScalarField, s: float):
        g = u.grid
        b = g.boundary
        self.b_lo, self.b_hi = axis_cell_bounds(g)
        self.s = s
        if isinstance(b, ConstantExterior):
            self.g_lo, self.g_hi = b.sides[0]
            self.field_corr = None
        elif isinstance(b, FieldExterior):
            self.g_lo, self.g_hi = exterior_asymptote(g)
            span = np.geomspace(1e-3, 2e4, 1200)
            self.t_hi = self.b_hi + span
            self.t_lo = self.b_lo - span
            self.p_hi = b(self.t_hi[:, None]) - self.g_hi
            self.p_lo = b(self.t_lo[:, None]) - self.g_lo
            self.field_corr = True
        else:
            raise ConfigurationError("unsupported exterior for the extension")

    def masses_and_values(self, x: np.ndarray, y: float):
        """Return (tail mass, tail integral of u_ext) beyond each boundary."""
        s = self.s
        m_hi = _kernel_cdf_tail((self.b_hi - x) / y, s)
        m_lo = _kernel_cdf_tail((x - self.b_lo) / y, s)
        v = self.g_hi * m_hi + self.g_lo * m_lo
        if self.field_corr:
            ker_hi = y ** s / ((x[:, None] - self.t_hi[None, :]) ** 2 + y ** 2) ** ((1 + s) / 2.0)
            ker_lo = y ** s / ((x[:, None] - self.t_lo[None, :]) ** 2 + y ** 2) ** ((1 + s) / 2.0)
            v = v + np.trapezoid(ker_hi * self.p_hi[None, :], self.t_hi, axis=1)
            v = v - np.trapezoid(ker_lo * self.p_lo[None, :], self.t_lo, axis=1)
        return m_hi + m_lo, v


def _extend_exterior_1d(u: ScalarField, s: float, ylev: np.ndarray):
    """Cell-exact kernel masses over box cells plus closed-form side tails.

    Cell weights are CDF differences of the kernel, so each level is the
    exact continuum convolution of the piecewise-constant interpolant of u;
    levels below the grid spacing stay meaningful, which the Neumann trace
    extraction relies on.
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
        mass_t, val_t = tails.masses_and_values(x, y)
        out[j] = (conv + val_t) / total   # cells + tails tile R exactly

    def eval_points(px: np.ndarray, py: np.ndarray) -> np.ndarray:
        px = np.asarray(px, dtype=float).ravel()
        py = np.asarray(py, dtype=float).ravel()
        res = np.empty(px.shape)
        edges = np.concatenate([x - g.h / 2.0, [x[-1] + g.h / 2.0]])
        for y in np.unique(py):
            sel = py == y
            qe = _kernel_cdf_tail((edges[None, :] - px[sel][:, None]) / y, s)
            wts = qe[:, :-1] - qe[:, 1:]
            mass_t, val_t = tails.masses_and_values(px[sel], y)
            res[sel] = (wts @ u.values + val_t) / total
        return res

    return out, eval_points


def extend(u: ScalarField, s: float, y_max: float,
           levels: Optional[np.ndarray] = None) -> ExtensionField:
    """Bounded weighted-harmonic extension of u, level by level.

    Each level's kernel is normalized to unit discrete mass, so constants
    extend exactly and the maximum principle holds by construction.  The
    resolution flag is raised when the mean disagreement between the two
    smallest levels and the boundary data exceeds 1% of the data range.
    """
    if not (0.0 < s < 1.0):
        raise ConfigurationError("extension order must lie in (0, 1)")
    g = u.grid
    ylev = default_levels(g.h, y_max) if levels is None else np.asarray(levels, dtype=float)
    if ylev[0] != 0.0:
        ylev = np.concatenate([[0.0], ylev])

    point_eval = None
    if isinstance(g.boundary, Periodic):
        if g.n > 2:
            raise ConfigurationError("periodic extension supports n <= 2")
        vals = _extend_periodic(u, s, ylev)
    elif g.n == 1:
        vals, point_eval = _extend_exterior_1d(u, s, ylev)
    else:
        raise ConfigurationError("exterior-model extension is 1D-base only")

    rng_u = max(float(u.values.max() - u.values.min()), 1e-12)
    mean_gap = max(float(np.mean(np.abs(vals[1] - u.values))),
                   float(np.mean(np.abs(vals[2] - u.values))))
    flag = mean_gap > 0.01 * rng_u
    return ExtensionField(u, float(s), ylev, vals, point_eval, flag)


def extend_by_weighted_solve(u: ScalarField, s: float, y_max: float,
                             levels: Optional[np.ndarray] = None) -> ExtensionField:
    """Alternative backend: per-mode finite-volume solve of the weighted ODE.

    Periodic grids only.  Each Fourier mode m(y) satisfies
    (y^{1-s} m')' = y^{1-s} |xi|^2 m with m(0) = 1 and decay at the far
    top (imposed at 4 * y_max).
    """
    g = u.grid
    if not isinstance(g.boundary, Periodic):
        raise ConfigurationError("the weighted solve backend needs a periodic grid")
    ylev = default_levels(g.h, y_max) if levels is None else np.asarray(levels, dtype=float)
    if ylev[0] != 0.0:
        ylev = np.concatenate([[0.0], ylev])
    # extend the mesh well above y_max so the top Dirichlet 0 is harmless
    pad = [ylev[-1]]
    while pad[-1] < 4.0 * y_max:
        pad.append(pad[-1] * 1.15)
    yy = np.concatenate([ylev, pad[1:]])
    K = len(yy)

    freqs = [2.0 * np.pi * sfft.fftfreq(g.nodes_per_axis, d=g.h) for _ in range(g.n)]
    mesh = np.meshgrid(*freqs, indexing="ij")
    xi2 = sum(m * m for m in mesh).ravel()

    with sfft.set_workers(fft_workers()):
        fu = sfft.fftn(u.values).ravel()

    # tridiagonal FV matrix per mode on interior nodes 1..K-2; the flux
    # coefficient integrates the degenerate weight exactly, so the y^s
    # boundary behavior is represented without resolution loss
    yhalf = 0.5 * (yy[1:] + yy[:-1])
    a = s / (yy[1:] ** s - yy[:-1] ** s)     # exact two-point flux coefficients
    cellw = np.empty(K)
    cellw[1:-1] = (yhalf[1:] ** (2.0 - s) - yhalf[:-1] ** (2.0 - s)) / (2.0 - s)

    n_int = K - 2
    modes = np.empty((K, xi2.size), dtype=complex)
    modes[0] = fu
    modes[-1] = 0.0
    diag_base = a[:-1] + a[1:]
    for idx in range(xi2.size):
        q2 = xi2[idx]
        diag = diag_base + q2 * cellw[1:-1]
        lower = -a[1:-1]
        rhs = np.zeros(n_int, dtype=complex)
        rhs[0] = a[0] * fu[idx]
        # Thomas solve
        cp = np.empty(n_int)
        dp = np.empty(n_int, dtype=complex)
        cp[0] = lower[0] / diag[0] if n_int > 1 else 0.0
        dp[0] = rhs[0] / diag[0]
        for i in range(1, n_int):
            denom = diag[i] - lower[i - 1] * cp[i - 1]
            cp[i] = lower[i] / denom if i < n_int - 1 else 0.0
            dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / denom
        sol = np.empty(n_int, dtype=complex)
        sol[-1] = dp[-1]
        for i in range(n_int - 2, -1, -1):
            sol[i] = dp[i] - cp[i] * sol[i + 1]
        modes[1:-1, idx] = sol

    vals = np.empty((len(ylev),) + g.shape)
    with sfft.set_workers(fft_workers()):
        for j in range(len(ylev)):
            vals[j] = sfft.ifftn(modes[j].reshape(g.shape)).real
    return ExtensionField(u, float(s), ylev, vals)


def halfspace_extension(s: float, grid: Grid, y_max: float) -> ExtensionField:
    """Exact degree-zero extension of the half-line sign field.

    Built from the continuum kernel integral of the exact indicator, so the
    values are homogeneous to round-off; `point_eval` is analytic.
    """
    if grid.n != 1:
        raise ConfigurationError("the exact cone extension is 1D-base only")
    total = np.sqrt(np.pi) * gamma_fn(s / 2.0) / gamma_fn((1.0 + s) / 2.0)

    def u_exact(px, py):
        return 1.0 - 2.0 * _kernel_cdf_tail(px / py, s) / total

    x = grid.axis_coords()
    ylev = default_levels(grid.h, y_max)
    vals = np.empty((len(ylev), x.size))
    vals[0] = np.sign(x)
    for j, y in enumerate(ylev[1:], start=1):
        vals[j] = u_exact(x, y)
    base = ScalarField(grid, np.sign(x))
    return ExtensionField(base, float(s), ylev, vals,
                          point_eval=lambda px, py: u_exact(px, py))


# ---------------------------------------------------------------------------
# energy and monotonicity
# ---------------------------------------------------------------------------

def _corner_patch_energy(U: ExtensionField, x_c: float, y_c: float,
                         nx: int = 64, ny: int = 64) -> float:
    """Graded tensor quadrature of y^{1-s} |grad U|^2 over the corner box.

    Uses point evaluation with central differences whose step shrinks with
    the distance to the corner, resolving boundary-data singularities the
    uniform slab mesh cannot see.
    """
    s = U.s
    ev = U.point_eval
    xe = np.geomspace(1e-7, x_c, nx + 1)
    ye = np.geomspace(1e-7, y_c, ny + 1)
    xm, dx = 0.5 * (xe[1:] + xe[:-1]), np.diff(xe)
    ym, dy = 0.5 * (ye[1:] + ye[:-1]), np.diff(ye)
    total = 0.0
    for sgn in (-1.0, 1.0):
        X, Y = np.meshgrid(sgn * xm, ym, indexing="ij")
        DX, DY = np.meshgrid(dx, dy, indexing="ij")
        d = 1e-4 * np.minimum(np.abs(X) + Y, 1.0) + 1e-9
        Xf, Yf, Df = X.ravel(), Y.ravel(), d.ravel()
        ux = (ev(Xf + Df, Yf) - ev(Xf - Df, Yf)) / (2.0 * Df)
        ylo = np.maximum(Yf - Df, 1e-12)
        uy = (ev(Xf, Yf + Df) - ev(Xf, ylo)) / (Yf + Df - ylo)
        dens = (Y.ravel() ** (1.0 - s) * (ux ** 2 + uy ** 2)).reshape(X.shape)
        total += float((dens * DX * DY).sum())
    return total


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
    if U.point_eval is not None:
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
    coarse = ExtensionField(U.base, U.s, U.y_levels[::2], U.values[::2], U.point_eval,
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
