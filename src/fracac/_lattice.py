"""Discrete lattice machinery shared by the operator, energy, and stability code.

Everything here revolves around one convention: the discrete nonlocal
operator is the exact gradient (in the h^n-weighted inner product) of the
discrete pair-sum energy.  Both are built from a single table of pair
weights w(z) = h^n K(z), plus per-node tail moments that account for the
exterior of the box.  Keeping energy, operator, and quadratic form on the
same weights makes the Euler-Lagrange identity and the perimeter/energy
identity exact at round-off.

The nearest-neighbor weight carries a calibrated correction factor: a raw
midpoint sum has a symbol c|xi|^s + O((h xi)^2), and adjusting the first
shell cancels the quadratic defect, leaving O((h xi)^{4-s}).  The
correction is found once per (dimension, order) by matching the lattice
symbol to an exact power law at two reference frequencies.

Every linear convolution against a fixed kernel (the free-space operator
for n >= 2 and the exterior moments) goes through one engine,
`FFTConvolver`, which transforms its kernel once.  Operators live in one
registry bounded to 64 entries with least-recently-used eviction.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from functools import lru_cache

import numpy as np
from scipy import fft as sfft
from scipy.special import gamma as gamma_fn

from .errors import ConfigurationError
from .fields import ConstantExterior, FieldExterior, Grid, Periodic

_TWO_PI = 2.0 * np.pi


def fft_workers() -> int:
    try:
        return max(1, int(os.environ.get("FRACAC_THREADS", "1")))
    except ValueError:
        return 1


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}."""
    return 2.0 * np.pi ** (n / 2.0) / gamma_fn(n / 2.0)


# ---------------------------------------------------------------------------
# dimensionless lattice symbol of the reference kernel |j|^{-n-s}
# ---------------------------------------------------------------------------

def _osc_powlaw_tail(theta: float, a: float, p: float, phase: float = 0.0) -> float:
    """integral_a^inf cos(theta*x + phase) x^{-p} dx by two integrations by parts.

    Valid when theta*a >> 1; the truncation error is O(a^{-p-2}/theta^3).
    """
    t1 = -np.sin(theta * a + phase) * a ** (-p) / theta
    t2 = p * np.cos(theta * a + phase) * a ** (-p - 1) / theta ** 2
    return t1 + t2


def _symbol_tail(n: int, s: float, theta: float, rho: float) -> float:
    """integral over |z| > rho of (1 - cos(theta z_1)) |z|^{-n-s} dz."""
    sigma = sphere_area(n)
    flat = sigma * rho ** (-s) / s
    if n == 1:
        # angular average of cos(theta z_1) on S^0 is cos(theta r)
        osc = 2.0 * _osc_powlaw_tail(theta, rho, 1.0 + s)
    elif n == 2:
        # J0 asymptotics: J0(x) ~ sqrt(2/(pi x)) (cos(x - pi/4) + sin(x - pi/4)/(8x))
        amp = np.sqrt(2.0 / (np.pi * theta))
        osc = _TWO_PI * amp * (
            _osc_powlaw_tail(theta, rho, 1.5 + s, -np.pi / 4.0)
            + _osc_powlaw_tail(theta, rho, 2.5 + s, -np.pi / 4.0 - np.pi / 2.0) / (8.0 * theta)
        )
    else:
        # exact spherical average sin(x)/x
        osc = 4.0 * np.pi / theta * _osc_powlaw_tail(theta, rho, 2.0 + s, -np.pi / 2.0)
    return flat - osc


def _lattice_sum_1d(s: float, theta: float, J: int = 30000) -> float:
    j = np.arange(1, J + 1, dtype=float)
    core = 2.0 * np.sum((1.0 - np.cos(theta * j)) * j ** (-1.0 - s))
    a = float(J + 1)
    # Euler-Maclaurin continuation of the remainder
    flat = a ** (-s) / s
    osc = _osc_powlaw_tail(theta, a, 1.0 + s)
    f_a = (1.0 - np.cos(theta * a)) * a ** (-1.0 - s)
    fp_a = theta * np.sin(theta * a) * a ** (-1.0 - s) \
        - (1.0 + s) * (1.0 - np.cos(theta * a)) * a ** (-2.0 - s)
    return core + 2.0 * (flat - osc + 0.5 * f_a - fp_a / 12.0)


def _lattice_sum_nd(n: int, s: float, theta: float, rho: float) -> float:
    rng = np.arange(-int(rho), int(rho) + 1)
    if n == 2:
        jx, jy = np.meshgrid(rng, rng, indexing="ij")
        r2 = (jx * jx + jy * jy).astype(float)
        mask = (r2 > 0) & (r2 <= rho * rho)
        core = np.sum((1.0 - np.cos(theta * jx[mask])) * r2[mask] ** (-(n + s) / 2.0))
    else:
        core = 0.0
        for jz in rng:  # slab-wise to bound memory
            jx, jy = np.meshgrid(rng, rng, indexing="ij")
            r2 = (jx * jx + jy * jy + jz * jz).astype(float)
            mask = (r2 > 0) & (r2 <= rho * rho)
            core += np.sum((1.0 - np.cos(theta * jx[mask])) * r2[mask] ** (-(n + s) / 2.0))
    return float(core) + _symbol_tail(n, s, theta, rho)


def reference_lattice_symbol(n: int, s: float, theta: float, boost: float = 0.0) -> float:
    """Dimensionless symbol sum_{j != 0} (1 - cos(theta j_1)) w_j.

    Weights are |j|^{-n-s} with `boost` added on the 2n nearest neighbors.
    """
    if n == 1:
        g0 = _lattice_sum_1d(s, theta)
    else:
        g0 = _lattice_sum_nd(n, s, theta, rho=700.0 if n == 2 else 60.0)
    return g0 + boost * 2.0 * (1.0 - np.cos(theta))


@lru_cache(maxsize=64)
def shell_correction(n: int, s: float) -> float:
    """Nearest-shell weight correction making the symbol a clean power law.

    Solved from the two-frequency power-law match
    g(2 theta) = 2^s g(theta) at theta = 0.25.
    """
    t1, t2 = 0.25, 0.5
    g1 = reference_lattice_symbol(n, s, t1)
    g2 = reference_lattice_symbol(n, s, t2)
    a1 = 2.0 * (1.0 - np.cos(t1))
    a2 = 2.0 * (1.0 - np.cos(t2))
    return float((2.0 ** s * g1 - g2) / (a2 - 2.0 ** s * a1))


@lru_cache(maxsize=64)
def symbol_constant(n: int, s: float) -> float:
    """c(n, s) with the discrete symbol of the reference kernel ~ c |xi|^s.

    Includes the (2 - s) prefactor of the reference kernel, so the
    operator with kernel (2-s)|z|^{-n-s} has symbol c(n,s)|xi|^s.
    """
    t1 = 0.25
    d = shell_correction(n, s)
    g = reference_lattice_symbol(n, s, t1, boost=d)
    return float((2.0 - s) * g / t1 ** s)


def continuum_symbol_constant(n: int, s: float) -> float:
    """Closed form (2-s) * integral (1 - cos z_1)|z|^{-n-s} dz, for cross-checks."""
    c_frac = 2.0 ** s * gamma_fn((n + s) / 2.0) / (np.pi ** (n / 2.0) * abs(gamma_fn(-s / 2.0)))
    return (2.0 - s) / c_frac


# ---------------------------------------------------------------------------
# pair weight tables
# ---------------------------------------------------------------------------

def _offset_radii(n: int, count: int, h: float) -> np.ndarray:
    """|z| over the offset cube {-count..count}^n * h."""
    rng = h * np.arange(-count, count + 1, dtype=float)
    meshes = np.meshgrid(*([rng] * n), indexing="ij")
    return np.sqrt(sum(m * m for m in meshes))


def kernel_on_radii(spec, r: np.ndarray, n: int) -> np.ndarray:
    """Kernel values at radii r > 0 (vectorized); r = 0 entries map to 0."""
    out = np.zeros_like(r)
    pos = r > 0
    rp = r[pos]
    if spec.kind == "fractional":
        vals = (2.0 - spec.s) * rp ** (-(n + spec.s))
    elif spec.kind == "general":
        vals = np.asarray(spec.profile(rp), dtype=float)
    else:
        raise ConfigurationError("classical kernels have no pair-weight table")
    out[pos] = spec.scale * vals
    return out


def far_kernel_mass(spec, n: int, rho: float) -> float:
    """integral over |z| > rho of K(z) dz: closed form for the fractional kind,
    log-grid quadrature of the radial profile otherwise."""
    if spec.kind == "fractional":
        return spec.scale * (2.0 - spec.s) * sphere_area(n) * rho ** (-spec.s) / spec.s
    rr = np.geomspace(rho, rho * 1e6, 2000)
    dens = spec.scale * np.asarray(spec.profile(rr), dtype=float)
    return sphere_area(n) * np.trapezoid(dens * rr ** (n - 1), rr)


def pair_weight_table(grid: Grid, spec) -> np.ndarray:
    """w(z) = h^n K(z) over all offsets reachable within the box, w(0) = 0.

    The nearest-neighbor shell carries the calibrated correction factor
    (1 + shell_correction); every kernel of the same order gets the same
    multiplicative factor, which preserves two-sided kernel comparisons.
    """
    n, h = grid.n, grid.h
    p = grid.nodes_per_axis
    r = _offset_radii(n, p - 1, h)
    w = h ** n * kernel_on_radii(spec, r, n)
    w[np.abs(r - h) < 1e-12 * h] *= 1.0 + shell_correction(n, spec.s)
    return w


def periodized_weight_row(grid: Grid, spec) -> np.ndarray:
    """Pair weights between torus offsets, folding lattice images of the kernel.

    Entry [k1, .., kn] corresponds to the offset (k*h) mod L with symmetric
    representative in (-L/2, L/2]^n.  Includes the calibrated near-shell
    factor on the base image and an isotropic integral correction for the
    neglected far images.
    """
    if not isinstance(grid.boundary, Periodic):
        raise ConfigurationError("periodized rows need a periodic grid")
    n, h, L = grid.n, grid.h, grid.period
    p = grid.nodes_per_axis
    k = np.arange(p, dtype=float)
    zed = h * k
    zed = np.where(zed > L / 2.0, zed - L, zed)  # symmetric representative
    meshes = np.meshgrid(*([zed] * n), indexing="ij")

    m_img = 128 if n == 1 else (6 if n == 2 else 3)
    img = L * np.arange(-m_img, m_img + 1, dtype=float)
    base_r = np.sqrt(sum(m * m for m in meshes))

    if n == 1:
        z = meshes[0][..., None] + img[None, :]
        r = np.abs(z)
        row = (h ** n) * kernel_on_radii(spec, r, n).sum(axis=-1)
    elif n == 2:
        ix, iy = np.meshgrid(img, img, indexing="ij")
        zx = meshes[0][..., None] + ix.ravel()[None, None, :]
        zy = meshes[1][..., None] + iy.ravel()[None, None, :]
        r = np.sqrt(zx * zx + zy * zy)
        row = (h ** n) * kernel_on_radii(spec, r, n).sum(axis=-1)
    else:
        ix, iy, iz = np.meshgrid(img, img, img, indexing="ij")
        flat = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)
        row = np.zeros((p,) * n)
        for off in flat:
            r = np.sqrt((meshes[0] + off[0]) ** 2 + (meshes[1] + off[1]) ** 2
                        + (meshes[2] + off[2]) ** 2)
            row += (h ** n) * kernel_on_radii(spec, r, n)

    # far images approximated by the integral of the kernel density:
    # sum over |m| > M of K(z + mL) ~ (1/L^n) integral over |y| > (M+1/2)L of K
    row += h ** n * far_kernel_mass(spec, n, (m_img + 0.5) * L) / L ** n

    row[tuple([0] * n)] = 0.0  # images of the diagonal carry zero difference
    # calibrated correction on the base-image nearest shell
    near = np.abs(base_r - h) < 1e-12 * h
    extra = (h ** n) * kernel_on_radii(spec, np.where(near, base_r, 1.0), n)
    row[near] += shell_correction(n, spec.s) * extra[near]
    return row


# ---------------------------------------------------------------------------
# exterior tail moments
# ---------------------------------------------------------------------------

def axis_cell_bounds(grid: Grid) -> tuple[float, float]:
    """Outer edges of the first and last cell along an axis."""
    m, h = grid.half_count, grid.h
    if grid.centered:
        return (-m * h - h / 2.0, m * h + h / 2.0)
    return (-m * h - h / 2.0, (m - 1) * h + h / 2.0)


def exterior_asymptote(grid: Grid) -> tuple[float, float]:
    """Limits (lo, hi) of a 1D field exterior: the declared asymptote, else
    the exterior sampled at 1e9 box radii on either side."""
    b = grid.boundary
    if b.asymptote is not None:
        return b.asymptote
    far = 1e9 * max(1.0, grid.box_radius)
    return (float(np.ravel(b(np.array([[-far]])))[0]),
            float(np.ravel(b(np.array([[far]])))[0]))


def _moments_1d(grid: Grid, spec) -> dict:
    """Closed-form half-line tails plus a graded correction for field exteriors."""
    if spec.kind == "fractional":
        def prim(d):
            # integral_d^inf K(r) dr for the (scaled) reference kernel
            return spec.scale * (2.0 - spec.s) / spec.s * np.asarray(d) ** (-spec.s)
        kval = lambda r: spec.scale * (2.0 - spec.s) * r ** (-(1.0 + spec.s))
    else:
        kval = lambda r: spec.scale * np.asarray(spec.profile(np.abs(r)), dtype=float)
        # tabulated antiderivative on a log grid, interpolated per node
        d_min = grid.h / 4.0
        tab_r = np.geomspace(d_min, 1e9 * max(1.0, grid.box_radius), 6000)
        tab_k = kval(tab_r)
        seg = 0.5 * (tab_k[1:] + tab_k[:-1]) * np.diff(tab_r)
        suffix = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        tail_top = float(tab_k[-1]) * tab_r[-1] / spec.s
        tab_prim = suffix + tail_top

        def prim(d):
            d = np.asarray(d, dtype=float)
            return np.interp(np.log(d), np.log(tab_r), tab_prim)

    lo, hi = axis_cell_bounds(grid)
    x = grid.axis_coords()
    t0_r = prim(hi - x)
    t0_l = prim(x - lo)

    b = grid.boundary
    if isinstance(b, ConstantExterior):
        g_lo, g_hi = b.sides[0]
        corr1_r = corr1_l = corr2_r = corr2_l = 0.0
        a_lo, a_hi = g_lo, g_hi
    elif isinstance(b, FieldExterior):
        a_lo, a_hi = exterior_asymptote(grid)
        # graded correction integrals for the non-constant part of the exterior
        span = np.geomspace(grid.h / 8.0, 2e5 * grid.box_radius, 3000)
        xr = hi + span
        xl = lo - span
        pr = b(xr[:, None]) - a_hi
        pl = b(xl[:, None]) - a_lo
        kr = kval(xr[None, :] - x[:, None])
        kl = kval(x[:, None] - xl[None, :])
        corr1_r = np.trapezoid(kr * pr[None, :], xr, axis=1)
        corr1_l = -np.trapezoid(kl * pl[None, :], xl, axis=1)
        pr2 = b(xr[:, None]) ** 2 - a_hi ** 2
        pl2 = b(xl[:, None]) ** 2 - a_lo ** 2
        corr2_r = np.trapezoid(kr * pr2[None, :], xr, axis=1)
        corr2_l = -np.trapezoid(kl * pl2[None, :], xl, axis=1)
        g_lo, g_hi = a_lo, a_hi
    else:
        raise ConfigurationError("periodic grids have no exterior moments")

    t0 = t0_r + t0_l
    t1 = g_hi * t0_r + g_lo * t0_l + corr1_r + corr1_l
    t2 = g_hi ** 2 * t0_r + g_lo ** 2 * t0_l + corr2_r + corr2_l
    return {"t0": t0, "t1": t1, "t2": t2}


def _moments_nd(grid: Grid, spec, factor: int = 4) -> dict:
    """Exterior moments by one FFT convolution over an enlarged lattice.

    The complement of the box is tiled by h-cells out to `factor` times the
    box, evaluated at midpoints; beyond that an isotropic remainder with the
    far-field average of the exterior closes the integral.
    """
    n, h = grid.n, grid.h
    m = grid.half_count
    mm = factor * m
    extra = 1 if grid.centered else 0
    rng = h * np.arange(-mm, mm + extra)
    meshes = np.meshgrid(*([rng] * n), indexing="ij")
    pts = np.stack([mesh.ravel() for mesh in meshes], axis=1)

    idx = [np.arange(-mm, mm + extra)] * n
    inner = np.ones(meshes[0].shape, dtype=bool)
    for ax in range(n):
        coord = idx[ax]
        lo, hi = -m, m - 1 + extra
        sel = (coord >= lo) & (coord <= hi)
        shape = [1] * n
        shape[ax] = -1
        inner &= sel.reshape(shape)
    ext_mask = ~inner

    b = grid.boundary
    u_ext = np.zeros(meshes[0].shape)
    if ext_mask.any():
        u_ext_flat = b(pts[ext_mask.ravel()])
        u_ext[ext_mask] = u_ext_flat

    # the kernel table is the largest array here: release it (and its radii)
    # as soon as its spectrum exists
    kern = h ** n * kernel_on_radii(spec, _offset_radii(n, 2 * mm, h), n)
    conv = FFTConvolver(kern, u_ext.shape)
    del kern

    sl = tuple(slice(mm - m, mm + m + extra) for _ in range(n))
    t0 = conv(ext_mask.astype(float))[sl].copy()
    t1 = conv(u_ext * ext_mask)[sl].copy()
    t2 = conv(u_ext ** 2 * ext_mask)[sl].copy()
    del conv

    # isotropic remainder beyond the enlarged lattice
    rho = (factor - 0.5) * grid.box_radius
    rem = far_kernel_mass(spec, n, rho)
    ring = ext_mask & (np.sqrt(sum(mesh ** 2 for mesh in meshes)) > rho - grid.box_radius)
    if ring.any():
        u_far = float(np.mean(u_ext[ring]))
        u2_far = float(np.mean(u_ext[ring] ** 2))
    else:
        u_far, u2_far = 0.0, 1.0
    t0 += rem
    t1 += u_far * rem
    t2 += u2_far * rem
    return {"t0": t0, "t1": t1, "t2": t2}


def exterior_moments(grid: Grid, spec) -> dict:
    """Per-node tail integrals over the complement of the box.

    t0 = integral of K, t1 = integral of u_ext K, t2 = integral of
    u_ext^2 K; all taken at each node against the exterior region.
    """
    if isinstance(grid.boundary, Periodic):
        raise ConfigurationError("periodic grids have no exterior")
    if grid.n == 1:
        return _moments_1d(grid, spec)
    return _moments_nd(grid, spec)


# ---------------------------------------------------------------------------
# the convolution engine
# ---------------------------------------------------------------------------

class FFTConvolver:
    """Linear "same"-mode convolution of fields of one shape with a fixed kernel.

    Pads to the same fast FFT lengths and crops the same centred window as
    scipy's `fftconvolve(f, kernel, mode="same")`, so results agree
    with it bit for bit; the kernel is transformed once, not per call.
    """

    def __init__(self, kernel: np.ndarray, shape: tuple):
        full = [a + b - 1 for a, b in zip(shape, kernel.shape)]
        self.fshape = [sfft.next_fast_len(k, real=True) for k in full]
        self.crop = tuple(slice((k - a) // 2, (k - a) // 2 + a)
                          for k, a in zip(full, shape))
        with sfft.set_workers(fft_workers()):
            self.spectrum = sfft.rfftn(kernel, self.fshape)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        with sfft.set_workers(fft_workers()):
            sp = sfft.rfftn(f, self.fshape)
            sp *= self.spectrum
            return sfft.irfftn(sp, self.fshape)[self.crop].copy()


# ---------------------------------------------------------------------------
# the discrete operator bundle
# ---------------------------------------------------------------------------

class DiscreteOperator:
    """Pair weights, tail moments, and fast applications for one (grid, kernel).

    All heavy tables are built lazily and cached on the instance: the
    free-space convolution engine for n >= 2 and, on periodic grids, the
    spectrum of the periodized row.  Instances are shared through the
    bounded LRU registry behind `get_operator`.
    """

    def __init__(self, grid: Grid, spec):
        if spec.kind == "classical":
            raise ConfigurationError("classical operator uses the stencil path")
        spec.check_dimension(grid.n)
        if spec.kind == "general":
            from .kernels import kernel_bounds_audit
            if not kernel_bounds_audit(spec, grid.n)["passed"]:
                raise ConfigurationError(
                    "general kernel violates the sampled ellipticity bounds")
        self.grid = grid
        self.spec = spec
        self._weights = None
        self._engine = None
        self._row = None
        self._row_spectrum = None
        self._moments = None
        self._colsum = None

    # -- tables -------------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = pair_weight_table(self.grid, self.spec)
        return self._weights

    @property
    def row(self) -> np.ndarray:
        if self._row is None:
            self._row = periodized_weight_row(self.grid, self.spec)
        return self._row

    @property
    def row_spectrum(self) -> np.ndarray:
        if self._row_spectrum is None:
            with sfft.set_workers(fft_workers()):
                self._row_spectrum = sfft.fftn(self.row)
        return self._row_spectrum

    @property
    def moments(self) -> dict:
        if self._moments is None:
            self._moments = exterior_moments(self.grid, self.spec)
        return self._moments

    # -- convolution primitives ---------------------------------------------

    def conv_free(self, f: np.ndarray) -> np.ndarray:
        """sum_{xbar in box} w(x - xbar) f(xbar) at every box node."""
        if self.grid.n == 1:
            # direct correlation through a Toeplitz product
            p = self.grid.nodes_per_axis
            w = self.weights
            out = np.correlate(np.pad(f, (p - 1, p - 1)), w[::-1], mode="valid")
            return out
        if self._engine is None:
            self._engine = FFTConvolver(self.weights, self.grid.shape)
        return self._engine(f)

    def conv_periodic(self, f: np.ndarray) -> np.ndarray:
        """Circular correlation with the periodized row."""
        with sfft.set_workers(fft_workers()):
            return sfft.ifftn(sfft.fftn(f) * self.row_spectrum).real

    def conv(self, f: np.ndarray) -> np.ndarray:
        if isinstance(self.grid.boundary, Periodic):
            return self.conv_periodic(f)
        return self.conv_free(f)

    @property
    def colsum(self) -> np.ndarray:
        """sum_{xbar in box} w(x - xbar), per node."""
        if self._colsum is None:
            self._colsum = self.conv(np.ones(self.grid.shape))
        return self._colsum

    # -- operator and forms ---------------------------------------------------

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L u(x) = sum w(z)(u(x) - u(x+z)) + tail, on every node."""
        if isinstance(self.grid.boundary, Periodic):
            return values * self.colsum - self.conv(values)
        mom = self.moments
        return values * (self.colsum + mom["t0"]) - self.conv(values) - mom["t1"]

    def symbol(self) -> np.ndarray:
        """Exact eigenvalues of the periodic operator on DFT modes (>= 0)."""
        return np.maximum(self.colsum - self.row_spectrum.real, 0.0)

    def dense_matrix(self) -> np.ndarray:
        """Full operator matrix including tails; 1D exterior grids only."""
        if self.grid.n != 1 or isinstance(self.grid.boundary, Periodic):
            raise ConfigurationError("dense matrix supported on 1D exterior grids")
        p = self.grid.nodes_per_axis
        w = self.weights
        idx = np.arange(p)
        gaps = idx[:, None] - idx[None, :] + (p - 1)
        mat = -w[gaps]
        mom = self.moments
        np.fill_diagonal(mat, self.colsum + mom["t0"])
        return mat

    def sobolev_pair_sum(self, values: np.ndarray, mask_a: np.ndarray,
                         mask_b: np.ndarray) -> float:
        """sum over x in A, xbar in B of |u(x) - u(xbar)|^2 w(x - xbar)."""
        u = values
        cb = mask_b.astype(float)
        c1 = self.conv(cb)
        cu = self.conv(u * cb)
        cuu = self.conv(u * u * cb)
        inner = u * u * c1 + cuu - 2.0 * u * cu
        return float(inner[mask_a].sum())

    def sobolev_energy(self, values: np.ndarray, region_mask: np.ndarray,
                       include_tails: bool = True) -> float:
        """Quarter pair-sum over pairs with >= 1 endpoint in the region."""
        g = self.grid
        box = np.ones(g.shape, dtype=bool)
        total = self.sobolev_pair_sum(values, region_mask, box)
        total += self.sobolev_pair_sum(values, region_mask, box & ~region_mask)
        e = 0.25 * g.cell_volume() * total
        if include_tails and not isinstance(g.boundary, Periodic):
            mom = self.moments
            t0 = np.broadcast_to(mom["t0"], g.shape)
            t1 = np.broadcast_to(mom["t1"], g.shape)
            t2 = np.broadcast_to(mom["t2"], g.shape)
            u = values
            tail = (u * u * t0 - 2.0 * u * t1 + t2)[region_mask].sum()
            e += 0.5 * g.cell_volume() * tail
        return e

    def quadratic_form(self, xi: np.ndarray) -> float:
        """Half the full-space pair sum of a compactly supported perturbation.

        The perturbation extends by zero outside the box, so the exterior
        enters only through t0; on periodic grids this is the form of the
        free twin (zero extension, not periodic wrap).
        """
        g = self.grid
        if isinstance(g.boundary, Periodic):
            return _free_twin(self).quadratic_form(xi)
        pair = 2.0 * float((xi * xi * self.colsum - xi * self.conv(xi)).sum())
        t0 = np.broadcast_to(self.moments["t0"], g.shape)
        tail = float((xi * xi * t0).sum())
        return 0.5 * g.cell_volume() * (pair + 2.0 * tail)

    def stability_apply(self, xi: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """(L_free + diag) xi with zero extension outside the box."""
        g = self.grid
        if isinstance(g.boundary, Periodic):
            return _free_twin(self).stability_apply(xi, diag)
        t0 = np.broadcast_to(self.moments["t0"], g.shape)
        lin = xi * (self.colsum + t0) - self.conv(xi)
        return lin + diag * xi


_registry: OrderedDict = OrderedDict()


def get_operator(grid: Grid, spec) -> DiscreteOperator:
    """The shared operator for (grid, kernel).

    The registry keeps the 64 most recently used operators; past that bound
    the least recently used one is evicted.
    """
    key = (grid.key(), spec.key())
    op = _registry.get(key)
    if op is None:
        op = _registry[key] = DiscreteOperator(grid, spec)
        if len(_registry) > 64:
            _registry.popitem(last=False)
    else:
        _registry.move_to_end(key)
    return op


def _free_twin(op: DiscreteOperator) -> DiscreteOperator:
    """Same weights on the same node set but with free (zero) exterior."""
    g = op.grid
    free_grid = Grid(g.n, g.h, g.box_radius,
                     ConstantExterior([(0.0, 0.0)] * g.n), g.centered)
    return get_operator(free_grid, op.spec)
