"""Discrete lattice machinery shared by the operator, energy, and stability code.

Everything here revolves around one convention: the discrete nonlocal
operator is the exact gradient (in the h^n-weighted inner product) of the
discrete pair-sum energy.  Both are built from a single table of pair
weights w(z) = h^n K(z), plus per-node tail moments that account for the
exterior of the box (all three are zero on a periodic grid, which has no
exterior).  Keeping energy, operator, and quadratic form on the same
weights makes the Euler-Lagrange identity and the perimeter/energy
identity exact at round-off.

The nearest-neighbor weight carries a calibrated correction factor: a raw
midpoint sum has a symbol c|xi|^s + O((h xi)^2), and adjusting the first
shell cancels the quadratic defect, leaving O((h xi)^{4-s}).  The
correction is found once per (dimension, order) by matching the lattice
symbol to an exact power law at two reference frequencies; one cached
pass over one orthant of the offset lattice, reduced to row sums along the
frequency axis, gives the symbol at both.

Every linear convolution against a fixed kernel (the operator, region sums
and perimeters on every grid, periodic grids included, and the exterior
moments) goes through one overlap-save engine, `FFTConvolver`.  It keeps
only the kernel offsets that its output window can reach, transforms them
once, and pads each axis to the window plus the field (N + P - 1), not to
the full linear length N + K - 1.
Its transforms are pruned and in place in one half-spectrum array: the
forward pass skips the lines that are all zero padding (the r2c runs over
the field's own lines, each c2c over the lines that can be nonzero), and
the inverse skips the lines the window does not read (each c2c is followed
by a crop to the window, and the c2r runs on the window's lines only).
Running the passes in pocketfft's axis order and scaling by its long-double
1/N keeps every result bit-identical to a whole-block rfftn/irfftn.  A 1D
convolution allocates no work array: the rfft's own output is multiplied in
place.  Every transform runs with the caller's scipy.fft worker count.
The n-D exterior moments are summed on a two-level frame: h-cells out to
at least twice the box, then 3h-cells centred on the nodes 3hk out to about
four box radii, each carrying its sub-nodes' mean exterior values and its
sub-offsets' summed kernel, convolved onto the 3h nodes and interpolated
to the box by a cubic.  Both tilings map onto themselves under every
reflection x_i -> -x_i, and the moments lie within 1e-5 (relative) of the
all-fine frame of the same reach.  Every kernel table (the box table, each
frame level's kernel and the torus row) is one `_kernel_sum`, h^n times
the kernel summed over integer shifts, built in place one shift at a
time; box and frame tables are built over one orthant and mirrored, bit
for bit as over the whole cube.  `_near_shell` alone applies the
calibrated factor to the offsets +-e_ax.
Region sums are convolved on the region's own bounding box: an energy's
pairs inside the region by an engine built for that box, a perimeter's
pair families by the engine windowed to it.  The sweep caches are
instances of one class, `LRUCache`, each with its own bound: the operator
registry (64 operators); per operator, the windowed convolutions of its
last two boolean masks, so perimeters of sets that share a pair family
convolve it once, and the energies of up to 64 regions on its last field
(one slot compared by value), so a radius sweep sums each region once; and
`stability`'s flow memo (32 MiB of array and key bytes).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache, reduce

import numpy as np
from scipy import fft as sfft
from scipy.special import gamma as gamma_fn

from .errors import ConfigurationError
from .fields import ConstantExterior, Grid, Periodic

_TWO_PI = 2.0 * np.pi


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1}."""
    return 2.0 * np.pi ** (n / 2.0) / gamma_fn(n / 2.0)


def _xi_squared(g: Grid) -> np.ndarray:
    """|xi|^2 over the FFT modes of a periodic grid (shape g.shape)."""
    freqs = _TWO_PI * sfft.fftfreq(g.nodes_per_axis, d=g.h)
    return sum(np.ix_(*[freqs * freqs] * g.n))


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
    """integral over |z| > rho of (1 - cos(theta z_1)) |z|^{-n-s} dz, n = 2 or 3."""
    sigma = sphere_area(n)
    flat = sigma * rho ** (-s) / s
    if n == 2:
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


def _lattice_sum_1d(s: float, theta: float) -> float:
    """The 1D symbol: 30,000 terms summed, the remainder continued."""
    J = 30000
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


_THETAS = (0.25, 0.5)  # the two reference frequencies of the calibration


@lru_cache(maxsize=64)
def _reference_symbols(n: int, s: float) -> tuple:
    """g(theta) = sum_{j != 0} (1 - cos(theta j_1)) |j|^{-n-s} at both
    reference frequencies.  For n >= 2 the ball |j| <= rho is folded onto
    its orthant j_i >= 0 (mirror multiplicity 1 at j_i = 0, 2 elsewhere), so
    |j|^{-n-s} is taken there only, reduced to the row sums S(j_1) (slab by
    slab in 3D), and both frequencies share them:
    g(theta) = 2 sum_{j_1 >= 1} (1 - cos(theta j_1)) S(j_1) + tail, the tail
    added asymptotically.  Squared radii are exact integers in float64; a 2D
    pass holds one 700 x 701 array (4.4 MB traced), a 3D pass one 60 x 61."""
    if n == 1:
        return tuple(_lattice_sum_1d(s, t) for t in _THETAS)
    rho = 700.0 if n == 2 else 60.0
    k = np.arange(int(rho) + 1)
    sq = (k * k).astype(float)
    mult = np.where(k > 0, 2.0, 1.0)
    rows = np.zeros(int(rho))
    for sz, mz in zip(sq, mult) if n == 3 else ((0.0, 1.0),):
        r2 = sq[1:, None] + (sq + sz)
        r2[r2 > rho * rho] = np.inf  # outside the ball: a zero power
        np.power(r2, -(n + s) / 2.0, out=r2)
        r2 *= mult
        rows += mz * r2.sum(axis=1)
    core = [2.0 * np.sum((1.0 - np.cos(t * k[1:])) * rows) for t in _THETAS]
    return tuple(float(c) + _symbol_tail(n, s, t, rho) for c, t in zip(core, _THETAS))


def shell_correction(n: int, s: float) -> float:
    """Nearest-shell weight correction making the symbol a clean power law.

    Solved from the two-frequency power-law match
    g(2 theta) = 2^s g(theta) at theta = 0.25.
    """
    (t1, t2), (g1, g2) = _THETAS, _reference_symbols(n, s)
    a1 = 2.0 * (1.0 - np.cos(t1))
    a2 = 2.0 * (1.0 - np.cos(t2))
    return float((2.0 ** s * g1 - g2) / (a2 - 2.0 ** s * a1))


def symbol_constant(n: int, s: float) -> float:
    """c(n, s) with the discrete symbol of the reference kernel ~ c |xi|^s.

    Includes the (2 - s) prefactor of the reference kernel, so the
    operator with kernel (2-s)|z|^{-n-s} has symbol c(n,s)|xi|^s.
    """
    t1, g1 = _THETAS[0], _reference_symbols(n, s)[0]
    g = g1 + shell_correction(n, s) * 2.0 * (1.0 - np.cos(t1))
    return float((2.0 - s) * g / t1 ** s)


def continuum_symbol_constant(n: int, s: float) -> float:
    """Closed form (2-s) * integral (1 - cos z_1)|z|^{-n-s} dz, for cross-checks."""
    c_frac = 2.0 ** s * gamma_fn((n + s) / 2.0) / (np.pi ** (n / 2.0) * abs(gamma_fn(-s / 2.0)))
    return (2.0 - s) / c_frac


# ---------------------------------------------------------------------------
# pair weight tables
# ---------------------------------------------------------------------------

def _kernel_sum(spec, n: int, h: float, axis: np.ndarray, shifts) -> np.ndarray:
    """h^n sum_c K(|h (j + c)|) over j in axis^n, for the integer n-tuples c
    in `shifts`: each shift's radii are summed from n broadcast copies of
    the squared axes, turned into kernel values in place and added to the
    first shift's array, so a build holds two float tables at a time."""
    out = None
    for c in shifts:
        r = sum(np.ix_(*[(h * (axis + e)) ** 2 for e in c]))
        r = kernel_on_radii(spec, np.sqrt(r, out=r), n, out=r)
        out = r if out is None else np.add(out, r, out=out)
    out *= h ** n
    return out


def _near_shell(w: np.ndarray, centre: int, factor: float) -> np.ndarray:
    """w with its offsets +-e_ax scaled by `factor` in place, offset 0 at
    index `centre` on every axis (a torus row's centre is 0: -1 wraps)."""
    for ax in range(w.ndim):
        near = [centre] * w.ndim
        near[ax] = [centre - 1, centre + 1]
        w[tuple(near)] *= factor
    return w


def _mirror(orth: np.ndarray) -> np.ndarray:
    """A table over the cube {-c..c}^n that is even in every coordinate,
    from its orthant {0..c}^n: each axis's negative half is a reversed copy,
    so the table equals one built over the cube bit for bit."""
    n, c = orth.ndim, len(orth) - 1
    full = np.empty((2 * c + 1,) * n)
    full[(slice(c, None),) * n] = orth
    for ax in range(n):
        rest = (slice(c, None),) * (n - ax - 1)
        full[(slice(None),) * ax + (slice(0, c),) + rest] = \
            full[(slice(None),) * ax + (slice(2 * c, c, -1),) + rest]
    return full


def kernel_on_radii(spec, r: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values at radii r > 0 (vectorized); r = 0 entries map to 0.
    The fractional power is taken over every radius, r = 0 included, into
    one array (`out`, which may be r itself) that is then scaled in place."""
    pos = r > 0
    if spec.kind == "fractional":
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.power(r, -(n + spec.s), out=out)
            out *= 2.0 - spec.s
            out *= spec.scale
    elif spec.kind == "general":
        out = np.zeros_like(r) if out is None else out
        out[pos] = np.asarray(spec.profile(r[pos]), dtype=float)
        out *= spec.scale
    else:
        raise ConfigurationError("classical kernels have no pair-weight table")
    out[~pos] = 0.0
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
    """w(z) = h^n K(z) over all offsets reachable within the box, w(0) = 0:
    the h-cell kernel of the moments' frame.

    The nearest-neighbor shell +-e_ax carries the calibrated correction
    factor (1 + shell_correction); every kernel of the same order gets the
    same multiplicative factor, which preserves two-sided kernel comparisons.
    """
    c = grid.nodes_per_axis - 1
    factor = 1.0 + shell_correction(grid.n, spec.s)  # calibrated first: its pass holds no table
    return _near_shell(_level_kernel(spec, grid.n, grid.h, 1, c), c, factor)


def periodized_weight_row(grid: Grid, spec) -> np.ndarray:
    """Pair weights between torus offsets, folding lattice images of the kernel.

    Entry [k1, .., kn] corresponds to the offset h k with each k_i taken as
    its representative in (-p/2, p/2] (p nodes per axis; k = p/2 stays +p/2),
    summed over the images h (k + p m), |m_i| <= M.  The base image m = 0
    carries the calibrated near-shell factor, an isotropic integral stands
    in for the far images, and the diagonal's images weigh 0.
    """
    if not isinstance(grid.boundary, Periodic):
        raise ConfigurationError("periodized rows need a periodic grid")
    n, h, L, p = grid.n, grid.h, grid.period, grid.nodes_per_axis
    factor = 1.0 + shell_correction(n, spec.s)  # calibrated first: its pass holds no table
    k = np.arange(p)
    k[k > p // 2] -= p
    m_img = 128 if n == 1 else (6 if n == 2 else 3)
    row = _near_shell(_kernel_sum(spec, n, h, k, [(0,) * n]), 0, factor)
    images = p * (np.indices((2 * m_img + 1,) * n).reshape(n, -1).T - m_img)
    row += _kernel_sum(spec, n, h, k, images[images.any(axis=1)])
    # far images approximated by the integral of the kernel density:
    # sum over |m| > M of K(z + mL) ~ (1/L^n) integral over |y| > (M+1/2)L of K
    row += h ** n * far_kernel_mass(spec, n, (m_img + 0.5) * L) / L ** n
    row[(0,) * n] = 0.0  # images of the diagonal carry zero difference
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
    """Far values (lo, hi) of a 1D exterior: the boundary model's
    `asymptote` (a constant exterior's sides, or a field exterior's
    declared limits), else the exterior sampled at 1e9 box radii on either
    side."""
    b = grid.boundary
    if b.asymptote is not None:
        return b.asymptote
    far = 1e9 * max(1.0, grid.box_radius)
    return (float(np.ravel(b(np.array([[-far]])))[0]),
            float(np.ravel(b(np.array([[far]])))[0]))


def exterior_departures(grid: Grid, span: np.ndarray) -> list:
    """(sign, nodes t, exterior at t, far value) for each side of a 1D box
    whose exterior departs from its far value somewhere on t = edge +
    sign * span; a side at its far value (every side of a constant
    exterior) is left out."""
    lo, hi = axis_cell_bounds(grid)
    g_lo, g_hi = exterior_asymptote(grid)
    sides = []
    for sgn, edge, far in ((1.0, hi, g_hi), (-1.0, lo, g_lo)):
        t = edge + sgn * span
        u_ext = grid.boundary(t[:, None])
        if (u_ext - far).any():
            sides.append((sgn, t, u_ext, far))
    return sides


_ROW_BLOCK = 1 << 20  # elements of one node x sample block of a 1D departure integral
_FFT_BLOCK = 1 << 16  # elements of one block of rows of the engine's r2c or c2r lines


def row_blocks(rows: int, cols: int, block: int | None = None) -> list:
    """Slices cutting `rows` into blocks of at most `block` (default
    _ROW_BLOCK) / cols rows, so that a rows x cols array is built one block
    at a time.  Each row is reduced or transformed on its own, so blocked
    results equal unblocked ones bit for bit."""
    step = max(1, (block or _ROW_BLOCK) // max(cols, 1))
    return [slice(i, i + step) for i in range(0, rows, step)]


def bounding_box(mask: np.ndarray) -> tuple | None:
    """The smallest box of slices (one per axis) that holds every True node
    of a mask, or None for an empty mask."""
    if not mask.any():
        return None
    box = []
    for ax in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != ax)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def _moments_1d(grid: Grid, spec) -> dict:
    """Closed-form half-line tails at the far values plus a graded
    correction on each side where the exterior departs from them."""
    if spec.kind == "fractional":
        def prim(d):
            # integral_d^inf K(r) dr for the (scaled) reference kernel
            return spec.scale * (2.0 - spec.s) / spec.s * np.asarray(d) ** (-spec.s)
    else:
        # tabulated antiderivative on a log grid, interpolated per node
        d_min = grid.h / 4.0
        tab_r = np.geomspace(d_min, 1e9 * max(1.0, grid.box_radius), 6000)
        tab_k = kernel_on_radii(spec, tab_r, 1)
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

    t0 = t0_r + t0_l
    g_lo, g_hi = exterior_asymptote(grid)
    t1 = g_hi * t0_r + g_lo * t0_l
    t2 = g_hi ** 2 * t0_r + g_lo ** 2 * t0_l
    # graded deviation integrals; on the left the offsets -(t - x) equal x - t
    span = np.geomspace(grid.h / 8.0, 2e5 * grid.box_radius, 3000)
    for sgn, t, u_ext, far in exterior_departures(grid, span):
        d1, d2 = (u_ext - far)[None, :], (u_ext ** 2 - far ** 2)[None, :]
        for b in row_blocks(x.size, t.size):
            k = kernel_on_radii(spec, sgn * (t[None, :] - x[b, None]), 1)
            t1[b] += sgn * np.trapezoid(k * d1, t, axis=1)
            t2[b] += sgn * np.trapezoid(k * d2, t, axis=1)
    return {"t0": t0, "t1": t1, "t2": t2}


_REACH = 4   # the frame's half-width in box radii, to within one node
_NEAR = 42   # h-cells, at least, between the box and the 3h-cells
_SAMPLE_BLOCK = 1 << 14  # exterior points per boundary call

# 4-point Lagrange cubic from the 3h nodes q-1 .. q+2 to the node 3q + r, rows r = 0, 1, 2;
# the rows of r = 1 and r = 2 mirror each other, so x -> -x maps the interpolation onto itself
_CUBIC = np.array([[0.0, 81.0, 0.0, 0.0],
                   [-5.0, 60.0, 30.0, -4.0],
                   [-4.0, 30.0, 60.0, -5.0]]) / 81.0


def frame_levels(grid: Grid) -> list:
    """The cell levels of the n-D moments' frame, as (step, cells, hole)
    triples in units of h: the cells of side step * h centred on the nodes
    step * h * k, |k|_inf <= cells, less those with every k_i in the index
    range `hole` (the box for the h-cells, the h-cells for the 3h-cells).

    The frame reaches the nodes |j|_inf <= 3b + 1 with b = floor(4m / 3),
    within one node of 4m, so that 3h-cells tile it exactly.  The h-cells
    reach J0 = the smallest 3a + 1 >= max(2m, m + _NEAR) and the 3h-cells
    the rest; a grid whose J0 is not inside the frame keeps h-cells all the
    way.  Each level maps onto itself under every reflection x_i -> -x_i."""
    m = grid.half_count
    box = (-m, m - 1 + (1 if grid.centered else 0))
    b = _REACH * m // 3
    a = -(-(max(2 * m, m + _NEAR) - 1) // 3)
    if a >= b:
        return [(1, 3 * b + 1, box)]
    return [(1, 3 * a + 1, box), (3, b, (-a, a))]


def _level_kernel(spec, n: int, h: float, step: int, count: int) -> np.ndarray:
    """h^n times the kernel summed over the step^n sub-offsets of each cell
    offset, over the cell offsets {-count..count}^n: the orthant's
    `_kernel_sum`, mirrored.  The h-cell kernel is h^n K bit for bit."""
    subs = np.indices((step,) * n).reshape(n, -1).T - step // 2
    return _mirror(_kernel_sum(spec, n, h, step * np.arange(count + 1, dtype=float), subs))


def _sample_level(grid: Grid, step: int, cells: int, hole: tuple, ring_radius: float,
                  ring: np.ndarray) -> tuple:
    """(mask, u, u2) over one frame level: its exterior cells, and the means
    of u_ext and u_ext^2 over each cell's step^n sub-nodes (u2 is None for
    h-cells, where it is u^2).

    The level less its hole is cut into 2n boxes, each sampled a block of
    cell rows at a time on its dense sub-node lattice, with at most
    _SAMPLE_BLOCK points per boundary call: a field exterior interpolates
    in numpy (`fields.evaluate_field`), whose temporaries hold several
    floats per point, so blocks of 2^14 points keep them below the
    engine's workspace.  The count, sum u and sum u^2 of the nodes farther
    than `ring_radius` from the origin are added to `ring` row by row, so
    no sum depends on the blocks."""
    n, h = grid.n, grid.h
    per, side = step ** n, 2 * cells + 1
    # per axis and cell, the coordinates of its sub-nodes: h (step k + e)
    x = h * (step * np.arange(-cells, cells + 1)[:, None] + (np.arange(step) - step // 2))
    sums = [np.zeros((side,) * n) for _ in range(1 if step == 1 else 2)]
    inner = slice(cells + hole[0], cells + hole[1] + 1)
    for d in range(n):
        for part in (slice(0, inner.start), slice(inner.stop, side)):
            region = [inner] * d + [part] + [slice(0, side)] * (n - 1 - d)
            first, stop = region[0].start, region[0].stop
            size = per * int(np.prod([r.stop - r.start for r in region[1:]]))
            for rows in row_blocks(stop - first, size, _SAMPLE_BLOCK):
                cut = [slice(first + rows.start, min(first + rows.stop, stop))] + region[1:]
                got = _sample_box(grid, [x[c] for c in cut], ring_radius, ring)
                for arr, v in zip(sums, got):
                    arr[tuple(cut)] = v
    mask = np.ones((side,) * n, dtype=bool)
    mask[(inner,) * n] = False
    if step == 1:
        return mask, sums[0], None
    for arr in sums:
        arr /= per
    return mask, sums[0], sums[1]


def _sample_box(grid: Grid, xs: list, ring_radius: float, ring: np.ndarray) -> tuple:
    """The sums of u_ext (and, for cells of more than one node, u_ext^2)
    over each cell of one box of cells, from the sub-node coordinates
    (cells, step) of each axis, with the box's ring sums added to `ring` row
    by row."""
    n = len(xs)
    shape = [a for c in xs for a in c.shape]        # (cells_0, step, cells_1, step, ..)

    def along(i, v):                                 # v of axis i, broadcast to shape
        return v.reshape([a if k // 2 == i else 1 for k, a in enumerate(shape)])

    pts = np.empty(shape + [n])
    for i, c in enumerate(xs):
        pts[..., i] = along(i, c)
    flat = pts.reshape(-1, n)
    vals = np.empty(len(flat))
    for b in row_blocks(len(flat), 1, _SAMPLE_BLOCK):
        vals[b] = grid.boundary(flat[b])
    del pts, flat
    vals = vals.reshape(shape)
    vals2 = vals * vals
    sq = [c * c for c in xs]
    if np.sqrt(sum(float(c.max()) for c in sq)) > ring_radius:  # else no node is past it
        r2 = along(0, sq[0])
        for i in range(1, n):
            r2 = r2 + along(i, sq[i])
        far = (np.sqrt(r2) > ring_radius).reshape(shape[0], -1)
        rows = [far.sum(axis=1)] + [(v.reshape(far.shape) * far).sum(axis=1)
                                    for v in (vals, vals2)]
        for row in np.stack(rows, axis=1):
            ring += row
    return _cell_sum(vals), (_cell_sum(vals2) if xs[0].shape[1] > 1 else None)


def _cell_sum(v: np.ndarray) -> np.ndarray:
    """Sums over the sub-node axes 1, 3, .. of a dense sub-node block, one
    sub-node at a time in a fixed order."""
    if v.shape[1] == 1:
        return v.reshape(v.shape[::2])
    for ax in range(v.ndim - 1, 0, -2):
        v = reduce(np.add, [v.take(e, axis=ax) for e in range(v.shape[ax])])
    return v


def _cubic_to_box(t: np.ndarray, lo: int, box: tuple) -> np.ndarray:
    """Values on the 3h nodes lo, lo + 1, .. interpolated to the box's nodes
    box[0] .. box[1], by the tensor-product 4-point cubic along each axis."""
    i = np.arange(box[0], box[1] + 1)
    q, r = np.divmod(i, 3)
    P = np.zeros((i.size, t.shape[0]))
    P[np.arange(i.size)[:, None], (q - 1 - lo)[:, None] + np.arange(4)] = _CUBIC[r]
    for ax in range(t.ndim):
        t = np.moveaxis(np.tensordot(P, t, axes=(1, ax)), 0, ax)
    return np.ascontiguousarray(t)


def _moments_nd(grid: Grid, spec) -> dict:
    """Exterior moments by FFT convolutions over a two-level frame.

    The complement of the box is tiled out to about 4 box radii by the
    cells of `frame_levels`: h-cells out to J0 >= 2m nodes, evaluated at
    their nodes, then 3h-cells centred on the nodes 3hk, each carrying the
    means of u_ext and u_ext^2 over its 3^n sub-nodes and the kernel summed
    over its 3^n sub-offsets, convolved onto the 3h nodes over the box and
    interpolated to the box's nodes by a cubic.  Beyond the frame an
    isotropic remainder from 3.5 box radii, weighted by the exterior's mean
    over the frame's nodes past 2.5 box radii, closes the integral.  Each
    level skips the t1 and t2 convolutions of a zero exterior and the t2
    convolution of a +-1 one, whose t2 is t0 bit for bit.

    Against the all-fine frame of the same reach the moments differ by at
    most 4.0e-6 of their largest value on the 2D oracle grids (m = 16) and
    5.5e-6 on 3D grids up to m = 32, where 3h-cells cover most nodes.  A
    build holds one level's exterior sums, its kernel and one transform
    workspace: on the tested grids a traced peak of 2.1-2.2x (2D, both
    levels) and 5.4x (3D, h-cells only) the float64 bytes of the (8m)^n
    lattice that an all-fine frame would convolve.
    """
    n, h, m = grid.n, grid.h, grid.half_count
    box = (-m, m - 1 + (1 if grid.centered else 0))
    rho = (_REACH - 0.5) * grid.box_radius
    ring = np.zeros(3)
    total = {}
    for step, cells, hole in frame_levels(grid):
        w, u, u2 = _sample_level(grid, step, cells, hole, rho - grid.box_radius, ring)
        lo, hi = box if step == 1 else (box[0] // 3 - 1, box[1] // 3 + 2)
        kern = _level_kernel(spec, n, h, step, cells + max(-lo, hi))
        conv = FFTConvolver(kern, w.shape, (slice(cells + lo, cells + hi + 1),) * n)
        del kern
        # u is 0 off the exterior, so it is its own product with the mask;
        # a zero exterior convolves to exact zeros and is skipped
        level = {}
        if u.any():
            level["t1"] = conv(u)
            if u2 is None:
                u *= u
                u2 = u
            # a +-1 exterior squares to the mask itself, whose convolution is t0
            if not np.array_equal(u2, w):
                level["t2"] = conv(u2)
        np.copyto(u, w)
        level["t0"] = conv(u)
        del conv, w, u, u2
        if "t1" in level:
            level.setdefault("t2", level["t0"])
        for key, t in level.items():
            t = t if step == 1 else _cubic_to_box(t, lo, box)
            total[key] = total[key] + t if key in total else t
    t0 = total["t0"]
    count, su, su2 = ring
    u_far, u2_far = (su / count, su2 / count) if count else (0.0, 1.0)

    # isotropic remainder beyond the frame
    rem = far_kernel_mass(spec, n, rho)
    return {"t0": t0 + rem,
            "t1": total.get("t1", np.zeros_like(t0)) + u_far * rem,
            "t2": total.get("t2", np.zeros_like(t0)) + u2_far * rem}


def exterior_moments(grid: Grid, spec) -> dict:
    """Per-node tail integrals over the complement of the box.

    t0 = integral of K, t1 = integral of u_ext K, t2 = integral of
    u_ext^2 K; all taken at each node against the exterior region.  A
    periodic grid has no exterior: its three moments are the scalar 0.0.
    """
    if isinstance(grid.boundary, Periodic):
        return {"t0": 0.0, "t1": 0.0, "t2": 0.0}
    if grid.n == 1:
        return _moments_1d(grid, spec)
    return _moments_nd(grid, spec)


# ---------------------------------------------------------------------------
# the convolution engine
# ---------------------------------------------------------------------------

class FFTConvolver:
    """Linear convolution sum_j f[j] k[x - j] of fields of one shape with a
    fixed centred kernel (odd length, offset 0 in the middle), read on an
    output window: a slice of P nodes per axis, by default the whole field
    ("same" mode).

    Overlap-save on one block (Oppenheim & Schafer, Discrete-Time Signal
    Processing, sec. 8.7): only the N + P - 1 kernel offsets the window can
    reach are kept and transformed once at next_fast_len(N + P - 1); the
    circular product is free of wrap-around on [N - 1, N - 1 + P).

    The transforms are pruned (Markel 1971; Sorensen & Burrus 1993) and
    done in place in one half-spectrum work array.  Forward: r2c over the
    field's own lines, a block of leading rows at a time, then in-place c2c
    along axes 0 .. n-2, each pass skipping the lines that are still all
    zero padding.  Inverse: in-place c2c along axis 0, crop to the window's
    rows, and so on axis by axis; the last axis's c2r runs only on the
    window's lines, a block of rows at a time and unnormalized, and its crop
    is scaled once by 1/prod(fshape).
    The passes run in pocketfft's own order for rfftn and irfftn (r2c last
    then c2c along 0, 1, ...; c2c along 0, 1, ... then c2r last), and the
    scale is the double nearest the long-double 1/N that pocketfft applies
    after its c2r.  So the result equals the cropped
    irfftn(rfftn(f) * rfftn(kernel)) bit for bit.  In 1D the rfft's own
    output is the work array: nothing is zeroed and nothing is pruned.
    """

    def __init__(self, kernel: np.ndarray, shape: tuple, window: tuple | None = None):
        window = window or tuple(slice(0, a) for a in shape)
        reach, crop, self.fshape = [], [], []
        for k, a, win in zip(kernel.shape, shape, window):
            lo, hi, _ = win.indices(a)
            c = k // 2
            if c + lo - a + 1 < 0 or c + hi > k:
                raise ValueError("kernel does not reach the output window")
            reach.append(slice(c + lo - a + 1, c + hi))
            crop.append(slice(a - 1, a - 1 + hi - lo))
            self.fshape.append(sfft.next_fast_len(a + hi - lo - 1, real=True))
        self.crop = tuple(crop)
        self._inv_n = float(np.longdouble(1) / np.longdouble(int(np.prod(self.fshape))))
        self.spectrum = self._forward(kernel[tuple(reach)])

    def _forward(self, f: np.ndarray) -> np.ndarray:
        """rfftn(f, fshape) bit for bit, transforming only lines that can be nonzero."""
        fs = self.fshape
        if len(fs) == 1:
            return sfft.rfft(f, fs[0])
        work = np.zeros(fs[:-1] + [fs[-1] // 2 + 1], dtype=complex)
        own = tuple(slice(0, a) for a in f.shape[:-1])
        head = work[own]
        for b in row_blocks(len(f), f[0].size // f.shape[-1] * fs[-1], _FFT_BLOCK):
            head[b] = sfft.rfft(f[b], fs[-1])
        for k in range(len(fs) - 1):
            sfft.fft(work[(slice(None),) * (k + 1) + own[k + 1:]], axis=k, overwrite_x=True)
        return work

    def __call__(self, f: np.ndarray) -> np.ndarray:
        fs = self.fshape
        sp = self._forward(f)
        sp *= self.spectrum
        if len(fs) == 1:
            return sfft.irfft(sp, fs[0], norm="forward")[self.crop[0]] * self._inv_n
        for k, c in enumerate(self.crop[:-1]):
            sfft.ifft(sp, axis=k, norm="forward", overwrite_x=True)
            sp = sp[(slice(None),) * k + (c,)]
        out = np.empty(sp.shape[:-1] + (self.crop[-1].stop - self.crop[-1].start,))
        for b in row_blocks(len(out), sp[0].size // sp.shape[-1] * fs[-1], _FFT_BLOCK):
            line = sfft.irfft(sp[b], fs[-1], norm="forward")
            np.multiply(line[..., self.crop[-1]], self._inv_n, out=out[b])
        return out


# ---------------------------------------------------------------------------
# the discrete operator bundle
# ---------------------------------------------------------------------------

class LRUCache:
    """A map bounded by the total size of its entries; the least recently
    used go first.  `get` and `put` make an entry the most recent, a put
    replaces the entry of its key, and an entry larger than `cap` is not
    kept.  `hits`, `misses` and `evictions` count from construction on.
    """

    def __init__(self, cap):
        self.cap = cap
        self.total = 0
        self.hits = self.misses = self.evictions = 0
        self._items: OrderedDict = OrderedDict()

    def get(self, key):
        """The value stored under `key`, or None."""
        entry = self._items.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._items.move_to_end(key)
        return entry[0]

    def put(self, key, value, size=1) -> None:
        """Store `value` under `key` as the most recent entry, weighing `size`."""
        old = self._items.pop(key, None)
        if old is not None:
            self.total -= old[1]
        if size > self.cap:
            return
        self._items[key] = (value, size)
        self.total += size
        while self.total > self.cap:
            self.total -= self._items.popitem(last=False)[1][1]
            self.evictions += 1

    def clear(self) -> None:
        self._items.clear()
        self.total = 0

    def __len__(self) -> int:
        return len(self._items)


class DiscreteOperator:
    """Pair weights, tail moments, and fast applications for one (grid, kernel).

    The operator owns the exterior: a periodic grid has zero tail moments,
    so `apply`, `diagonal`, `sobolev_energy` and the moments read the same
    on every grid and callers never branch on the boundary.

    All heavy tables are built lazily and cached on the instance: the
    convolution engine, the engine windowed to the last `conv_mask`
    window and the diagonal.  The memos of `sobolev_energy` and `conv_mask`
    serve sweeps; instances are shared through `get_operator`.
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
        self._moments = None
        self._colsum = None
        self._diagonal = None
        self._box_memo = None
        self._energy_memo = LRUCache(64)
        self._mask_memo = LRUCache(2)
        self._window_engine = None

    # -- tables -------------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        """The weight of every pair of box nodes by their offset, over the
        centred offsets -(p-1)..(p-1) of each axis: the pair-weight table,
        or on a periodic grid the periodized row unwrapped, so that the
        linear convolution `conv` equals the circular one with the row up
        to round-off."""
        if self._weights is None:
            g = self.grid
            if isinstance(g.boundary, Periodic):
                p = g.nodes_per_axis
                row = periodized_weight_row(g, self.spec)
                self._weights = row[np.ix_(*[np.arange(1 - p, p) % p] * g.n)]
            else:
                self._weights = pair_weight_table(g, self.spec)
        return self._weights

    @property
    def moments(self) -> dict:
        if self._moments is None:
            self._moments = exterior_moments(self.grid, self.spec)
        return self._moments

    # -- convolution primitives ---------------------------------------------

    def conv(self, f: np.ndarray) -> np.ndarray:
        """sum_{xbar in box} w(x - xbar) f(xbar) at every box node."""
        if self._engine is None:
            self._engine = FFTConvolver(self.weights, self.grid.shape)
        return self._engine(f)

    def conv_mask(self, mask: np.ndarray, window: tuple) -> np.ndarray:
        """conv of a boolean mask read on a window (one slice per axis, as
        `bounding_box` gives), read-only, by the engine windowed there; the
        last window's engine is kept.  The last two (mask, window) pairs are
        kept with their convolutions, keyed by the mask's packed bits, so a
        set and its deformations, which share their part outside the region,
        convolve that part once."""
        bounds = tuple((w.start, w.stop) for w in window)
        key = (np.packbits(mask).tobytes(), bounds)
        out = self._mask_memo.get(key)
        if out is None:
            if self._window_engine is None or self._window_engine[0] != bounds:
                self._window_engine = (bounds, FFTConvolver(self.weights, mask.shape, window))
            out = self._window_engine[1](mask.astype(float))
            out.flags.writeable = False
            self._mask_memo.put(key, out)
        return out

    @property
    def colsum(self) -> np.ndarray:
        """sum_{xbar in box} w(x - xbar), per node."""
        if self._colsum is None:
            self._colsum = self.conv(np.ones(self.grid.shape))
        return self._colsum

    @property
    def diagonal(self) -> np.ndarray:
        """colsum + t0: the kernel mass each node sees, box and exterior."""
        if self._diagonal is None:
            self._diagonal = self.colsum + self.moments["t0"]
        return self._diagonal

    # -- operator and forms ---------------------------------------------------

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L u(x) = sum w(z)(u(x) - u(x+z)) + tail, on every node."""
        return values * self.diagonal - self.conv(values) - self.moments["t1"]

    def symbol(self) -> np.ndarray:
        """Exact eigenvalues of the periodic operator on DFT modes (>= 0),
        from the periodized row: the p^n corner of `weights` at offset 0."""
        g = self.grid
        if not isinstance(g.boundary, Periodic):
            raise ConfigurationError("the symbol needs a periodic grid")
        row = self.weights[(slice(g.nodes_per_axis - 1, None),) * g.n]
        return np.maximum(self.colsum - sfft.fftn(row).real, 0.0)

    def _field_memo(self, values: np.ndarray) -> tuple:
        """(u, conv(u), conv(u^2)) for the last field, compared by value.  A
        new field empties the energy memo, which keeps the `sobolev_energy`
        of each region (keyed by its packed mask) summed on the last field."""
        if self._box_memo is None or not np.array_equal(self._box_memo[0], values):
            self._box_memo = (values.copy(), self.conv(values), self.conv(values * values))
            self._energy_memo.clear()
        return self._box_memo

    def sobolev_energy(self, values: np.ndarray, region_mask: np.ndarray) -> float:
        """Quarter pair-sum over pairs with >= 1 endpoint in the region, plus
        half the tail u^2 t0 - 2 u t1 + t2 over the region (zero if periodic).

        With S(A, B) the sum over x in A, xbar in B of |u(x) - u(xbar)|^2
        w(x - xbar), the pairs are S(A, box) + S(A, box less A) =
        2 S(A, box) - S(A, A).  S(A, box) reads the field's memoized box
        convolutions; S(A, A) = 2 (<u^2 chi_A, w * chi_A> - <u chi_A,
        w * (u chi_A)>) takes two convolutions of fields cropped to A's
        bounding box, by an engine built for that box and not kept.  A
        region already summed on the same field values is read back.

        The exterior moments are built first: their build sets a large
        grid's peak memory, and it then runs before the box convolutions,
        their engine and the weight table are held."""
        mom = self.moments
        self._field_memo(values)
        key = np.packbits(region_mask).tobytes()
        e = self._energy_memo.get(key)
        if e is None:
            e = self._sobolev_energy(values, region_mask, mom)
            self._energy_memo.put(key, e)
        return e

    def _sobolev_energy(self, values: np.ndarray, region_mask: np.ndarray, mom: dict) -> float:
        g, u = self.grid, values
        cu, cuu = self._box_memo[1:]
        total = 2.0 * float((u * u * self.colsum + cuu - 2.0 * u * cu)[region_mask].sum())
        near = bounding_box(region_mask)
        if near is not None:
            a, v = region_mask[near], u[near]
            chi = a.astype(float)
            uchi = v * chi
            conv = FFTConvolver(self.weights, a.shape)
            inner = v * (v * conv(chi) - conv(uchi))
            total -= 2.0 * float(inner[a].sum())
        e = 0.25 * g.cell_volume() * total
        tail = (u * u * mom["t0"] - 2.0 * u * mom["t1"] + mom["t2"])[region_mask].sum()
        e += 0.5 * g.cell_volume() * tail
        return float(e)

    def stability_apply(self, xi: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """(L_free + diag) xi with zero extension outside the box: the
        exterior enters only through t0.  Periodic grids use the free twin
        (zero extension, not periodic wrap)."""
        if isinstance(self.grid.boundary, Periodic):
            return _free_twin(self).stability_apply(xi, diag)
        return xi * self.diagonal - self.conv(xi) + diag * xi


_registry = LRUCache(64)


def get_operator(grid: Grid, spec) -> DiscreteOperator:
    """The shared operator for (grid, kernel); the registry keeps the 64
    most recently used."""
    key = (grid.key(), spec.key())
    op = _registry.get(key)
    if op is None:
        op = DiscreteOperator(grid, spec)
        _registry.put(key, op)
    return op


def _free_twin(op: DiscreteOperator) -> DiscreteOperator:
    """Same weights on the same node set but with free (zero) exterior."""
    g = op.grid
    free_grid = Grid(g.n, g.h, g.box_radius,
                     ConstantExterior([(0.0, 0.0)] * g.n), g.centered)
    return get_operator(free_grid, op.spec)
