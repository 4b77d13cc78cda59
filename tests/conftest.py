import math
from functools import lru_cache

import numpy as np
import pytest

from fracac import (
    Grid,
    IndicatorSet,
    KernelSpec,
    Periodic,
    Potential,
    embed_profile,
    flow_map,
    fractional_perimeter,
    make_grid,
    rescale_blowdown,
    solve_layer_1d,
)
from fracac._lattice import _THETAS, FFTConvolver, _lattice_sum_1d, _symbol_tail, far_kernel_mass


@pytest.fixture(scope="session")
def quartic():
    return Potential.quartic()


@pytest.fixture(scope="session")
def layer_s05():
    return solve_layer_1d(0.5, 40.0, 0.05, tol=1e-10)


@pytest.fixture(scope="session")
def layer_s03():
    return solve_layer_1d(0.3, 40.0, 0.05, tol=1e-10)


@pytest.fixture(scope="session")
def layer_s08():
    return solve_layer_1d(0.8, 40.0, 0.05, tol=1e-10)


@pytest.fixture(scope="session")
def grid2d():
    return make_grid(2, 16.0, 0.125)


@pytest.fixture(scope="session")
def embedded_layer(layer_s05, grid2d):
    """Plain embedding of the s = 0.5 profile along the first axis."""
    return embed_profile(layer_s05, (1.0, 0.0), grid2d)


@pytest.fixture(scope="session")
def embedded_layer_zoomed(layer_s05, grid2d):
    """Zoomed embedding probing the large-radius regime."""
    return embed_profile(rescale_blowdown(layer_s05, 32.0), (1.0, 0.0), grid2d)


@pytest.fixture(scope="session")
def spec1_unit():
    return KernelSpec.fractional_unit(0.5, 1)


@pytest.fixture(scope="session")
def spec2_unit():
    return KernelSpec.fractional_unit(0.5, 2)


def composed_quotients(E, X, region, s, t_list):
    """The perimeter stability quotients of E under X at the one order s,
    composed from flow_map and fractional_perimeter: the per-order loop
    that stability.cone_sweep replaced, kept as its oracle."""

    def trace_on(ind):
        base = fractional_perimeter(ind, region, s)
        out = []
        for t in t_list:
            pp = fractional_perimeter(flow_map(ind, X, +t), region, s)
            pm = fractional_perimeter(flow_map(ind, X, -t), region, s)
            out.append((pp + pm - 2.0 * base) / t ** 2)
        return np.array(out)

    g = E.grid
    coarse = Grid(g.n, 2 * g.h, g.box_radius, g.boundary, g.centered)
    q_fine = trace_on(E)
    q_coarse = trace_on(IndicatorSet(coarse, E.membership[(slice(0, None, 2),) * g.n]))
    err = np.abs(q_fine - q_coarse) + 1e-6 * max(1.0, float(np.max(np.abs(q_fine))))
    return {"t": list(t_list), "q": q_fine.tolist(), "error_bar": err.tolist(),
            "q_coarse": q_coarse.tolist()}


def dense_matrix(op):
    """Oracle for LU solves and dense eigensolves: the full matrix of an
    exterior-grid operator, tails on the diagonal, assembled entry by entry
    from the pair-weight table (entry (i, j) is -w(x_i - x_j)).  Any
    dimension; N^2 doubles, so small grids only."""
    g = op.grid
    assert not isinstance(g.boundary, Periodic) and g.node_count <= 4096
    p = g.nodes_per_axis
    idx = np.indices(g.shape).reshape(g.n, -1)
    mat = -op.weights[tuple(a[:, None] - a[None, :] + (p - 1) for a in idx)]
    np.fill_diagonal(mat, op.diagonal.ravel())
    return mat


def _oracle_offset_radii(n, count, h):
    """|z| over the offset cube {-count..count}^n * h, from n meshgrids."""
    rng = h * np.arange(-count, count + 1, dtype=float)
    meshes = np.meshgrid(*([rng] * n), indexing="ij")
    return np.sqrt(sum(m * m for m in meshes))


def _oracle_kernel_on_radii(spec, r, n):
    """Kernel values at radii r > 0 through the compressed positive radii."""
    out = np.zeros_like(r)
    pos = r > 0
    rp = r[pos]
    if spec.kind == "fractional":
        vals = (2.0 - spec.s) * rp ** (-(n + spec.s))
    else:
        vals = np.asarray(spec.profile(rp), dtype=float)
    out[pos] = spec.scale * vals
    return out


def enlarged_lattice_moments(grid, spec, reach, factor=4):
    """Oracle for the n-D exterior moments: the all-fine frame that reaches
    the nodes |j|_inf <= reach (the box left out), closed by the isotropic
    remainder beyond (factor - 1/2) box radii, built by materializing every
    coordinate of the (2 reach + 1)^n lattice (meshgrids, a stacked point
    array, one boundary call over all exterior nodes).  It holds about 14x
    the lattice's float64 bytes in 2D, so small grids only."""
    n, h = grid.n, grid.h
    m = grid.half_count
    mm = reach
    extra = 1 if grid.centered else 0
    rng = h * np.arange(-mm, mm + 1)
    meshes = np.meshgrid(*([rng] * n), indexing="ij")
    pts = np.stack([mesh.ravel() for mesh in meshes], axis=1)

    idx = [np.arange(-mm, mm + 1)] * n
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

    kern = h ** n * _oracle_kernel_on_radii(spec, _oracle_offset_radii(n, mm + m, h), n)
    conv = FFTConvolver(kern, u_ext.shape, (slice(mm - m, mm + m + extra),) * n)
    del kern

    t0 = conv(ext_mask.astype(float))
    if u_ext.any():
        t1 = conv(u_ext * ext_mask)
        sq = u_ext ** 2 * ext_mask
        t2 = t0.copy() if np.array_equal(sq, ext_mask) else conv(sq)
        del sq
    else:
        t1, t2 = np.zeros_like(t0), np.zeros_like(t0)
    del conv

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


def plane_reference_symbols(n: int, s: float) -> tuple:
    """Oracle for the calibration pass in a second summation order: a
    full-ball build that sums the squared radii as int64 on the full plane,
    copies them to float64 (55 MB traced in 2D) and sums each slab's masked
    ball terms in one flat array per frequency."""
    if n == 1:
        return tuple(_lattice_sum_1d(s, t) for t in _THETAS)
    rho = 700.0 if n == 2 else 60.0
    rng = np.arange(-int(rho), int(rho) + 1)
    sq = rng * rng
    plane = sq[:, None] + sq
    tables = [1.0 - np.cos(t * rng) for t in _THETAS]
    core = [0.0] * len(_THETAS)
    for jz in rng if n == 3 else (0,):
        r2 = (plane + jz * jz).astype(float)
        mask = (r2 > 0) & (r2 <= rho * rho)
        pw = r2[mask] ** (-(n + s) / 2.0)
        rows = mask.sum(axis=1)
        for i, tab in enumerate(tables):
            core[i] += np.sum(np.repeat(tab, rows) * pw)
    return tuple(float(c) + _symbol_tail(n, s, t, rho) for c, t in zip(core, _THETAS))


@lru_cache(maxsize=None)
def compensated_reference_symbols(n: int, s: float) -> tuple:
    """The calibration symbols g(theta) (n = 2, 3) with a correctly rounded
    core: every term (1 - cos(theta j_1)) |j|^{-n-s} of the ball is taken in
    long double (the power once per distinct |j|^2), split into two float64
    parts that hold it exactly, and the parts and the asymptotic tail are
    summed by math.fsum."""
    rho = 700 if n == 2 else 60
    rng = np.arange(-rho, rho + 1)
    j = np.indices((len(rng),) * n).reshape(n, -1) - rho
    r2 = (j * j).sum(axis=0)
    ball = (r2 > 0) & (r2 <= rho * rho)
    radii, which = np.unique(r2[ball], return_inverse=True)
    power = radii.astype(np.longdouble) ** (-(n + np.longdouble(s)) / 2)
    out = []
    for t in _THETAS:
        term = (1.0 - np.cos(np.longdouble(t) * rng))[j[0][ball] + rho] * power[which]
        hi = term.astype(float)
        parts = hi.tolist() + (term - hi).astype(float).tolist()
        out.append(math.fsum(parts + [_symbol_tail(n, s, t, float(rho))]))
    return tuple(out)


def mode_field(grid, coeffs):
    """Band-limited periodic field from (k, a, b) coefficient triples."""
    x = grid.coords()
    vals = np.zeros(len(x))
    for k, a, b in coeffs:
        vals += a * np.cos(k * x[:, 0]) + b * np.sin(k * x[:, 0])
    from fracac import ScalarField
    return ScalarField(grid, vals.reshape(grid.shape))
