"""Kernel values, the two operator routes, and the structural invariants
shared by every kernel in the admissible class."""

import math
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracac import (
    BallRegion,
    ConstantExterior,
    FieldExterior,
    Grid,
    IndicatorSet,
    KernelSpec,
    Periodic,
    ScalarField,
    apply_laplacian,
    apply_quadrature,
    apply_spectral,
    embed_profile,
    fractional_perimeter,
    kernel_value,
    make_grid,
    operator_consistency,
)
from fracac.errors import ConfigurationError, SingularityError
from fracac.kernels import kernel_bounds_audit
from fracac.stability import cone_set
from fracac import _lattice
from fracac._lattice import (
    DiscreteOperator,
    FFTConvolver,
    LRUCache,
    _free_twin,
    continuum_symbol_constant,
    exterior_moments,
    far_kernel_mass,
    get_operator,
    kernel_on_radii,
    periodized_weight_row,
    shell_correction,
    symbol_constant,
)

from conftest import (
    _oracle_kernel_on_radii,
    compensated_reference_symbols,
    enlarged_lattice_moments,
    mode_field,
    plane_reference_symbols,
)


def test_kernel_value_reference_points():
    # (2 - s) |z|^{-n-s} at pinned sample points
    assert kernel_value(KernelSpec.fractional(1.0), [2.0]) == pytest.approx(0.25)
    assert kernel_value(KernelSpec.fractional(0.5), [1.0]) == pytest.approx(1.5)


def test_kernel_value_even_symmetry():
    rng = np.random.default_rng(7)
    spec = KernelSpec.fractional(0.7)
    for _ in range(20):
        z = rng.normal(size=2)
        assert kernel_value(spec, z) == pytest.approx(kernel_value(spec, -z))


def test_kernel_value_singularity():
    with pytest.raises(SingularityError):
        kernel_value(KernelSpec.fractional(0.5), [0.0, 0.0])


def wobble_kernel(s, n):
    prof = lambda r: (2.0 - s) * r ** (-(n + s)) * (1.0 + 0.2 * np.cos(np.log(r)))
    return KernelSpec.general(s, prof, lam=0.8, Lam=4.0)


def test_kernel_bounds_audit():
    spec = wobble_kernel(0.6, 2)
    rep = kernel_bounds_audit(spec, 2)
    assert rep["passed"]
    bad = KernelSpec.general(0.6, lambda r: 3.0 * (2.0 - 0.6) * r ** (-2.6),
                             lam=0.8, Lam=1.2)
    rep_bad = kernel_bounds_audit(bad, 2)
    assert not rep_bad["upper_ok"]


def test_quadrature_constant_field_zero():
    g = Grid(1, 0.25, 4.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    out = apply_quadrature(u, KernelSpec.fractional(0.5))
    assert np.max(np.abs(out.values)) <= 1e-12


def test_quadrature_odd_field_vanishes_at_origin():
    g = Grid(1, 0.25, 4.0, ConstantExterior([(-1.0, 1.0)]), centered=True)
    x = g.axis_coords()
    u = ScalarField(g, np.tanh(x))
    out = apply_quadrature(u, KernelSpec.fractional(0.5))
    assert abs(out.values[g.half_count]) <= 1e-12


def test_quadrature_mode_eigenvalue_against_refined_oracle():
    """Brute-force pair sum at refinement h/2 reproduces the mode multiplier."""
    s = 0.6
    k = 3
    g = make_grid(1, np.pi, 2.0 * np.pi / 128)
    x = g.axis_coords()
    u = ScalarField(g, np.cos(k * x))
    lam = apply_quadrature(u, KernelSpec.fractional(s)).values[5] / np.cos(k * x[5])

    # oracle: raw midpoint lattice sum at spacing h/2, images folded directly
    h2 = g.h / 2.0
    j = np.arange(1, 400000)
    z = h2 * j
    oracle = 2.0 * h2 * np.sum((1.0 - np.cos(k * z)) * (2.0 - s) * z ** (-(1.0 + s)))
    # analytic remainder of the truncated sum
    zmax = z[-1]
    oracle += 2.0 * (2.0 - s) / s * zmax ** (-s)
    assert lam == pytest.approx(oracle, rel=1e-2)


def test_spectral_requires_periodic():
    g = Grid(1, 0.25, 4.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ConfigurationError):
        apply_spectral(u, 0.5)


def test_spectral_constant_and_linearity():
    g = make_grid(1, np.pi, 2.0 * np.pi / 64)
    const = ScalarField(g, np.ones(g.shape))
    assert np.max(np.abs(apply_spectral(const, 0.5).values)) <= 1e-12
    u = mode_field(g, [(1, 1.0, 0.0)])
    v = mode_field(g, [(3, 0.0, 1.0)])
    both = mode_field(g, [(1, 2.0, 0.0), (3, 0.0, -0.5)])
    lin = 2.0 * apply_spectral(u, 0.5).values - 0.5 * apply_spectral(v, 0.5).values
    assert np.allclose(apply_spectral(both, 0.5).values, lin, atol=1e-12)


def test_operator_linearity_quadrature():
    g = make_grid(1, np.pi, 2.0 * np.pi / 64)
    rng = np.random.default_rng(1)
    u = ScalarField(g, rng.normal(size=g.shape))
    v = ScalarField(g, rng.normal(size=g.shape))
    spec = KernelSpec.fractional(0.5)
    lhs = apply_quadrature(ScalarField(g, 2.0 * u.values - 3.0 * v.values), spec).values
    rhs = 2.0 * apply_quadrature(u, spec).values - 3.0 * apply_quadrature(v, spec).values
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_operator_self_adjoint_and_nonnegative_periodic():
    g = make_grid(1, np.pi, 2.0 * np.pi / 64)
    rng = np.random.default_rng(2)
    spec = KernelSpec.fractional(0.7)
    for _ in range(5):
        u = ScalarField(g, rng.normal(size=g.shape))
        v = ScalarField(g, rng.normal(size=g.shape))
        lu = apply_quadrature(u, spec).values
        lv = apply_quadrature(v, spec).values
        assert np.sum(lu * v.values) == pytest.approx(np.sum(u.values * lv), rel=1e-10)
        assert np.sum(lu * u.values) >= -1e-10


def test_general_kernel_comparison_bounds():
    g = make_grid(1, np.pi, 2.0 * np.pi / 64)
    rng = np.random.default_rng(3)
    s = 0.6
    frac = KernelSpec.fractional(s)
    gen = KernelSpec.general(s, lambda r: (2.0 - s) * r ** (-(1 + s)) * (1.0 + 0.2 * np.cos(np.log(r))),
                             lam=0.8, Lam=4.0)  # value pinching is sharp at 1.2
    for _ in range(10):
        u = ScalarField(g, rng.normal(size=g.shape))
        qf = float(np.sum(apply_quadrature(u, frac).values * u.values))
        qg = float(np.sum(apply_quadrature(u, gen).values * u.values))
        assert 0.8 * qf - 1e-9 <= qg <= 1.2 * qf + 1e-9


def test_laplacian_constant_quadratic_and_mode():
    gq = Grid(2, 0.25, 2.0, FieldExterior(lambda p: np.sum(p ** 2, axis=1)))
    pts = gq.coords()
    u = ScalarField(gq, np.sum(pts ** 2, axis=1).reshape(gq.shape))
    out = apply_laplacian(u)
    assert np.allclose(out.values, -4.0, atol=1e-9)

    g = make_grid(1, np.pi, 2.0 * np.pi / 32)
    x = g.axis_coords()
    um = ScalarField(g, np.cos(x))
    lam = (2.0 - 2.0 * np.cos(g.h)) / g.h ** 2
    assert np.allclose(apply_laplacian(um).values, lam * np.cos(x), atol=1e-12)


def test_consistency_report_band_limited_and_noise():
    rng = np.random.default_rng(0)
    g = make_grid(1, np.pi, 2.0 * np.pi / 128)
    x = g.axis_coords()
    vals = sum((rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)) / k ** 2
               for k in range(1, 9))
    u = ScalarField(g, vals)
    rep = operator_consistency(u, 0.5, tolerance=1e-3)
    assert rep["passed"]
    assert rep["calibration_constant"] == pytest.approx(rep["continuum_constant"], rel=5e-3)

    noise = ScalarField(g, rng.normal(size=g.shape))
    rep_noise = operator_consistency(noise, 0.5, tolerance=1e-3)
    assert not rep_noise["passed"]
    assert rep_noise["discrepancy"] > 1e-3


def test_shell_correction_matches_zeta_limit():
    import mpmath
    for s in (0.3, 0.5, 0.9):
        d = shell_correction(1, s)
        ref = -float(mpmath.zeta(s - 1))
        # two-frequency calibration absorbs part of the quartic term
        assert d == pytest.approx(ref, rel=0.05)


def test_symbol_constant_close_to_continuum_2d():
    for s in (0.3, 0.7):
        assert symbol_constant(2, s) == pytest.approx(
            continuum_symbol_constant(2, s), rel=2e-3)


def _brute_force_symbol(n, s, theta):
    """g(theta) = sum_{j != 0} (1 - cos(theta j_1)) |j|^{-n-s} by one
    brute-force sum over the offset lattice per frequency (n = 2, 3)."""
    rho = 700.0 if n == 2 else 60.0
    rng = np.arange(-int(rho), int(rho) + 1)
    core = 0.0
    for jz in rng if n == 3 else (0,):
        jx, jy = np.meshgrid(rng, rng, indexing="ij")
        r2 = (jx * jx + jy * jy + jz * jz).astype(float)
        mask = (r2 > 0) & (r2 <= rho * rho)
        core += np.sum((1.0 - np.cos(theta * jx[mask])) * r2[mask] ** (-(n + s) / 2.0))
    return float(core) + _lattice._symbol_tail(n, s, theta, rho)


# One relative bound, about 4.5 float64 epsilons, for every route's
# calibration symbols against the compensated sum: the full-ball order (the
# brute force and the plane oracle) lies within 7.1e-16 on the lists below,
# the orthant pass within 6.9e-16.
SYMBOL_RTOL = 1e-15


def _relative_error(got, ref):
    return max(abs(a - b) / abs(b) for a, b in zip(got, ref))


@pytest.mark.parametrize("n, s", [(2, 0.3), (2, 0.9), (2, 1.5), (3, 0.5), (3, 1.5)])
def test_calibration_matches_per_frequency_brute_force(n, s):
    """The orthant pass and the per-frequency brute force meet one bound
    against the compensated sum, and the shell correction and multiplier
    constant built on the brute force move by round-off only (measured:
    4.1e-14 and 5.6e-16; the shell correction divides a near-cancelling
    difference of the two symbols)."""
    g1, g2 = _brute_force_symbol(n, s, 0.25), _brute_force_symbol(n, s, 0.5)
    ref = compensated_reference_symbols(n, s)
    assert _relative_error((g1, g2), ref) <= SYMBOL_RTOL
    assert _relative_error(_lattice._reference_symbols(n, s), ref) <= SYMBOL_RTOL
    a1, a2 = 2.0 * (1.0 - np.cos(0.25)), 2.0 * (1.0 - np.cos(0.5))
    d = float((2.0 ** s * g1 - g2) / (a2 - 2.0 ** s * a1))
    c = float((2.0 - s) * (g1 + d * 2.0 * (1.0 - np.cos(0.25))) / 0.25 ** s)
    assert shell_correction(n, s) == pytest.approx(d, rel=1e-13, abs=0.0)
    assert symbol_constant(n, s) == pytest.approx(c, rel=1e-15, abs=0.0)


def test_one_lattice_pass_per_order(monkeypatch):
    """The shell correction, the multiplier constant and an operator build
    on a fresh order share one calibration pass over the offset lattice."""
    passes = []
    one_pass = _lattice._reference_symbols.__wrapped__
    monkeypatch.setattr(_lattice, "_reference_symbols", lru_cache(maxsize=64)(
        lambda n, s: passes.append((n, s)) or one_pass(n, s)))
    s = 0.61803
    shell_correction(2, s)
    symbol_constant(2, s)
    g = Grid(2, 0.25, 1.0, ConstantExterior([(-1.0, 1.0), (-1.0, 1.0)]))
    get_operator(g, KernelSpec.perimeter(s)).apply(np.zeros(g.shape))
    assert passes == [(2, s)]


@pytest.mark.parametrize("n, s", [(2, 0.1), (2, 0.5), (2, 0.7), (2, 0.9), (2, 1.5),
                                  (3, 0.3), (3, 0.5), (3, 1.5)])
def test_calibration_pass_matches_the_plane_oracle(n, s):
    """The orthant pass (row sums over j_i >= 0) and the plane-based
    full-ball oracle sum in different orders and meet the same bound
    against the compensated sum."""
    ref = compensated_reference_symbols(n, s)
    assert _relative_error(_lattice._reference_symbols.__wrapped__(n, s), ref) <= SYMBOL_RTOL
    assert _relative_error(plane_reference_symbols(n, s), ref) <= SYMBOL_RTOL


@pytest.mark.parametrize("n, bound", [(2, 8e6), (3, 1e6)])
def test_calibration_pass_peak(n, bound):
    """A pass holds one orthant array: 700 x 701 in 2D (4.4 MB traced; the
    full-ball pass peaked at 30 MB, the plane-based build at 55 MB) and one
    60 x 61 slab in 3D (0.12 MB; the full-ball pass 0.35 MB)."""
    _lattice._reference_symbols.__wrapped__(n, 0.5)  # one-time allocations
    tracemalloc.start()
    try:
        _lattice._reference_symbols.__wrapped__(n, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_cone_sweep_orders_stay_near_the_import_peak():
    """A fresh process that calibrates the cone sweep's new orders (2D,
    s = 0.7 and 0.9) raises its VmHWM by about 5 MB over the bare import;
    the full-ball pass raised it by 30 MB.  VmHWM is read from the child's
    own status, which the forking test process does not share."""
    code = ("from fracac import _lattice\n"
            "def hwm(): return int(open('/proc/self/status').read()"
            ".split('VmHWM:')[1].split()[0])\n"
            "base = hwm()\n"
            "for s in (0.7, 0.9): _lattice._reference_symbols(2, s)\n"
            "print(hwm() - base)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, check=True)
    assert int(out.stdout) / 1024.0 <= 10.0


def _counted_engine_calls(monkeypatch):
    """Every `FFTConvolver` call from now on, as (engine, field shape)."""
    calls = []
    call = FFTConvolver.__call__
    monkeypatch.setattr(FFTConvolver, "__call__",
                        lambda self, f: calls.append((self, f.shape)) or call(self, f))
    return calls


def test_mask_convolutions_keep_the_last_two(monkeypatch):
    """`conv_mask` equals the convolution of the mask as floats on the
    window bit for bit, hands out read-only arrays, keeps the two most
    recently used (mask, window) pairs, convolves a repeated one once, and
    builds one engine per window."""
    g = Grid(2, 0.25, 2.0, ConstantExterior([(-1.0, 1.0), (-1.0, 1.0)]))
    op = DiscreteOperator(g, KernelSpec.perimeter(0.5))
    memo = op._mask_memo
    window = (slice(2, 13), slice(3, 12))
    calls = _counted_engine_calls(monkeypatch)
    pts = g.coords()
    masks = [(pts[:, 0] <= c).reshape(g.shape) for c in (-0.5, 0.0, 0.5)]
    a = op.conv_mask(masks[0], window)
    engine = calls[0][0]
    want = FFTConvolver(op.weights, g.shape, window)(masks[0].astype(float))
    assert np.array_equal(a, want) and not a.flags.writeable and a.shape == (11, 9)
    assert np.max(np.abs(a - op.conv(masks[0].astype(float))[window])) <= 1e-13 * np.max(a)
    del calls[:]
    op.conv_mask(masks[1], window)
    assert op.conv_mask(masks[0], window) is a and len(calls) == 1 and memo.hits == 1
    op.conv_mask(masks[2], window)           # evicts masks[1], the least recent
    assert len(memo) == 2 and len(calls) == 2 and memo.evictions == 1
    op.conv_mask(masks[0], window)
    op.conv_mask(masks[1], window)
    assert len(memo) == 2 and len(calls) == 3
    assert {e for e, _ in calls} == {engine}
    assert (memo.hits, memo.misses, memo.evictions) == (2, 4, 2)
    other = op.conv_mask(masks[0], (slice(0, 16),) * 2)
    assert other.shape == g.shape and len(calls) == 4 and calls[-1][0] is not engine


def test_unit_kernel_dimension_guard():
    spec = KernelSpec.fractional_unit(0.5, 1)
    g = make_grid(2, 2.0, 0.25)
    u = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ConfigurationError):
        apply_quadrature(u, spec)


def test_operator_build_rejects_out_of_bounds_general_kernel():
    g = make_grid(1, np.pi, 2.0 * np.pi / 32)
    bad = KernelSpec.general(0.6, lambda r: 3.0 * (2.0 - 0.6) * r ** (-1.6),
                             lam=0.8, Lam=1.2)
    u = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(ConfigurationError):
        apply_quadrature(u, bad)


def test_quadrature_3d_constant_and_linearity_smoke():
    g = Grid(3, 0.25, 1.0, ConstantExterior([(1.0, 1.0)] * 3))
    spec = KernelSpec.fractional(0.5)
    ones = ScalarField(g, np.ones(g.shape))
    out = apply_quadrature(ones, spec)
    assert np.max(np.abs(out.values)) <= 1e-10
    # with a fixed exterior the map is affine; linearity holds against the
    # zero exterior, where the data term vanishes
    g0 = Grid(3, 0.25, 1.0, ConstantExterior([(0.0, 0.0)] * 3))
    rng = np.random.default_rng(0)
    u = ScalarField(g0, rng.normal(size=g0.shape))
    v = ScalarField(g0, rng.normal(size=g0.shape))
    lhs = apply_quadrature(ScalarField(g0, u.values + v.values), spec).values
    rhs = apply_quadrature(u, spec).values + apply_quadrature(v, spec).values
    scale = float(np.max(np.abs(lhs)))
    assert np.allclose(lhs, rhs, atol=1e-11 * scale)


# ---------------------------------------------------------------------------
# convolution engine and operator registry
# ---------------------------------------------------------------------------

def _direct_convolution(f, kernel, window):
    """sum_j f[j] kernel[c + x - j] at every node x of the window, one node
    pair at a time (c is the kernel's centre)."""
    c = [k // 2 for k in kernel.shape]
    starts = [w.start for w in window]
    out = np.zeros([w.stop - w.start for w in window])
    for i in np.ndindex(out.shape):
        for j in np.ndindex(f.shape):
            at = tuple(ck + sk + ik - jk for ck, sk, ik, jk in zip(c, starts, i, j))
            out[i] += f[j] * kernel[at]
    return out


def _circular_convolution(f, row):
    """sum_j f[j] row[(x - j) mod p] at every node x, one node at a time."""
    p = f.shape[0]
    j = np.indices(f.shape)
    out = np.zeros(f.shape)
    for x in np.ndindex(f.shape):
        out[x] = np.sum(f * row[tuple((xk - jk) % p for xk, jk in zip(x, j))])
    return out


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_convolution_matches_direct_sum(n, periodic):
    """The operator's convolution against a direct double loop: the linear
    sum over the pair-weight table on an exterior grid, the circular sum
    over the periodized row on a torus.  On both the engine pads each axis
    to next_fast_len(2p - 1), the window plus the field."""
    from scipy.fft import next_fast_len
    rng = np.random.default_rng(11)
    h = 0.5 if n == 3 else 0.25
    g = Grid(n, h, 1.0, Periodic() if periodic else ConstantExterior([(-1.0, 1.0)] * n))
    spec = KernelSpec.fractional(0.5)
    op = get_operator(g, spec)
    f = rng.normal(size=g.shape)
    got = op.conv(f)
    p = g.nodes_per_axis
    assert op._engine.fshape == [next_fast_len(2 * p - 1, real=True)] * n
    if periodic:
        want = _circular_convolution(f, periodized_weight_row(g, spec))
    else:
        want = _direct_convolution(f, op.weights, (slice(0, p),) * n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_symbol_refuses_an_exterior_grid():
    g = Grid(1, 0.25, 2.0, ConstantExterior([(-1.0, 1.0)]))
    with pytest.raises(ConfigurationError):
        get_operator(g, KernelSpec.fractional(0.5)).symbol()


@pytest.mark.parametrize("n, modes", [(1, [(1,), (5,), (16,)]), (2, [(1, 0), (3, 2), (8, 5)])])
def test_symbol_is_the_eigenvalue_of_cosine_modes(n, modes):
    """apply(cos(2 pi k.j / p)) = symbol()[k] cos(2 pi k.j / p) on a torus of
    p = 32 (1D) or 16 (2D) nodes per axis.  A row read one node off in
    `weights` is a cyclic shift, which changes the real part of its
    spectrum."""
    g = Grid(n, 0.25, 4.0 if n == 1 else 2.0, Periodic())
    op = get_operator(g, KernelSpec.fractional_unit(0.6, n))
    sym = op.symbol()
    assert sym.shape == g.shape and np.all(sym >= 0.0)
    p = g.nodes_per_axis
    j = np.indices(g.shape)
    for k in modes:
        mode = np.cos(2.0 * np.pi * sum(kk * jj for kk, jj in zip(k, j)) / p)
        want = sym[k] * mode
        assert np.max(np.abs(op.apply(mode) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["unit", "perimeter", "general"])
@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_weight_table_is_the_kernel_over_the_cube(n, centered, kind):
    """`weights` on an exterior grid is h^n K(|h j|) over the whole cube
    |j_i| <= p - 1, bit for bit, with w(0) = 0 and the factor
    (1 + shell_correction) on the 2n offsets +-e_ax."""
    s = 0.5
    spec = {"unit": KernelSpec.fractional_unit(s, n),
            "perimeter": KernelSpec.perimeter(s),
            "general": KernelSpec.general(
                s, lambda r: (2.0 - s) * r ** (-(n + s)) * (1.0 + 0.2 * np.cos(np.log(r))),
                lam=0.8, Lam=4.0)}[kind]  # value pinching is sharp at 1.2
    h = 0.25
    g = Grid(n, h, 1.0 if n == 3 else 2.0, ConstantExterior([(-1.0, 1.0)] * n), centered)
    p = g.nodes_per_axis
    j = np.arange(1 - p, p)
    r = np.sqrt(sum(np.ix_(*[(h * j.astype(float)) ** 2] * n)))
    want = h ** n * kernel_on_radii(spec, r, n)
    near = sum(np.ix_(*[j * j] * n)) == 1
    assert near.sum() == 2 * n
    want[near] *= 1.0 + shell_correction(n, s)
    got = get_operator(g, spec).weights
    assert got[(p - 1,) * n] == 0.0
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kind", ["unit", "perimeter"])
@pytest.mark.parametrize("n, p", [(1, 16), (2, 8), (3, 4)])
def test_periodized_row_is_the_image_sum_node_by_node(n, p, kind):
    """Each torus-row entry k is h^n sum_m K(|h (k + p m)|) over the images
    |m_i| <= M (M = 128, 6, 3 in 1D, 2D, 3D), each k_i taken in (-p/2, p/2]
    with k_i = p/2 as +p/2, plus the far images' integral; the offsets
    +-e_ax carry (1 + shell_correction) on the base image m = 0 only, and
    the diagonal weighs 0.  Summed per node with math.fsum; 1e-13
    relative per entry.  (Under the symmetric image cube, k_i = -p/2 would
    give the same image radii: the p/2 rule fixes the summation order.)"""
    s, h = 0.5, 0.125
    spec = {"unit": KernelSpec.fractional_unit(s, n), "perimeter": KernelSpec.perimeter(s)}[kind]
    g = Grid(n, h, p * h / 2, Periodic())
    m_img = {1: 128, 2: 6, 3: 3}[n]
    images = np.indices((2 * m_img + 1,) * n).reshape(n, -1).T - m_img
    base = len(images) // 2
    assert not images[base].any()
    far = h ** n * far_kernel_mass(spec, n, (m_img + 0.5) * p * h) / (p * h) ** n
    want = np.zeros(g.shape)
    for k in np.ndindex(*g.shape):
        rep = np.array([i if i <= p // 2 else i - p for i in k])
        vals = h ** n * _oracle_kernel_on_radii(
            spec, h * np.sqrt(((rep + p * images) ** 2).sum(axis=1)), n)
        if np.abs(rep).sum() == 1:
            vals[base] *= 1.0 + shell_correction(n, s)
        want[k] = math.fsum(vals) + far
    want[(0,) * n] = 0.0
    got = periodized_weight_row(g, spec)
    assert got.shape == want.shape and got[(0,) * n] == 0.0
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_periodized_row_build_peak():
    """A 256^2 torus row (0.5 MB) is summed one image at a time: after the
    calibration pass (cached; 4.4 MB traced), the row's build peaks at
    <= 4 MB traced.  Summing all 169 images at once peaked at 200 MB."""
    s = 0.5
    shell_correction(2, s)
    spec = KernelSpec.fractional_unit(s, 2)
    g = Grid(2, 1 / 32, 4.0, Periodic())
    tracemalloc.start()
    try:
        periodized_weight_row(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("n, count", [(1, 20), (2, 8), (3, 3)])
def test_level_kernel_sums_the_sub_offsets_over_the_cube(n, count):
    """The 3h-cell kernel at the cell offset J is h^n sum_e K(|h (3 J + e)|)
    over the 3^n sub-offsets e in {-1, 0, 1}^n, here summed over the whole
    cube |J_i| <= count from meshgrids, not over an orthant; rtol 1e-14."""
    h = 0.125
    spec = KernelSpec.fractional_unit(0.5, n)
    J = 3.0 * np.arange(-count, count + 1)
    want = np.zeros((2 * count + 1,) * n)
    for e in np.ndindex(*(3,) * n):
        meshes = np.meshgrid(*[h * (J + i - 1) for i in e], indexing="ij")
        want += h ** n * _oracle_kernel_on_radii(spec, np.sqrt(sum(m * m for m in meshes)), n)
    got = _lattice._level_kernel(spec, n, h, 3, count)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("centered", [False, True])
def test_windowed_convolution_matches_direct_sum(centered):
    """An enlarged kernel read on a box window (P < N), the way the exterior
    moments use the engine; the kernel is odd, asymmetric and wider than
    the N + P - 1 offsets the window reaches."""
    from scipy.fft import next_fast_len
    rng = np.random.default_rng(12)
    m, mm, extra = 2, 8, int(centered)
    size, window = 2 * mm + extra, (slice(mm - m, mm + m + extra),) * 2
    kernel = rng.normal(size=(4 * mm + 1, 4 * mm - 1))
    field = rng.normal(size=(size, size))
    engine = FFTConvolver(kernel, field.shape, window)
    assert engine.fshape == [next_fast_len(size + 2 * m + extra - 1, real=True)] * 2
    got = engine(field)
    want = _direct_convolution(field, kernel, window)
    assert got.shape == (2 * m + extra,) * 2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        FFTConvolver(kernel[:5, :5], field.shape, window)


def _rfftn_convolution(kernel, f, window):
    """The unpruned overlap-save: irfftn(rfftn(f) * rfftn(kernel[reach]))
    over whole padded blocks, cropped to the window."""
    from scipy.fft import irfftn, next_fast_len, rfftn
    reach, crop, fshape = [], [], []
    for k, a, win in zip(kernel.shape, f.shape, window):
        lo, hi, _ = win.indices(a)
        reach.append(slice(k // 2 + lo - a + 1, k // 2 + hi))
        crop.append(slice(a - 1, a - 1 + hi - lo))
        fshape.append(next_fast_len(a + hi - lo - 1, real=True))
    spectrum = rfftn(kernel[tuple(reach)], fshape)
    return irfftn(rfftn(f, fshape) * spectrum, fshape)[tuple(crop)], fshape


_BOX = (slice(384, 640),) * 2  # the moments' box window on a 1024^2 lattice


@pytest.mark.parametrize("shape, window, fshape", [
    ((1620,), None, [3240]),
    ((1688,), (slice(300, 1200),), [2592]),
    ((1688,), None, [3375]),
    ((40, 41), None, [80, 81]),
    ((480, 23), (slice(80, 241), slice(0, 23)), [640, 45]),
    ((1024, 1024), _BOX, [1280, 1280]),
    ((12, 10, 14), None, [24, 20, 27]),
    ((20, 21, 20), (slice(8, 14), slice(3, 18), slice(8, 14)), [25, 36, 25]),
])
def test_engine_equals_unpruned_transforms_bit_for_bit(shape, window, fshape):
    """The pruned, in-place engine gives the whole-block rfftn/irfftn
    overlap-save bit for bit, in same mode and on strict windows, on odd
    and even transform lengths, for a dense field and for one that is zero
    on the window (as an exterior field is on the box)."""
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    kernel = rng.normal(size=[2 * a - 1 + 2 * (ax % 2) for ax, a in enumerate(shape)])
    window = window or tuple(slice(0, a) for a in shape)
    engine = FFTConvolver(kernel, shape, window)
    assert engine.fshape == fshape
    dense = rng.normal(size=shape)
    holed = dense.copy()
    holed[window] = 0.0
    for f in (dense, holed):
        want, want_fshape = _rfftn_convolution(kernel, f, window)
        got = engine(f)
        assert want_fshape == fshape
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_engine_call_holds_one_half_spectrum():
    """One moments-sized 2D call (1024^2 lattice, 256^2 box) allocates at
    most 1.2x its half-spectrum bytes plus the output: the c2c passes run in
    place in one work array, and the r2c and c2r lines go a block at a
    time.  A copy of the work array would exceed the bound."""
    rng = np.random.default_rng(5)
    engine = FFTConvolver(rng.normal(size=(1279, 1279)), (1024, 1024), _BOX)
    f = rng.normal(size=(1024, 1024))
    out = engine(f)  # one-time allocations (plans) are not the call's
    tracemalloc.start()
    try:
        engine(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * engine.spectrum.nbytes + out.nbytes


def test_zero_exterior_moments_equal_the_convolved_ones(monkeypatch):
    """A zero exterior skips the t1 and t2 convolutions, and a unit one the
    t2 convolution, on every frame level (one level at box 1, the h- and
    3h-cells at box 16); the moments are the ones convolving gives, and t0
    is unaffected."""
    calls = []
    call = FFTConvolver.__call__
    monkeypatch.setattr(FFTConvolver, "__call__",
                        lambda self, f: calls.append((self, f.shape)) or call(self, f))
    spec = KernelSpec.fractional(0.5)
    for box, levels in ((1.0, 1), (16.0, 2)):
        del calls[:]
        grids = [Grid(2, 0.25, box, ConstantExterior([(v, v)] * 2)) for v in (0.0, 1.0)]
        zero, unit = (_lattice.exterior_moments(g, spec) for g in grids)
        assert len(_lattice.frame_levels(grids[0])) == levels
        assert len(calls) == levels * (1 + 2)
        engine, shape = calls[0]
        assert not call(engine, np.zeros(shape)).any()
        for key in ("t1", "t2"):
            assert np.array_equal(zero[key], np.zeros(grids[0].shape))
            assert np.array_equal(unit[key], unit["t0"])
        assert np.array_equal(zero["t0"], unit["t0"])


def _pair_sum(op, u, mask_a, mask_b):
    """The three-convolution pair sum over x in A, xbar in B of
    |u(x) - u(xbar)|^2 w(x - xbar), through the operator's box convolution."""
    cb = mask_b.astype(float)
    inner = u * u * op.conv(cb) + op.conv(u * u * cb) - 2.0 * u * op.conv(u * cb)
    return float(inner[mask_a].sum())


def _energy_oracle(op, u, mask):
    """sobolev_energy from the two pair families A x box and A x (box - A),
    each convolved on the whole box, plus the tails."""
    g = op.grid
    box = np.ones(g.shape, dtype=bool)
    pair = _pair_sum(op, u, mask, box) + _pair_sum(op, u, mask, box & ~mask)
    mom = op.moments
    tail = (u * u * mom["t0"] - 2.0 * u * mom["t1"] + mom["t2"])[mask].sum()
    return 0.25 * g.cell_volume() * pair + 0.5 * g.cell_volume() * tail


@pytest.mark.parametrize("boundary", [ConstantExterior([(-1.0, 1.0)] * 2), None])
def test_sobolev_energy_reuses_box_convolutions_bit_identically(monkeypatch, boundary):
    """A radius sweep on one field computes conv(u) and conv(u^2) once and
    no other box convolution; each energy equals a cold operator's bit for
    bit and the six-convolution pair sum to round-off, and an in-place
    change of the field is seen."""
    g = Grid(2, 0.25, 2.0, boundary) if boundary else make_grid(2, 2.0, 0.25)
    spec = KernelSpec.fractional(0.5)
    op = get_operator(g, spec)
    op.colsum  # noqa: B018 - built once, before counting
    calls = []
    conv = op.conv
    monkeypatch.setattr(op, "conv", lambda f: calls.append(1) or conv(f))
    u = np.random.default_rng(13).normal(size=g.shape)
    r = np.sqrt(sum(c * c for c in np.meshgrid(*[g.axis_coords()] * 2, indexing="ij")))
    for sweep, radius in enumerate((0.5, 1.0, 1.5, 1.5)):
        if sweep == 3:
            u[0, 0] += 0.5
        mask = r < radius
        before = len(calls)
        got = op.sobolev_energy(u, mask)
        assert len(calls) - before == (0 if sweep in (1, 2) else 2)
        assert got == DiscreteOperator(g, spec).sobolev_energy(u, mask)
        monkeypatch.undo()
        want = _energy_oracle(op, u, mask)
        monkeypatch.setattr(op, "conv", lambda f: calls.append(1) or conv(f))
        assert abs(got - want) <= 1e-13 * abs(want)


def _region_masks(rng, g):
    """Balls (one touching the box's edge), random masks, an edge slab, a
    single node and the empty mask."""
    n, p = g.n, g.nodes_per_axis
    pts = g.coords()
    edge = np.zeros(g.shape, dtype=bool)
    edge[(slice(0, 2),) + (slice(None),) * (n - 1)] = True
    one = np.zeros(g.shape, dtype=bool)
    one[(p - 1,) * n] = True
    return [BallRegion((0.0,) * n, 0.6 * g.box_radius).mask(g),
            (np.sum((pts + 0.5 * g.box_radius) ** 2, axis=1)
             <= (0.5 * g.box_radius) ** 2).reshape(g.shape),
            rng.random(g.shape) < 0.3, rng.random(g.shape) < 0.8, edge, one,
            np.zeros(g.shape, dtype=bool)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("periodic", [False, True], ids=["exterior", "periodic"])
def test_region_sums_equal_the_three_convolution_oracle(n, periodic):
    """sobolev_energy, which sums A x A on A's bounding box, agrees to
    1e-13 (relative) with the pair sums of A against the box and against
    the box less A, each from three whole-box convolutions: on balls, on
    random masks (whose box spans the whole lattice, a whole period when
    periodic), on masks touching the box's edge and on one node; the empty
    mask has energy 0."""
    rng = np.random.default_rng(90 + n)
    box, h = {1: (4.0, 0.125), 2: (2.0, 0.125), 3: (1.0, 0.125)}[n]
    g = make_grid(n, box, h) if periodic else Grid(
        n, h, box, ConstantExterior([(-1.0, 0.5), (0.3, 1.0), (1.0, -1.0)][:n]))
    spec = KernelSpec.fractional_unit(0.6, n)
    u = np.tanh(g.coords() @ rng.normal(size=n) / box).reshape(g.shape) \
        + 0.1 * rng.normal(size=g.shape)
    for mask in _region_masks(rng, g):
        got = DiscreteOperator(g, spec).sobolev_energy(u, mask)
        want = _energy_oracle(get_operator(g, spec), u, mask)
        if not mask.any():
            assert got == want == 0.0
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_cold_region_takes_two_bounding_box_convolutions(monkeypatch):
    """A cold region on a known field costs two convolutions on its
    bounding box, by an engine of its own (the old pair sum took three on
    the whole box); a warm one costs none."""
    g = Grid(2, 0.125, 2.0, ConstantExterior([(-1.0, 1.0)] * 2))
    op = DiscreteOperator(g, KernelSpec.fractional(0.5))
    u = np.random.default_rng(4).normal(size=g.shape)
    empty = np.zeros(g.shape, dtype=bool)
    op.sobolev_energy(u, empty)              # the field's two box convolutions
    mask = BallRegion((0.5, -0.25), 0.75).mask(g)
    assert [w.stop - w.start for w in _lattice.bounding_box(mask)] == [13, 13]
    calls = _counted_engine_calls(monkeypatch)
    op.sobolev_energy(u, mask)
    assert [shape for _, shape in calls] == [(13, 13)] * 2
    assert calls[0][0] is calls[1][0] is not op._engine
    del calls[:]
    op.sobolev_energy(u, mask)
    op.sobolev_energy(u, empty)
    assert not calls


def test_periodic_free_twin_is_the_registry_operator():
    spec = KernelSpec.fractional(0.5)
    periodic = make_grid(2, 2.0, 0.25)
    free = Grid(2, 0.25, 2.0, ConstantExterior([(0.0, 0.0)] * 2))
    assert _free_twin(get_operator(periodic, spec)) is get_operator(free, spec)


def test_field_exteriors_differing_in_asymptote_get_their_own_operators():
    """The registry keys a field exterior on its callable and its declared
    asymptote: the asymptote changes the tail moments (here t1 by up to
    0.6), so sharing one operator would serve the second grid stale tails."""
    f = lambda p: np.tanh(p[:, 0] / 4.0)
    spec = KernelSpec.fractional(0.5)
    grids = [Grid(1, 0.125, 8.0, FieldExterior(f, a)) for a in ((-1.0, 1.0), (-0.5, 0.5))]
    ops = [get_operator(g, spec) for g in grids]
    assert ops[0] is not ops[1]
    for g, op in zip(grids, ops):
        assert np.array_equal(op.moments["t1"], exterior_moments(g, spec)["t1"])
    assert np.max(np.abs(ops[0].moments["t1"] - ops[1].moments["t1"])) > 0.5


def test_operator_registry_evicts_least_recently_used(monkeypatch):
    """Past 64 operators only the least recently used one is dropped."""
    registry = LRUCache(64)
    monkeypatch.setattr(_lattice, "_registry", registry)
    spec = KernelSpec.fractional(0.5)
    grids = [Grid(1, 1.0, float(k + 1)) for k in range(65)]
    keep = get_operator(grids[0], spec)
    for g in grids[1:]:
        get_operator(g, spec)
        assert get_operator(grids[0], spec) is keep
    assert len(registry) == 64 and registry.evictions == 1
    assert (registry.hits, registry.misses) == (64, 65)
    get_operator(grids[2], spec)             # still kept
    get_operator(grids[1], spec)             # evicted: built again
    assert (registry.hits, registry.misses) == (65, 66)
    assert get_operator(grids[0], spec) is keep


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cap=st.integers(1, 10),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 12)),
                    max_size=60))
def test_lru_cache_matches_an_ordered_dict_model(cap, ops):
    """Random put/get/re-put sequences, some sizes past the cap, against an
    ordered-dict model: the same hits, misses, evictions, lengths and
    values.  The total is the sum of the kept sizes and at most the cap, an
    eviction stops as soon as the rest fits, and the kept entries are the
    most recently used ones (puts and hits)."""
    cache = LRUCache(cap)
    model = OrderedDict()                    # key -> (value, size), least recent first
    hits = misses = evictions = 0
    used = []                                # keys by last put or hit, oldest first
    for step, (is_put, key, size) in enumerate(ops):
        if not is_put:
            got = cache.get(key)
            if key in model:
                hits += 1
                model.move_to_end(key)
                used.remove(key)
                used.append(key)
                assert got == model[key][0]
            else:
                misses += 1
                assert got is None
        else:
            cache.put(key, step, size)
            model.pop(key, None)
            if key in used:
                used.remove(key)
            if size <= cap:
                model[key] = (step, size)
                used.append(key)
            last = None
            while sum(sz for _, sz in model.values()) > cap:
                last = model.popitem(last=False)[1][1]
                evictions += 1
            assert last is None or cache.total + last > cap
        assert (cache.hits, cache.misses, cache.evictions) == (hits, misses, evictions)
        assert len(cache) == len(model)
        assert cache.total == sum(sz for _, sz in model.values()) <= cap
    kept = [k for k in range(8) if cache.get(k) is not None]
    assert sorted(kept) == sorted(model) == sorted(used[len(used) - len(kept):])
    assert all(cache.get(k) == model[k][0] for k in kept)


def test_transforms_run_with_the_callers_fft_workers(monkeypatch):
    """fracac sets no FFT worker count of its own: inside a caller's
    scipy.fft.set_workers(2), the engine's transforms and a periodic
    operator's see 2 workers, and give the same bits as with one."""
    import scipy.fft
    seen = []
    for name in ("rfft", "irfft", "fft", "ifft", "fftn", "ifftn"):
        def spy(*a, _f=getattr(scipy.fft, name), **k):
            seen.append(scipy.fft.get_workers())
            return _f(*a, **k)
        monkeypatch.setattr(scipy.fft, name, spy)
    rng = np.random.default_rng(0)
    kernel, f = rng.normal(size=(31, 31)), rng.normal(size=(16, 16))
    g = make_grid(2, 1.0, 0.125)
    op = DiscreteOperator(g, KernelSpec.fractional(0.5))
    with scipy.fft.set_workers(2):
        two = (FFTConvolver(kernel, f.shape)(f), op.conv(f))
    assert seen and set(seen) == {2}
    del seen[:]
    one = (FFTConvolver(kernel, f.shape)(f), op.conv(f))
    assert set(seen) == {1}
    assert all(np.array_equal(a, b) for a, b in zip(one, two))


@pytest.mark.parametrize("n", [1, 2])
def test_periodic_tails_are_zero_and_change_no_bit(n):
    """A periodic grid's moments are zero; apply equals the tail-free
    formula bit for bit, and sobolev_energy and fractional_perimeter, which
    sum on a bounding box, equal the tail-free whole-box sums to round-off."""
    g = make_grid(n, 2.0, 0.25)
    op = get_operator(g, KernelSpec.fractional(0.5))
    assert all(np.all(np.asarray(t) == 0.0) for t in op.moments.values())
    u = np.random.default_rng(30 + n).normal(size=g.shape)
    assert np.array_equal(op.apply(u), u * op.colsum - op.conv(u))

    region = BallRegion((0.0,) * n, 1.0)
    mask, box = region.mask(g), np.ones(g.shape, dtype=bool)
    pair = _pair_sum(op, u, mask, box) + _pair_sum(op, u, mask, box & ~mask)
    want = 0.25 * g.cell_volume() * pair
    assert abs(op.sobolev_energy(u, mask) - want) <= 1e-13 * want

    E = IndicatorSet(g, u > 0.0)
    chi, per = E.membership, get_operator(g, KernelSpec.perimeter(0.5))
    want = float(per.conv((~chi).astype(float))[chi & mask].sum())
    want += float(per.conv((chi & ~mask).astype(float))[mask & ~chi].sum())
    want *= g.cell_volume()
    assert abs(fractional_perimeter(E, region, 0.5) - want) <= 1e-13 * want


@pytest.mark.parametrize("n, boundary", [
    (1, ConstantExterior([(-1.0, 1.0)])),
    (1, FieldExterior(lambda p: np.tanh(p[:, 0]))),
    (2, ConstantExterior([(-1.0, 1.0)] * 2)),
    (2, FieldExterior(lambda p: np.tanh(p[:, 0] - p[:, 1]))),
], ids=["constant-1d", "field-1d", "constant-2d", "field-2d"])
def test_diagonal_is_colsum_plus_t0(n, boundary):
    op = get_operator(Grid(n, 0.25, 1.0, boundary), KernelSpec.fractional(0.5))
    assert np.array_equal(op.diagonal, op.colsum + op.moments["t0"])


def test_sobolev_energy_memo_reads_back_a_region_bit_identically(monkeypatch):
    """A repeated (field, region) pair is read back without a convolution and
    equals the cold sum; an in-place change of the field misses, and the
    memo keeps at most 64 regions."""
    g = Grid(2, 0.25, 2.0, ConstantExterior([(-1.0, 1.0)] * 2))
    spec = KernelSpec.fractional(0.5)
    op = DiscreteOperator(g, spec)           # cold memos of its own
    memo = op._energy_memo
    u = np.random.default_rng(17).normal(size=g.shape)
    masks = [BallRegion((0.0, 0.0), R).mask(g) for R in (0.5, 1.0, 1.5)]
    cold = [op.sobolev_energy(u, m) for m in masks]
    calls = []
    conv = op.conv
    monkeypatch.setattr(op, "conv", lambda f: calls.append(1) or conv(f))
    warm = [op.sobolev_energy(u.copy(), m) for m in masks[::-1]][::-1]
    assert warm == cold and not calls and (memo.hits, memo.misses) == (3, 3)
    u[3, 4] += 0.25
    changed = op.sobolev_energy(u, masks[1])
    assert len(calls) == 2 and changed != cold[1]
    assert len(memo) == 1 and memo.misses == 4
    assert DiscreteOperator(g, spec).sobolev_energy(u, masks[1]) == changed
    rng = np.random.default_rng(3)
    for _ in range(64 + 6):
        op.sobolev_energy(u, rng.random(g.shape) < 0.5)
        assert len(memo) <= 64
    assert len(memo) == 64 and memo.evictions == 7


@pytest.mark.parametrize("cross", [False, True])
def test_unit_square_exterior_reuses_t0_for_t2(monkeypatch, cross):
    """On a +-1 exterior (the half-plane and cross sets of the cone
    experiment, on their 128^2 grid) u_ext^2 is the exterior mask on both
    frame levels, so t2 is t0 bit for bit and its convolution is skipped on
    each level."""
    g = cone_set("cross" if cross else "halfplane").grid
    calls = []
    call = FFTConvolver.__call__
    monkeypatch.setattr(FFTConvolver, "__call__",
                        lambda self, f: calls.append(1) or call(self, f))
    mom = exterior_moments(g, KernelSpec.fractional(0.5))
    assert len(_lattice.frame_levels(g)) == 2 and len(calls) == 2 * 2
    assert np.array_equal(mom["t2"], mom["t0"]) and mom["t2"] is not mom["t0"]
    assert not np.array_equal(mom["t1"], mom["t0"])


_MIXED_SIDES = [(0.3, -0.7), (1.0, 0.5), (-0.2, 0.9)]


def oracle_exterior(name, n, layer):
    """One exterior of the moments oracle tests, by name, for dimension n."""
    if name == "embedded":
        direction = (0.6, 0.8) if n == 2 else (0.48, 0.6, 0.64)
        return embed_profile(layer, direction, make_grid(n, 1.0, 0.25)).grid.boundary
    return {
        "zero": lambda: ConstantExterior([(0.0, 0.0)] * n),
        "unit": lambda: ConstantExterior([(-1.0, 1.0)] * n),
        "mixed": lambda: ConstantExterior(_MIXED_SIDES[:n]),
        "halfplane": lambda: FieldExterior(lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0)),
        "cross": lambda: FieldExterior(lambda p: np.sign(p[:, 0] * p[:, 1] + 1e-300)),
    }[name]()


def frame_reach(g):
    """The frame's half-width in nodes: its outermost level's cells reach
    step * cells + step // 2."""
    step, cells, _ = _lattice.frame_levels(g)[-1]
    return step * cells + step // 2


def relative_moment_error(got, want):
    """max |t_k - oracle t_k| / max |oracle t_k| over k = 0, 1, 2 (a zero
    oracle moment must be matched exactly)."""
    return max(np.max(np.abs(got[k] - want[k])) / np.max(np.abs(want[k]))
               if want[k].any() else float(got[k].any()) for k in ("t0", "t1", "t2"))


@pytest.mark.parametrize("kernel", ["fractional", "fractional_unit", "general"])
@pytest.mark.parametrize("exterior", ["zero", "unit", "mixed", "halfplane", "cross", "embedded"])
@pytest.mark.parametrize("n,centered", [(2, False), (2, True), (3, False), (3, True)])
def test_exterior_moments_equal_the_enlarged_lattice_oracle(monkeypatch, n, centered,
                                                            exterior, kernel, layer_s05):
    """The two-level frame's t0, t1 and t2 lie within 1e-5 (relative to
    the largest oracle value) of the all-fine frame of the same reach, whose
    oracle materializes every coordinate.  The 2D grids (m = 16) carry 3h
    cells and measure at most 4.0e-6; the 3D ones (m = 4) keep h-cells all
    the way.  Sampling the exterior in blocks of 100 points changes no bit,
    and a +-1 exterior keeps t2 equal to t0."""
    h = 1.0 / 16.0 if n == 2 else 0.25
    g = Grid(n, h, 1.0, oracle_exterior(exterior, n, layer_s05), centered)
    spec = {"fractional": KernelSpec.fractional(0.7),
            "fractional_unit": KernelSpec.fractional_unit(0.4, n),
            "general": wobble_kernel(0.6, n)}[kernel]
    assert len(_lattice.frame_levels(g)) == (2 if n == 2 else 1)
    want = enlarged_lattice_moments(g, spec, frame_reach(g))
    whole = exterior_moments(g, spec)
    monkeypatch.setattr(_lattice, "_SAMPLE_BLOCK", 100)
    blocked = exterior_moments(g, spec)
    assert relative_moment_error(whole, want) <= 1e-5
    for key in ("t0", "t1", "t2"):
        assert np.array_equal(blocked[key], whole[key]), key
    assert np.array_equal(whole["t2"], whole["t0"]) == np.array_equal(want["t2"], want["t0"])


@pytest.mark.parametrize("name", ["scaling", "halfplane", "cross"])
def test_two_level_moments_match_the_oracle_on_the_pipeline_grids(name, quartic):
    """On the grids of `fracac scaling` (256^2, the zoomed layer) and of
    `fracac cone` (128^2, the +-1 half-plane and cross), the two-level
    moments lie within 1e-5 of the all-fine frame of the same reach; they
    measure 2.8e-7, 1.7e-6 and 3.0e-6."""
    if name == "scaling":
        from fracac import rescale_blowdown, solve_layer_1d
        phi = solve_layer_1d(0.5, 40.0, 0.05, tol=1e-8, W=quartic)
        g = embed_profile(rescale_blowdown(phi, 32.0), (1.0, 0.0),
                          make_grid(2, 16.0, 0.125)).grid
        spec = KernelSpec.fractional_unit(0.5, 2)
    else:
        g = Grid(2, 1.0 / 32.0, 2.0, oracle_exterior(name, 2, None))
        spec = KernelSpec.perimeter(0.5)
    assert [lv[0] for lv in _lattice.frame_levels(g)] == [1, 3]
    err = relative_moment_error(exterior_moments(g, spec),
                                enlarged_lattice_moments(g, spec, frame_reach(g)))
    assert err <= 1e-5


@pytest.mark.parametrize("n", [2, 3])
def test_exterior_moments_respect_the_reflection_symmetry(n):
    """On a centered grid whose exterior is odd in x_1 (tanh x_1 tanh x_2 in
    2D, sign x_1 in 3D), t1 is odd and t0 and t2 are even under x_1 -> -x_1
    to 1e-13 of their largest values, with the 3h-cells active: their tiling
    by cells centred on the nodes 3hk maps onto itself.  The same tiling
    shifted by one node fails here (t0 off by 2.5e-4 of its largest value)."""
    h, box = (1.0 / 16.0, 1.0) if n == 2 else (0.25, 4.0)
    odd = (lambda p: np.tanh(p[:, 0]) * np.tanh(p[:, 1])) if n == 2 else \
        (lambda p: np.sign(p[:, 0]))
    g = Grid(n, h, box, FieldExterior(odd), centered=True)
    assert [lv[0] for lv in _lattice.frame_levels(g)] == [1, 3]
    mom = exterior_moments(g, KernelSpec.fractional_unit(0.5, n))
    for key, sign in (("t0", 1.0), ("t1", -1.0), ("t2", 1.0)):
        t = mom[key]
        assert np.max(np.abs(t - sign * t[::-1])) <= 1e-13 * np.max(np.abs(t)), key


@pytest.mark.parametrize("exterior", ["mixed", "embedded"])
@pytest.mark.parametrize("n,bound", [(2, 2.5), (3, 6.0)])
def test_exterior_moments_peak_stays_a_few_lattices(n, bound, exterior, layer_s05):
    """One moments build's traced allocations peak below `bound` times the
    bytes of the enlarged (8m + 1)^n float64 lattice: 2.1x in 2D (m = 64,
    h- and 3h-cells) and 5.4x in 3D (m = 8, h-cells only), set in both by
    the kernel's spectrum and a call's workspace.  The exterior is sampled
    in blocks of 2^14 points, so the temporaries of the embedded layer's
    numpy interpolation stay below that; blocks of 2^16 points raised the
    2D embedded build to 3.9x.  The enlarged-lattice build peaked at
    5.9-6.9x and 7.4-8.1x."""
    h = 1.0 / 32.0 if n == 2 else 0.25
    g = Grid(n, h, 2.0, oracle_exterior(exterior, n, layer_s05), centered=True)
    spec = KernelSpec.fractional(0.5)
    exterior_moments(g, spec)  # one-time allocations are not the build's
    tracemalloc.start()
    try:
        exterior_moments(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (8 * g.half_count + 1) ** n * 8


def test_blocked_1d_departure_integrals_equal_unblocked(monkeypatch):
    """Summing the 1D departure trapezoids over blocks of a few nodes gives
    the one-block moments bit for bit."""
    g = Grid(1, 0.25, 4.0, FieldExterior(lambda p: np.tanh(p[:, 0] / 3.0), (-1.0, 1.0)))
    for spec in (KernelSpec.fractional(0.5), KernelSpec.fractional_unit(0.3, 1)):
        whole = exterior_moments(g, spec)
        monkeypatch.setattr(_lattice, "_ROW_BLOCK", 7 * 3000)
        assert len(_lattice.row_blocks(g.node_count, 3000)) == 5
        blocked = exterior_moments(g, spec)
        monkeypatch.undo()
        for key in ("t0", "t1", "t2"):
            assert np.array_equal(blocked[key], whole[key])
