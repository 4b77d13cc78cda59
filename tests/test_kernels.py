"""Kernel values, the two operator routes, and the structural invariants
shared by every kernel in the admissible class."""

import numpy as np
import pytest

from fracac import (
    ConstantExterior,
    Grid,
    KernelSpec,
    ScalarField,
    apply_laplacian,
    apply_quadrature,
    apply_spectral,
    kernel_value,
    make_grid,
    operator_consistency,
)
from fracac.errors import ConfigurationError, SingularityError
from fracac.kernels import kernel_bounds_audit
from fracac import _lattice
from fracac._lattice import (
    FFTConvolver,
    _free_twin,
    continuum_symbol_constant,
    get_operator,
    shell_correction,
    symbol_constant,
)

from conftest import mode_field


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
    from fracac import FieldExterior
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

def test_free_convolution_matches_fftconvolve_bitwise():
    """The engine pads and crops like scipy's fftconvolve, so the free-space
    operator and the enlarged exterior-moment kernel agree bit for bit."""
    from scipy import signal
    rng = np.random.default_rng(11)
    g = Grid(2, 0.25, 4.0, ConstantExterior([(-1.0, 1.0)] * 2))
    op = get_operator(g, KernelSpec.fractional(0.5))
    f = rng.normal(size=g.shape)
    assert np.array_equal(op.conv_free(f), signal.fftconvolve(f, op.weights, mode="same"))
    big = rng.normal(size=(65, 65))
    field = rng.normal(size=(32, 32))
    assert np.array_equal(FFTConvolver(big, field.shape)(field),
                          signal.fftconvolve(field, big, mode="same"))


def test_periodic_free_twin_is_the_registry_operator():
    spec = KernelSpec.fractional(0.5)
    periodic = make_grid(2, 2.0, 0.25)
    free = Grid(2, 0.25, 2.0, ConstantExterior([(0.0, 0.0)] * 2))
    assert _free_twin(get_operator(periodic, spec)) is get_operator(free, spec)


def test_operator_registry_evicts_least_recently_used():
    """Past 64 operators only the least recently used one is dropped."""
    saved = _lattice._registry.copy()
    _lattice._registry.clear()
    try:
        spec = KernelSpec.fractional(0.5)
        grids = [Grid(1, 1.0, float(k + 1)) for k in range(65)]
        keep = get_operator(grids[0], spec)
        for g in grids[1:]:
            get_operator(g, spec)
            assert get_operator(grids[0], spec) is keep
        assert len(_lattice._registry) == 64
        assert (grids[1].key(), spec.key()) not in _lattice._registry
        assert get_operator(grids[0], spec) is keep
    finally:
        _lattice._registry.clear()
        _lattice._registry.update(saved)
