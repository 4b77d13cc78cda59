"""The weighted harmonic extension: construction backends, the Neumann
trace, the half-ball energy, and the monotone scale-normalized quantity."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, kv

from fracac import (
    ConstantExterior,
    Grid,
    ScalarField,
    extend,
    extend_by_weighted_solve,
    extension_constant,
    extension_energy,
    halfspace_extension,
    make_grid,
    monotonicity_trace,
    neumann_trace_residual,
    rescale_blowdown,
    solve_layer_1d,
)
from fracac.errors import ConfigurationError


def test_extension_constant_reference_values():
    assert extension_constant(1.0) == pytest.approx(1.0)
    s = 0.5
    assert extension_constant(s) == pytest.approx(
        2.0 ** (s - 1.0) * gamma_fn(s / 2.0) / gamma_fn(1.0 - s / 2.0))


def test_constants_extend_exactly():
    # at 2048 nodes K_{s/2}(|xi| y) underflows on the top levels: phi must be 0 there
    for n, nodes in ((1, 64), (1, 2048), (2, 32)):
        g = make_grid(n, np.pi, 2.0 * np.pi / nodes)
        u = ScalarField(g, 0.37 * np.ones(g.shape))
        U = extend(u, 0.6, y_max=4.0)
        assert np.allclose(U.values, 0.37, atol=1e-12)


def test_maximum_principle(layer_s05):
    U = extend(layer_s05, 0.5, y_max=8.0)
    assert U.values.min() >= layer_s05.values.min() - 1e-12
    assert U.values.max() <= layer_s05.values.max() + 1e-12


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_maximum_principle_periodic_1d(s):
    """In 1D every periodic level is a positive unit-mass row (the extension
    of a unit spike), so rough data stays inside its range.  In 2D the rows
    have small negative lobes, so no maximum principle is claimed there."""
    g = make_grid(1, np.pi, 2.0 * np.pi / 128)
    spike = np.zeros(g.shape)
    spike[0] = 1.0
    rows = extend(ScalarField(g, spike), s, y_max=6.0).values[1:]
    assert np.all(rows.min(axis=1) / rows.max(axis=1) > 0.0)
    assert np.allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)

    u = ScalarField(g, np.random.default_rng(7).normal(size=g.shape))
    U = extend(u, s, y_max=6.0)
    assert U.values.min() >= u.values.min() - 1e-12
    assert U.values.max() <= u.values.max() + 1e-12


def test_mode_decay_matches_bessel_profile():
    """Separation of variables: each mode decays along the exact modified
    Bessel profile, in 1D and 2D.  The periodic route multiplies by that
    profile, so it matches to round-off; the finite-volume backend to 5e-3."""
    s = 0.5
    sig = s / 2.0
    for k in ((2.0,), (1.0, 2.0)):
        n = len(k)
        g = make_grid(n, np.pi, 2.0 * np.pi / (128 if n == 1 else 32))
        mode = np.cos(g.coords() @ np.asarray(k)).reshape(g.shape)
        u = ScalarField(g, mode)
        U1 = extend(u, s, y_max=4.0)
        U2 = extend_by_weighted_solve(u, s, y_max=4.0)
        i0 = (11,) * n
        for j in (2, 6, 12, 20):
            t = np.linalg.norm(k) * U1.y_levels[j]
            m_exact = 2.0 ** (1.0 - sig) / gamma_fn(sig) * t ** sig * kv(sig, t)
            assert U1.values[j][i0] / mode[i0] == pytest.approx(m_exact, rel=1e-12)
            assert U2.values[j][i0] / mode[i0] == pytest.approx(m_exact, rel=5e-3)


def test_backend_agreement_smooth_periodic():
    g = make_grid(1, np.pi, 2.0 * np.pi / 128)
    x = g.axis_coords()
    u = ScalarField(g, np.cos(x) + 0.3 * np.sin(2 * x))
    for s in (0.3, 0.5, 0.8):
        U1 = extend(u, s, y_max=6.0)
        U2 = extend_by_weighted_solve(u, s, y_max=6.0)
        gap = np.max(np.abs(U1.values - U2.values)) / np.max(np.abs(u.values))
        assert gap <= 0.01


def test_weighted_solve_matches_per_mode_thomas_loop():
    """The Thomas sweep runs across all modes at once; the per-mode loop it
    replaced is the reference, with the same arithmetic, so equal bits."""
    from scipy import fft as sfft
    s, y_max = 0.4, 2.0
    g = make_grid(2, np.pi, 2.0 * np.pi / 8)
    u = ScalarField(g, np.random.default_rng(5).normal(size=g.shape))
    U = extend_by_weighted_solve(u, s, y_max=y_max)

    pad = [U.y_levels[-1]]
    while pad[-1] < 4.0 * y_max:
        pad.append(pad[-1] * 1.15)
    yy = np.concatenate([U.y_levels, pad[1:]])
    K = len(yy)
    freqs = 2.0 * np.pi * sfft.fftfreq(g.nodes_per_axis, d=g.h)
    xi2 = sum(m * m for m in np.meshgrid(freqs, freqs, indexing="ij")).ravel()
    fu = sfft.fftn(u.values).ravel()
    yhalf = 0.5 * (yy[1:] + yy[:-1])
    a = s / (yy[1:] ** s - yy[:-1] ** s)
    cellw = (yhalf[1:] ** (2.0 - s) - yhalf[:-1] ** (2.0 - s)) / (2.0 - s)
    n_int = K - 2
    modes = np.zeros((K, xi2.size), dtype=complex)
    modes[0] = fu
    for idx in range(xi2.size):
        diag = a[:-1] + a[1:] + xi2[idx] * cellw
        lower = -a[1:-1]
        rhs = np.zeros(n_int, dtype=complex)
        rhs[0] = a[0] * fu[idx]
        cp = np.empty(n_int)
        dp = np.empty(n_int, dtype=complex)
        cp[0] = lower[0] / diag[0]
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
    ref = np.array([sfft.ifftn(modes[j].reshape(g.shape)).real
                    for j in range(len(U.y_levels))])
    assert np.array_equal(U.values, ref)


def test_backend_agreement_2d_above_grid_scale():
    g = make_grid(2, np.pi, 2.0 * np.pi / 32)
    pts = g.coords()
    u = ScalarField(g, (np.cos(pts[:, 0]) * np.cos(pts[:, 1])).reshape(g.shape))
    U1 = extend(u, 0.5, y_max=3.0)
    U2 = extend_by_weighted_solve(u, 0.5, y_max=3.0)
    sel = U1.y_levels >= 2.0 * g.h
    gap = np.max(np.abs(U1.values[sel] - U2.values[sel]))
    assert gap <= 0.01


def test_resolution_flag_set_for_rough_data():
    g = Grid(1, 0.25, 8.0, ConstantExterior([(-1.0, 1.0)]))
    x = g.axis_coords()
    u = ScalarField(g, np.sign(x + 1e-300))
    U = extend(u, 0.5, y_max=4.0)
    assert U.resolution_flag


def test_neumann_trace_on_layer(layer_s05, quartic):
    U = extend(layer_s05, 0.5, y_max=8.0)
    res = neumann_trace_residual(U, quartic)
    x = layer_s05.grid.axis_coords()
    assert np.max(res[np.abs(x) <= 20.0]) <= 0.05


def test_neumann_trace_constant_well(quartic):
    g = Grid(1, 0.1, 20.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    U = extend(u, 0.5, y_max=4.0)
    res_abs = neumann_trace_residual(U, quartic)
    assert np.max(res_abs) <= 1e-10


def test_neumann_trace_resolution_study(quartic):
    """Halving the smallest level at least halves the extrapolated-trace
    residual while the level truncation dominates (it floors at the
    boundary-grid scale eventually)."""
    phi = __import__("fracac").solve_layer_1d(0.5, 20.0, 0.1, tol=1e-9)
    x = phi.grid.axis_coords()
    inner = np.abs(x) <= 10.0
    h = phi.grid.h
    res = []
    for ymin_f, ratio in ((4.0, 1.5), (2.0, 1.25), (1.0, 1.15)):
        lv = np.concatenate([[0.0], ymin_f * h * ratio ** np.arange(40)])
        lv = lv[lv <= 16.0]
        U = extend(phi, 0.5, y_max=lv[-1], levels=lv)
        res.append(float(np.max(neumann_trace_residual(U, quartic)[inner])))
    assert res[1] <= 0.5 * res[0]
    assert res[2] <= 0.5 * res[1]


def test_extension_energy_wells_zero(quartic):
    g = Grid(1, 0.1, 20.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    U = extend(u, 0.5, y_max=18.0)
    assert extension_energy(U, 8.0, quartic) <= 1e-10


def test_halfspace_energy_scales_with_radius(quartic):
    g = Grid(1, 0.05, 20.0, ConstantExterior([(-1.0, 1.0)]), centered=True)
    U = halfspace_extension(0.5, g, 18.0)
    radii = np.array([2.0, 4.0, 8.0, 16.0])
    vals = np.array([extension_energy(U, R, quartic) for R in radii])
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0 - 0.5, abs=0.02)


def test_halfspace_phi_constant_and_matches_angular_oracle(quartic):
    s = 0.5
    g = Grid(1, 0.05, 40.0, ConstantExterior([(-1.0, 1.0)]), centered=True)
    U = halfspace_extension(s, g, 18.0)
    tr = monotonicity_trace(U, [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0], quartic)
    spread = (tr.phi_values.max() - tr.phi_values.min()) / tr.phi_values.mean()
    assert spread <= 0.01
    assert tr.violations == []

    # independent oracle: the scale-free angular integral of the exact cone
    d_s = extension_constant(s)
    M = np.sqrt(np.pi) * gamma_fn(s / 2.0) / gamma_fn((1.0 + s) / 2.0)

    def integrand(th):
        c = np.cos(th) / np.sin(th)
        q = (1.0 + c * c) ** (-(1.0 + s) / 2.0)
        return (2.0 / M) ** 2 * q * q * (1.0 + c * c) * np.sin(th) ** (-1.0 - s)

    oracle = d_s / 2.0 * 2.0 * quad(integrand, 0.0, np.pi / 2.0, limit=200)[0] / (1.0 - s)
    assert tr.phi_values.mean() == pytest.approx(oracle, rel=0.02)


def test_layer_phi_nondecreasing(layer_s05, quartic):
    U = extend(layer_s05, 0.5, y_max=18.0)
    tr = monotonicity_trace(U, [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0], quartic)
    assert tr.violations == []
    assert np.all(np.diff(tr.phi_values) > 0)


def test_non_critical_data_reports_hypothesis_flag(quartic):
    g = Grid(1, 0.1, 20.0, ConstantExterior([(0.0, 0.0)]))
    rng = np.random.default_rng(0)
    x = g.axis_coords()
    u = ScalarField(g, 0.5 * np.exp(-x ** 2) + 0.05 * rng.normal(size=x.size))
    U = extend(u, 0.5, y_max=16.0)
    tr = monotonicity_trace(U, [2.0, 4.0, 8.0], quartic, hypothesis_ok=False)
    assert not tr.hypothesis_ok


def test_extension_rejects_2d_exterior():
    g = Grid(2, 0.25, 2.0, ConstantExterior([(1.0, 1.0)] * 2))
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ConfigurationError):
        extend(u, 0.5, y_max=2.0)


def test_monotonicity_trace_validates_radii(layer_s05, quartic):
    U = extend(layer_s05, 0.5, y_max=8.0)
    with pytest.raises(ConfigurationError):
        monotonicity_trace(U, [4.0, 2.0], quartic)


def test_extension_of_layer_monotone_per_level(layer_s05):
    U = extend(layer_s05, 0.5, y_max=8.0)
    for j in range(len(U.y_levels)):
        assert np.all(np.diff(U.values[j]) > -1e-12)


FROZEN_TRACE_COMPARISON_CONSTANT = 0.05


def test_extension_dirichlet_controlled_by_boundary_seminorm(layer_s05, quartic):
    """The half-ball weighted Dirichlet energy stays below a frozen multiple
    of the localized interaction double integral of the boundary data
    (constant calibrated once across the field zoo, then stable)."""
    from fracac import (BallRegion, ConstantExterior, Grid, KernelSpec,
                        ScalarField, sobolev_energy)
    from fracac.fields import evaluate_field
    s = 0.5

    def dirichlet_part(U, R):
        tot = extension_energy(U, R, quartic)
        x = U.base.grid.axis_coords()
        pot = U.base.grid.h * quartic.w(U.values[0][np.abs(x) <= R]).sum()
        return tot - pot

    gs = Grid(1, 0.05, 40.0, ConstantExterior([(-1.0, 1.0)]), centered=True)
    shifted = ScalarField(gs, evaluate_field(layer_s05, gs.coords() - 6.0).reshape(gs.shape))
    zoo = [extend(layer_s05, s, y_max=18.0),
           halfspace_extension(s, layer_s05.grid, 18.0),
           extend(shifted, s, y_max=18.0)]
    for U in zoo:
        for R in (4.0, 8.0):
            lhs = dirichlet_part(U, R)
            rhs = 4.0 * sobolev_energy(U.base, BallRegion((0.0,), 2 * R),
                                       KernelSpec.perimeter(s))
            assert lhs <= FROZEN_TRACE_COMPARISON_CONSTANT * rhs


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_layer_phi_monotone_across_orders(s, quartic):
    from fracac import solve_layer_1d
    phi = solve_layer_1d(s, 40.0, 0.05, tol=1e-9)
    U = extend(phi, s, y_max=18.0)
    tr = monotonicity_trace(U, [2.0, 4.0, 8.0, 16.0], quartic)
    assert tr.violations == []


def test_extend_field_exterior_without_asymptote():
    """A zoomed layer has a field exterior with no declared asymptote; its
    limits are probed far from the box and the levels stay in [-1, 1]."""
    zoomed = rescale_blowdown(solve_layer_1d(0.5, 20, 0.1), 2.0)
    assert zoomed.grid.boundary.asymptote is None
    U = extend(zoomed, 0.5, y_max=4.0)
    assert np.all(U.values >= -1.0) and np.all(U.values <= 1.0)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0, -0.5])
@pytest.mark.parametrize("backend", [extend, extend_by_weighted_solve])
def test_extension_rejects_order_outside_unit_interval(backend, s):
    g = make_grid(1, np.pi, 2.0 * np.pi / 16)
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ConfigurationError):
        backend(u, s, y_max=2.0)


@pytest.mark.parametrize("levels", [
    [0.5],                      # one positive level
    [0.0, 0.5],                 # one positive level after the leading 0
    [],
    [0.0, 1.0, 0.5],            # decreasing
    [0.5, 0.5, 1.0],            # repeated
    [-0.5, 0.5, 1.0],           # negative
    [0.0, 0.0, 1.0],            # a second zero
])
@pytest.mark.parametrize("backend", [extend, extend_by_weighted_solve])
def test_extension_rejects_bad_levels(backend, levels):
    g = make_grid(1, np.pi, 2.0 * np.pi / 16)
    u = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ConfigurationError):
        backend(u, 0.5, y_max=2.0, levels=levels)


def test_extension_accepts_levels_with_or_without_leading_zero():
    g = make_grid(1, np.pi, 2.0 * np.pi / 16)
    u = ScalarField(g, np.cos(g.axis_coords()))
    a = extend(u, 0.5, y_max=2.0, levels=[0.5, 1.0])
    b = extend(u, 0.5, y_max=2.0, levels=[0.0, 0.5, 1.0])
    assert np.array_equal(a.y_levels, [0.0, 0.5, 1.0])
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("zoom, tol_x", [
    (None, 2e-4),       # ConstantExterior
    (0.5, 2e-4),        # FieldExterior: the layer's tail continues past the box
])
def test_grad_eval_matches_level_differences(layer_s05, zoom, tol_x):
    """At a resolved height the closed-form gradient matches central
    differences of the levels: d/dy across levels y -+ d, d/dx between
    neighbouring nodes (its O(h^2) error sets tol_x)."""
    u = layer_s05 if zoom is None else rescale_blowdown(layer_s05, zoom)
    x = u.grid.axis_coords()
    y, d = 1.0, 1e-3
    U = extend(u, 0.5, y_max=y + d, levels=[y - d, y, y + d])
    xm = 0.5 * (x[1:] + x[:-1])
    ux, _ = U.grad_eval(xm, np.full(xm.shape, y))
    _, uy = U.grad_eval(x, np.full(x.shape, y))
    scale = np.max(np.abs(ux))
    assert np.max(np.abs(ux - np.diff(U.values[2]) / u.grid.h)) <= tol_x * scale
    assert np.max(np.abs(uy - (U.values[3] - U.values[1]) / (2.0 * d))) <= 1e-5 * scale


def test_halfspace_grad_eval_matches_closed_form_differences():
    from fracac.extension import _kernel_cdf_tail, _kernel_total_mass
    s = 0.5
    g = Grid(1, 0.05, 20.0, ConstantExterior([(-1.0, 1.0)]), centered=True)
    U = halfspace_extension(s, g, 18.0)

    def u_exact(px, py):
        return 1.0 - 2.0 * _kernel_cdf_tail(px / py, s) / _kernel_total_mass(s)

    px = np.linspace(-3.0, 3.0, 61)
    py = np.full(px.shape, 0.7)
    d = 1e-5
    ux, uy = U.grad_eval(px, py)
    assert np.allclose(ux, (u_exact(px + d, py) - u_exact(px - d, py)) / (2 * d),
                       rtol=0.0, atol=1e-7)
    assert np.allclose(uy, (u_exact(px, py + d) - u_exact(px, py - d)) / (2 * d),
                       rtol=0.0, atol=1e-7)
