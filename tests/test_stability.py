"""Quadratic forms, Rayleigh minimization, the gradient test, and
perimeter stability under flows."""

import numpy as np
import pytest

from fracac import (
    BallRegion,
    ConstantExterior,
    FieldExterior,
    Grid,
    IndicatorSet,
    KernelSpec,
    ScalarField,
    VectorFieldSpec,
    flow_map,
    gradient_test_inequality,
    make_grid,
    min_rayleigh,
    perimeter_stability_quotients,
    second_variation,
)
from fracac.cli import radial_bump_vector_field
from fracac.errors import ConfigurationError
from fracac._lattice import get_operator


def compact_field(grid, rng, radius):
    mask = BallRegion((0.0,) * grid.n, radius).mask(grid)
    vals = np.zeros(grid.node_count)
    vals[mask.ravel()] = rng.normal(size=int(mask.sum()))
    return ScalarField(grid, vals.reshape(grid.shape))


def test_quadratic_form_zero_and_homogeneity(quartic):
    rng = np.random.default_rng(0)
    g = Grid(1, 0.125, 8.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 1)
    zero = ScalarField(g, np.zeros(g.shape))
    assert second_variation(u, zero, spec, quartic) == 0.0
    xi = compact_field(g, rng, 4.0)
    q1 = second_variation(u, xi, spec, quartic)
    q2 = second_variation(u, ScalarField(g, 2.0 * xi.values), spec, quartic)
    assert q2 == pytest.approx(4.0 * q1, rel=1e-12)


def test_quadratic_form_parallelogram(quartic):
    rng = np.random.default_rng(1)
    g = Grid(1, 0.125, 8.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 1)
    xi = compact_field(g, rng, 4.0)
    eta = compact_field(g, rng, 4.0)
    qs = second_variation(u, ScalarField(g, xi.values + eta.values), spec, quartic)
    qd = second_variation(u, ScalarField(g, xi.values - eta.values), spec, quartic)
    q1 = second_variation(u, xi, spec, quartic)
    q2 = second_variation(u, eta, spec, quartic)
    assert qs + qd == pytest.approx(2.0 * q1 + 2.0 * q2, rel=1e-10)


def test_second_variation_upper_well_lower_bound(quartic):
    rng = np.random.default_rng(2)
    g = Grid(1, 0.125, 8.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 1)
    for _ in range(10):
        xi = compact_field(g, rng, 6.0)
        q = second_variation(u, xi, spec, quartic)
        norm2 = g.cell_volume() * float((xi.values ** 2).sum())
        assert q >= 2.0 * norm2 - 1e-10


def test_min_rayleigh_constant_wells(quartic):
    g = Grid(1, 0.25, 8.0, ConstantExterior([(1.0, 1.0)]), centered=True)
    u = ScalarField(g, np.ones(g.shape))
    rep = min_rayleigh(u, BallRegion((0.0,), 7.0), KernelSpec.fractional_unit(0.5, 1), quartic)
    assert rep.min_rayleigh >= 2.0 - 1e-6


def test_min_rayleigh_middle_well_unstable_with_dense_oracle(quartic):
    g = Grid(1, 0.25, 8.0, ConstantExterior([(0.0, 0.0)]), centered=True)
    u = ScalarField(g, np.zeros(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 1)
    region = BallRegion((0.0,), 7.0)
    rep = min_rayleigh(u, region, spec, quartic)
    assert rep.min_rayleigh <= -0.5

    # dense eigensolve oracle on the same coarse grid
    op = get_operator(g, spec)
    A = op.dense_matrix() + np.diag(quartic.wpp(u.values))
    idx = np.flatnonzero(region.mask(g).ravel())
    lam = np.linalg.eigvalsh(A[np.ix_(idx, idx)])[0]
    assert rep.min_rayleigh == pytest.approx(lam, abs=1e-8)


def test_min_rayleigh_witness_reproducible(quartic, layer_s05, spec1_unit):
    rep = min_rayleigh(layer_s05, BallRegion((0.0,), 20.0), spec1_unit, quartic)
    norm2 = layer_s05.grid.cell_volume() * float((rep.witness.values ** 2).sum())
    again = second_variation(layer_s05, rep.witness, spec1_unit, quartic) / norm2
    assert again == pytest.approx(rep.min_rayleigh, abs=1e-10)
    # witness supported in the region
    outside = ~rep.region.mask(layer_s05.grid)
    assert np.all(rep.witness.values[outside] == 0.0)


def test_min_rayleigh_monotone_in_region(quartic, layer_s05, spec1_unit):
    vals = [min_rayleigh(layer_s05, BallRegion((0.0,), R), spec1_unit, quartic).min_rayleigh
            for R in (8.0, 12.0, 16.0)]
    assert vals[0] >= vals[1] - 1e-10
    assert vals[1] >= vals[2] - 1e-10


@pytest.mark.filterwarnings("ignore:Exited")
def test_min_rayleigh_2d_reports_real_convergence(quartic):
    g = make_grid(2, 4.0, 0.25)
    u = ScalarField(g, np.tanh(g.coords()[:, 0]).reshape(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 2)
    region = BallRegion((0.0, 0.0), 2.0)
    short = min_rayleigh(u, region, spec, quartic, iterations=2)
    assert short.converged is False and short.iterations <= 2
    full = min_rayleigh(u, region, spec, quartic)
    assert full.converged is True and full.iterations < 300


@pytest.mark.filterwarnings("ignore:The problem size")
def test_min_rayleigh_2d_small_region_dense_oracle(quartic):
    # 5 nodes: fewer than lobpcg needs for 3 block vectors, so it solves densely
    g = make_grid(2, 4.0, 0.25)
    u = ScalarField(g, np.tanh(g.coords()[:, 0]).reshape(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 2)
    region = BallRegion((0.0, 0.0), 0.3)
    idx = np.flatnonzero(region.mask(g).ravel())
    assert len(idx) == 5
    rep = min_rayleigh(u, region, spec, quartic)
    assert rep.converged is True and rep.iterations == 0

    op = get_operator(g, spec)
    diag = quartic.wpp(u.values)
    cols = []
    for i in idx:
        e = np.zeros(g.node_count)
        e[i] = 1.0
        cols.append(op.stability_apply(e.reshape(g.shape), diag).ravel()[idx])
    lam = np.linalg.eigvalsh(np.array(cols).T)[0]
    assert rep.min_rayleigh == pytest.approx(lam, rel=1e-9, abs=1e-9)


def test_stable_solution_nonnegative_on_sampled_perturbations(quartic, layer_s05, spec1_unit):
    rng = np.random.default_rng(5)
    rep = min_rayleigh(layer_s05, BallRegion((0.0,), 20.0), spec1_unit, quartic)
    tol = max(abs(rep.min_rayleigh), 1e-3)
    g = layer_s05.grid
    for _ in range(10):
        xi = compact_field(g, rng, 15.0)
        q = second_variation(layer_s05, xi, spec1_unit, quartic)
        norm2 = g.cell_volume() * float((xi.values ** 2).sum())
        assert q >= -tol * norm2


def test_gradient_test_embedded_layer_alignment_vanishes(embedded_layer, quartic, spec2_unit):
    rep = gradient_test_inequality(embedded_layer, spec2_unit, quartic,
                                   residual_bound=1.0)
    assert abs(rep["i2"]) <= 1e-10 * max(1.0, rep["i3"])
    assert rep["i3"] > 0.0


def test_gradient_test_constant_field(quartic, spec2_unit, grid2d):
    g = Grid(2, grid2d.h, grid2d.box_radius, ConstantExterior([(1.0, 1.0)] * 2))
    u = ScalarField(g, np.ones(g.shape))
    rep = gradient_test_inequality(u, spec2_unit, quartic, residual_bound=1.0)
    assert rep["i2"] == 0.0 and rep["i3"] == 0.0


def test_gradient_test_requires_convergence(quartic, spec2_unit, grid2d):
    rng = np.random.default_rng(0)
    u = ScalarField(grid2d, np.clip(rng.normal(size=grid2d.shape), -1, 1))
    with pytest.raises(ConfigurationError):
        gradient_test_inequality(u, spec2_unit, quartic, residual_bound=1e-4)


def halfplane_set(h=1.0 / 32.0, box=2.0):
    ext = FieldExterior(lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0))
    g = Grid(2, h, box, ext)
    pts = g.coords()
    return IndicatorSet(g, (pts[:, 1] <= 0.0).reshape(g.shape))


def test_flow_map_identity_and_translation():
    E = halfplane_set()
    zero = VectorFieldSpec(lambda p: np.zeros_like(p), support_radius=10.0)
    assert np.array_equal(flow_map(E, zero, 0.1).membership, E.membership)
    # constant horizontal field: tangential to the boundary, set invariant
    Xh = VectorFieldSpec(lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1),
                         support_radius=10.0)
    assert np.array_equal(flow_map(E, Xh, 0.12).membership, E.membership)
    # constant vertical field on its support core translates the boundary
    Xv = VectorFieldSpec(lambda p: np.stack([np.zeros(len(p)), np.ones(len(p))], axis=1),
                         support_radius=10.0)
    t = 4 * E.grid.h
    Et = flow_map(E, Xv, t)
    pts = E.grid.coords()
    inner = np.abs(pts).max(axis=1) <= 1.0
    expect = (pts[:, 1] <= t + 1e-9)
    assert np.array_equal(Et.membership.ravel()[inner], expect[inner])


def test_flow_map_symmetric_difference_slope_matches_boundary_integral():
    E = halfplane_set()
    g = E.grid

    def bump(p):
        amp = np.exp(-np.sum(p ** 2, axis=1))
        return np.stack([np.zeros(len(p)), amp], axis=1)

    X = VectorFieldSpec(bump, support_radius=1.5)
    region = np.abs(g.coords()).max(axis=1) <= 1.4
    slopes = []
    for t in (0.15, 0.3):
        Et = flow_map(E, X, t)
        diff = (Et.membership.ravel() != E.membership.ravel()) & region
        slopes.append(g.cell_volume() * diff.sum() / t)
    # oracle: integral over the flat boundary of |X . normal|
    from scipy.integrate import quad
    oracle = quad(lambda x1: np.exp(-x1 ** 2), -1.4, 1.4)[0]
    for sl in slopes:
        assert sl == pytest.approx(oracle, rel=0.25)


def test_quotients_translation_field_vanish():
    E = halfplane_set()
    Xh = VectorFieldSpec(lambda p: np.stack([np.exp(-np.sum(p ** 2, axis=1)),
                                             np.zeros(len(p))], axis=1),
                         support_radius=0.95)
    q = perimeter_stability_quotients(E, Xh, BallRegion((0.0, 0.0), 1.0), 0.9,
                                      (0.04, 0.08))
    assert max(abs(v) for v in q["q"]) <= 1e-9


def test_quotients_sign_flip_invariance():
    E = halfplane_set()
    X = radial_bump_vector_field(7)
    Xm = VectorFieldSpec(lambda p, _X=X: -_X(p), support_radius=X.support_radius)
    region = BallRegion((0.0, 0.0), 1.0)
    qa = perimeter_stability_quotients(E, X, region, 0.9, (0.08,))
    qb = perimeter_stability_quotients(E, Xm, region, 0.9, (0.08,))
    assert qa["q"][0] == pytest.approx(qb["q"][0], rel=1e-12)


def test_halfplane_quotients_nonnegative_within_bars():
    E = halfplane_set()
    region = BallRegion((0.0, 0.0), 1.0)
    for seed in range(4):
        X = radial_bump_vector_field(seed)
        q = perimeter_stability_quotients(E, X, region, 0.9, (0.08, 0.16))
        for v, e in zip(q["q"], q["error_bar"]):
            assert v >= -e


def test_flow_map_degeneracy_guard():
    """Smooth flows are diffeomorphisms, but an under-resolved discrete
    integration can fold; the sampled-Jacobian guard catches it."""
    from fracac.errors import FlowError
    E = halfplane_set()
    X = VectorFieldSpec(lambda p: np.stack(
        [30.0 * np.sin(8.0 * p[:, 0]), np.zeros(len(p))], axis=1),
        support_radius=3.0)
    with pytest.raises(FlowError):
        flow_map(E, X, 0.4)


@pytest.mark.parametrize("s,window", [(0.3, 5e-3), (0.7, 1e-3)])
def test_layer_soft_mode_across_orders(s, window, quartic):
    """The soft translation direction pins the bottom of the spectrum near
    zero at every order; the discrete shift grows as the tails fatten."""
    from fracac import solve_layer_1d
    phi = solve_layer_1d(s, 40.0, 0.05, tol=1e-9)
    rep = min_rayleigh(phi, BallRegion((0.0,), 20.0),
                       KernelSpec.fractional_unit(s, 1), quartic)
    assert abs(rep.min_rayleigh) <= window
