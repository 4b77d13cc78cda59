"""Potentials, localized energies, fractional perimeter, and the
domain-variation machinery."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracac import (
    BallRegion,
    ConstantExterior,
    FieldExterior,
    Grid,
    IndicatorSet,
    KernelSpec,
    Potential,
    ScalarField,
    VariationMap,
    domain_variation,
    fractional_perimeter,
    maxmin_residual,
    perimeter_identity_residual,
    potential_energy,
    sobolev_energy,
    translation_comparison,
)
from fracac.energies import EnergyEstimate, energy_breakdown, cutoff_profile
from fracac.errors import ConfigurationError
from fracac.fields import gradient_l1_norm


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_quartic_structure():
    W = Potential.quartic()
    u = np.linspace(-1, 1, 101)
    assert np.allclose(W.w(u), 0.25 * (1 - u ** 2) ** 2)
    assert np.allclose(W.wp(u), u ** 3 - u)
    assert np.allclose(W.wpp(u), 3 * u ** 2 - 1)
    assert W.w(np.array([1.0]))[0] == 0.0 and W.w(np.array([-1.0]))[0] == 0.0


def test_quartic_curvature_range_near_well():
    # W'' stays within [1/2, 2] on the outer well interval
    W = Potential.quartic()
    t = np.linspace(1.0 - W.c0, 1.0, 500)
    vals = W.wpp(t)
    assert vals.min() >= 0.5 - 1e-12 and vals.max() <= 2.0 + 1e-12


def test_peierls_nabarro_passes_audit():
    W = Potential.peierls_nabarro()
    assert W.nu0 > 0 and W.nu1 > 0


def test_custom_potential_audit_rejects_single_well():
    with pytest.raises(ConfigurationError):
        Potential.custom(lambda u: (1 - u ** 2), lambda u: -2 * u, lambda u: -2 * np.ones_like(u))


def test_custom_potential_accepts_sixth_order():
    W = Potential.custom(lambda u: (1 - u ** 2) ** 2 * (1 + 0.2 * u ** 2) / 4.0,
                         lambda u: (u ** 3 - u) * (1 + 0.2 * u ** 2) + 0.1 * u * (1 - u ** 2) ** 2 / 2.0,
                         lambda u: (3 * u ** 2 - 1) * (1 + 0.2 * u ** 2)
                         + 2 * (u ** 3 - u) * 0.4 * u / 2.0 * 2
                         + 0.1 * (1 - u ** 2) * (1 - 5 * u ** 2) / 1.0)
    assert W.c0 > 0


# ---------------------------------------------------------------------------
# potential energy
# ---------------------------------------------------------------------------

def test_potential_energy_wells_and_middle():
    W = Potential.quartic()
    g = Grid(1, 0.05, 4.0, ConstantExterior([(1.0, 1.0)]))
    region = BallRegion((0.0,), 1.0)
    ones = ScalarField(g, np.ones(g.shape))
    assert potential_energy(ones, region, W) == 0.0
    zero = ScalarField(g, np.zeros(g.shape))
    # W(0) = 1/4 over a ball of measure 2
    assert potential_energy(zero, region, W) == pytest.approx(0.5, abs=0.05)


def test_potential_energy_epsilon_weight():
    W = Potential.quartic()
    g = Grid(1, 0.05, 4.0, ConstantExterior([(1.0, 1.0)]))
    region = BallRegion((0.0,), 1.0)
    zero = ScalarField(g, np.zeros(g.shape))
    base = potential_energy(zero, region, W)
    assert potential_energy(zero, region, W, epsilon=0.25, s=0.5) == pytest.approx(2.0 * base)
    with pytest.raises(ConfigurationError):
        potential_energy(zero, region, W, epsilon=0.5)


# ---------------------------------------------------------------------------
# interaction energy
# ---------------------------------------------------------------------------

def halfline_field(h=1.0 / 64, box=4.0):
    g = Grid(1, h, box, ConstantExterior([(-1.0, 1.0)]))
    x = g.axis_coords()
    return ScalarField(g, np.sign(x + 1e-300))


def test_sobolev_energy_constant_zero():
    g = Grid(1, 0.125, 4.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    e = sobolev_energy(u, BallRegion((0.0,), 2.0), KernelSpec.fractional(0.5))
    assert abs(e) <= 1e-12


def perimeter_oracle_halfline(s):
    """Adaptive quadrature of the two defining double integrals for {x > 0}
    against (-1, 1), kernel |z|^{-1-s}."""
    inner1 = lambda x: quad(lambda y: (x - y) ** (-(1 + s)), -np.inf, 0.0)[0]
    part1 = quad(inner1, 0.0, 1.0, limit=200)[0]
    inner2 = lambda x: quad(lambda y: (y - x) ** (-(1 + s)), 1.0, np.inf)[0]
    part2 = quad(inner2, -1.0, 0.0, limit=200)[0]
    return part1 + part2


def test_halfline_perimeter_matches_oracle_and_closed_form():
    s = 0.5
    oracle = perimeter_oracle_halfline(s)
    closed = 2.0 ** (1.0 - s) / (s * (1.0 - s))
    assert oracle == pytest.approx(closed, rel=1e-6)
    u = halfline_field()
    E = IndicatorSet(u.grid, u.values.ravel() > 0.0)
    p = fractional_perimeter(E, BallRegion((0.0,), 1.0), s)
    assert p == pytest.approx(closed, rel=0.03)


def test_halfline_sobolev_energy_equals_twice_perimeter():
    s = 0.5
    u = halfline_field()
    region = BallRegion((0.0,), 1.0)
    e = sobolev_energy(u, region, KernelSpec.perimeter(s))
    E = IndicatorSet(u.grid, u.values.ravel() > 0.0)
    p = fractional_perimeter(E, region, s)
    assert e == pytest.approx(2.0 * p, rel=1e-12)


def test_perimeter_complement_symmetry():
    rng = np.random.default_rng(11)
    g = Grid(1, 0.125, 4.0, FieldExterior(lambda p: np.sign(p[:, 0])))
    member = rng.random(g.shape) < 0.5
    E = IndicatorSet(g, member)
    Ec = IndicatorSet(g, ~member)
    # complement flips the exterior too
    gc = Grid(1, 0.125, 4.0, FieldExterior(lambda p: -np.sign(p[:, 0])))
    Ec = IndicatorSet(gc, ~member)
    region = BallRegion((0.0,), 2.0)
    assert fractional_perimeter(E, region, 0.6) == pytest.approx(
        fractional_perimeter(Ec, region, 0.6), rel=1e-10)


@pytest.mark.parametrize("kind", ["halfline", "random", "checkerboard"])
def test_perimeter_identity_residual_round_off(kind):
    rng = np.random.default_rng(4)
    g = Grid(1, 0.125, 4.0, ConstantExterior([(-1.0, 1.0)]))
    x = g.axis_coords()
    if kind == "halfline":
        member = x >= 0
    elif kind == "random":
        member = rng.random(x.size) < 0.5
    else:
        member = (np.arange(x.size) % 2) == 0
    E = IndicatorSet(g, member)
    assert perimeter_identity_residual(E, BallRegion((0.0,), 2.0), 0.5) <= 1e-12


def test_perimeter_identity_residual_2d():
    g = Grid(2, 0.25, 2.0, FieldExterior(lambda p: np.sign(p[:, 0] + 1e-300)))
    pts = g.coords()
    E = IndicatorSet(g, (pts[:, 0] >= 0).reshape(g.shape))
    assert perimeter_identity_residual(E, BallRegion((0.0, 0.0), 1.0), 0.7) <= 1e-12


def test_sobolev_refinement_self_check(layer_s05):
    """Richardson-style: the halved-spacing evaluation moves the energy
    by no more than a percent on a smooth field."""
    region = BallRegion((0.0,), 4.0)
    spec = KernelSpec.fractional_unit(0.5, 1)
    e_h = sobolev_energy(layer_s05, region, spec)
    from fracac import solve_layer_1d
    fine = solve_layer_1d(0.5, 40.0, 0.025, tol=1e-10)
    e_h2 = sobolev_energy(fine, region, KernelSpec.fractional_unit(0.5, 1))
    assert abs(e_h - e_h2) / e_h2 <= 0.01


def test_energy_region_monotonicity(layer_s05, quartic, spec1_unit):
    radii = [2.0, 4.0, 8.0, 16.0]
    sobs = [sobolev_energy(layer_s05, BallRegion((0.0,), R), spec1_unit) for R in radii]
    pots = [potential_energy(layer_s05, BallRegion((0.0,), R), quartic) for R in radii]
    assert np.all(np.diff(sobs) > 0)
    assert np.all(np.diff(pots) > 0)


def test_energy_comparison_general_kernel(layer_s05):
    s = 0.5
    region = BallRegion((0.0,), 4.0)
    frac = KernelSpec.fractional(s)
    gen = KernelSpec.general(
        s, lambda r: (2.0 - s) * r ** (-(1 + s)) * (1.0 + 0.2 * np.cos(np.log(r))),
        lam=0.8, Lam=4.0)  # value pinching is sharp at 1.2
    ef = sobolev_energy(layer_s05, region, frac)
    eg = sobolev_energy(layer_s05, region, gen)
    assert 0.8 * ef - 1e-9 <= eg <= 1.2 * ef + 1e-9


def test_breakdown_record_totals(layer_s05, quartic, spec1_unit):
    br = energy_breakdown(layer_s05, BallRegion((0.0,), 4.0), spec1_unit, quartic)
    assert br.total == br.sobolev + br.potential
    rec = br.record()
    assert set(rec) == {"region", "epsilon", "sobolev", "potential", "stderr"}


def test_sobolev_3d_subsample_matches_brute_force():
    rng = np.random.default_rng(9)
    g = Grid(3, 0.25, 1.0, ConstantExterior([(0.0, 0.0)] * 3))
    u = ScalarField(g, rng.normal(size=g.shape))
    region = BallRegion((0.0, 0.0, 0.0), 0.75)
    spec = KernelSpec.fractional(0.5)
    est = sobolev_energy(u, region, spec, seed=1, pairs_per_stratum=60000)
    err = est.stderr

    # brute force over all ordered pairs with >= 1 endpoint in the region
    from fracac._lattice import get_operator
    op = get_operator(g, spec)
    pts_idx = np.argwhere(np.ones(g.shape, dtype=bool))
    vals = u.values.ravel()
    mask = region.mask(g).ravel()
    p = g.nodes_per_axis
    total = 0.0
    for i in range(len(pts_idx)):
        d = pts_idx[None, i] - pts_idx
        w = op.weights[tuple((d + p - 1).T)]
        c = (vals[i] - vals) ** 2 * w
        keep = mask[i] | mask
        total += float(c[keep].sum())
    brute = 0.25 * g.cell_volume() * total
    mom = op.moments
    uu = u.values
    tail = (uu ** 2 * mom["t0"] - 2 * uu * mom["t1"] + mom["t2"])[region.mask(g)].sum()
    brute += 0.5 * g.cell_volume() * float(tail)
    assert abs(est - brute) <= max(4.0 * err, 0.02 * brute)


def test_sobolev_energy_same_type_in_every_dimension():
    """One float type everywhere; only the sampled 3D route has a stderr."""
    rng = np.random.default_rng(4)
    spec = KernelSpec.fractional(0.5)
    out = {}
    for n in (1, 2, 3):
        g = Grid(n, 0.25, 1.0, ConstantExterior([(0.0, 0.0)] * n))
        u = ScalarField(g, rng.normal(size=g.shape))
        region = BallRegion((0.0,) * n, 0.75)
        out[n] = sobolev_energy(u, region, spec, pairs_per_stratum=2000)
        if n == 1:
            out["classical"] = sobolev_energy(u, region, KernelSpec.classical())
    assert {type(e) for e in out.values()} == {EnergyEstimate}
    assert all(isinstance(e, float) for e in out.values())
    assert out[1].stderr == out[2].stderr == out["classical"].stderr == 0.0
    assert out[3].stderr > 0.0


# ---------------------------------------------------------------------------
# domain variation
# ---------------------------------------------------------------------------

def test_cutoff_profile_shape():
    r = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(cutoff_profile(r), [1, 1, 1, 0.5, 0, 0])


def test_variation_map_rejects_large_t():
    with pytest.raises(ConfigurationError):
        VariationMap((1.0,), 1.0)


def test_domain_variation_identity_and_constant(layer_s05):
    vm = VariationMap((1.0,), 0.0)
    out = domain_variation(layer_s05, vm)
    assert np.array_equal(out.values, layer_s05.values)
    g = Grid(1, 0.1, 6.0, ConstantExterior([(1.0, 1.0)]))
    const = ScalarField(g, np.ones(g.shape))
    out = domain_variation(const, VariationMap((1.0,), 0.3))
    assert np.allclose(out.values, 1.0, atol=1e-12)


def test_domain_variation_is_translation_on_core(layer_s05):
    t = 0.2
    vm = VariationMap((1.0,), t)
    out = domain_variation(layer_s05, vm)
    g = layer_s05.grid
    x = g.axis_coords()
    inner = np.abs(x) <= 1.5
    shifted = np.interp(x[inner] - t, x, layer_s05.values)
    assert np.allclose(out.values[inner], shifted, atol=1e-9)


def test_translation_comparison_constant_field(quartic, spec1_unit):
    g = Grid(1, 0.1, 6.0, ConstantExterior([(1.0, 1.0)]))
    const = ScalarField(g, np.ones(g.shape))
    rep = translation_comparison(const, VariationMap((1.0,), 0.05), spec1_unit, quartic)
    assert abs(rep["second_difference"]) <= 1e-10
    assert rep["bound_ratio"] is None


def test_translation_comparison_layer_bounded(layer_s05, quartic, spec1_unit):
    ratios = []
    for t in (0.05, 0.025, 0.0125):
        rep = translation_comparison(layer_s05, VariationMap((1.0,), t),
                                     spec1_unit, quartic)
        ratios.append(rep["bound_ratio"])
        # the potential part cancels to interpolation accuracy
        assert abs(rep["potential_second_difference"]) <= 10.0 * layer_s05.grid.h * t
    # single frozen constant across t (calibrated once: comfortably < 40)
    assert max(abs(r) for r in ratios) <= 40.0


def test_maxmin_identity_hand_example_and_random():
    # hand-checked quadruple
    res = maxmin_residual(0.5, 0.2, -0.3, 0.1)
    assert res <= 1e-15
    rng = np.random.default_rng(123)
    a, b, c, d = rng.uniform(-1, 1, size=(4, 1_000_00))
    assert maxmin_residual(a, b, c, d).max() <= 1e-12
    assert maxmin_residual(a, a, c, c).max() <= 1e-15


def test_directional_gradient_bound_layer_and_constant(embedded_layer):
    """Two-sided smallness of directional increments controls the gradient
    mass: sampled on the embedded monotone layer and on constants."""
    u = embedded_layer
    g = u.grid
    region = BallRegion((0.0, 0.0), 1.0)
    hv = g.cell_volume()
    mask = region.mask(g)
    n = g.n
    from fracac import evaluate_field
    eta = 0.0
    for v in np.eye(n):
        for t in (4 * g.h, 2 * g.h):
            shifted = evaluate_field(u, g.coords() - t * v).reshape(g.shape)
            diff = u.values - shifted
            plus = hv * np.maximum(diff, 0.0)[mask].sum()
            minus = hv * np.maximum(-diff, 0.0)[mask].sum()
            eta = max(eta, plus * minus / t ** 2)
    grad_mass = gradient_l1_norm(u, region)
    ball_n_minus_1 = 2.0
    assert grad_mass <= 2 * n * (ball_n_minus_1 + np.sqrt(eta)) + 1e-9

    const = ScalarField(g, np.ones(g.shape))
    assert gradient_l1_norm(const, region) == 0.0


def test_sobolev_energy_positive_iff_nonconstant_periodic():
    from fracac import make_grid
    rng = np.random.default_rng(6)
    g = make_grid(1, 4.0, 0.25)
    region = BallRegion((0.0,), 2.0)
    spec = KernelSpec.fractional(0.5)
    const = ScalarField(g, 0.3 * np.ones(g.shape))
    e0 = sobolev_energy(const, region, spec)
    assert abs(e0) <= 1e-12
    for _ in range(5):
        u = ScalarField(g, rng.normal(size=g.shape))
        assert sobolev_energy(u, region, spec) > 0.0


def test_perimeter_empty_set_zero():
    g = Grid(1, 0.125, 4.0, ConstantExterior([(-1.0, -1.0)]))
    empty = IndicatorSet(g, np.zeros(g.shape, dtype=bool))
    assert fractional_perimeter(empty, BallRegion((0.0,), 2.0), 0.5) == 0.0
