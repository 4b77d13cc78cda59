"""Fit machinery, radius-scaling experiments, density dichotomy,
blow-down traces, flatness, and the interpolation ratio."""

import numpy as np
import pytest

from fracac import (
    BallRegion,
    ConstantExterior,
    DensityCheckConfig,
    Grid,
    KernelSpec,
    ScalarField,
    ScalingExperiment,
    bv_scaling,
    density_check,
    fit_loglog,
    flatness_profile,
    full_energy_scaling,
    interpolation_check,
    layer_decay,
    potential_decay,
    sobolev_energy,
    sobolev_scaling,
)
from fracac.fields import evaluate_field, gradient_l1_norm
from fracac.errors import ConfigurationError
from fracac.scaling import SLOPE_TOLERANCE, energy_growth

# one-time calibration over the declared field zoo (see the runs in the
# repository history of this test's constants): max observed 5.04 and 2.67
FROZEN_INTERPOLATION_CONSTANT = 6.0
FROZEN_SEMINORM_GRADIENT_CONSTANT = 3.2


def test_fit_exact_power_law_and_scale_invariance():
    exp = ScalingExperiment("demo", [2.0, 4.0, 8.0], [4.0, 16.0, 64.0])
    fit = fit_loglog(exp, window=(0, 3))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    doubled = ScalingExperiment("demo", [4.0, 8.0, 16.0], [4.0, 16.0, 64.0])
    fit2 = fit_loglog(doubled, window=(0, 3))
    assert fit2.slope == pytest.approx(fit.slope, abs=1e-12)


def test_fit_constant_values_slope_zero():
    exp = ScalingExperiment("demo", [1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert fit_loglog(exp, window=(0, 3)).slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rejects_nonpositive_data():
    exp = ScalingExperiment("demo", [1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ConfigurationError):
        fit_loglog(exp)


def test_experiment_validation():
    with pytest.raises(ConfigurationError):
        ScalingExperiment("demo", [1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        ScalingExperiment("demo", [1.0, 2.0], [1.0])


def test_bv_scaling_degenerate_on_constants():
    g = Grid(1, 0.25, 8.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.ones(g.shape))
    exp, fit = bv_scaling(u, [2.0, 4.0])
    assert fit.degenerate
    assert np.all(exp.values == 0.0)


def test_bv_scaling_1d_layer_saturates(layer_s05):
    exp, fit = bv_scaling(layer_s05, [4.0, 8.0, 16.0])
    assert np.all(exp.values <= 2.05)
    assert fit.slope <= 0.2  # saturation toward the total variation


def test_layer_decay_exponents(layer_s05, layer_s03):
    fit5 = layer_decay(layer_s05, 0.5)
    fit3 = layer_decay(layer_s03, 0.3)
    assert not fit5.degenerate and not fit3.degenerate
    assert abs(fit5.slope + 0.5) <= 0.1
    assert abs(fit3.slope + 0.3) <= 0.1


def test_layer_decay_requires_1d(embedded_layer):
    with pytest.raises(ConfigurationError):
        layer_decay(embedded_layer, 0.5)


def rescaled_family(profile, eps_list):
    """Exact nodal rescalings of the profile onto shrunken grids.

    phi(x / eps) on the grid with spacing eps*h solves the eps-scale
    problem with the same nodal values, by exact covariance of the pair
    weights under the joint rescaling."""
    g = profile.grid
    out = []
    for eps in eps_list:
        ge = Grid(1, g.h * eps, g.box_radius * eps, g.boundary, g.centered)
        out.append((eps, ScalarField(ge, profile.values.copy())))
    return out


def test_potential_decay_family_trace_and_crude_bound(layer_s05, quartic):
    s = 0.5
    fam = rescaled_family(layer_s05, [1.0, 0.5, 0.25, 0.125, 0.0625])
    exp, fit = potential_decay(fam, s, quartic)
    assert np.all(exp.values > 0)
    assert fit.slope > 0.0
    # eps = R = 1: crude bound by the max of the well on the unit ball
    assert exp.values[0] <= 0.25 * 2.0


def density_config():
    return DensityCheckConfig(c_bar=0.75, omega0=0.2, R0=4.0)


def test_density_constant_wells():
    g = Grid(1, 0.1, 8.0, ConstantExterior([(-1.0, -1.0)]))
    lower = ScalarField(g, -np.ones(g.shape))
    rep = density_check(lower, 8.0, density_config())
    assert rep["lower_well"]["status"] == "implication_holds"
    assert rep["upper_well"]["status"] == "vacuous"
    assert not rep["counterexample"]


def test_density_centered_layer_vacuous(layer_s05):
    rep = density_check(layer_s05, 8.0, density_config())
    assert rep["lower_well"]["status"] == "vacuous"
    assert rep["upper_well"]["status"] == "vacuous"


def test_density_translated_layer_clean(layer_s05):
    g = Grid(1, 0.05, 8.0, ConstantExterior([(-1.0, -1.0)]))
    vals = evaluate_field(layer_s05, g.coords() - 24.0).reshape(g.shape)
    u = ScalarField(g, vals)
    rep = density_check(u, 8.0, density_config())
    assert rep["lower_well"]["hypothesis"]
    assert rep["lower_well"]["status"] == "implication_holds"
    assert not rep["counterexample"]


def test_density_rejects_small_radius(layer_s05):
    with pytest.raises(ConfigurationError):
        density_check(layer_s05, 2.0, density_config())


def test_density_omega0_bounded_by_half_ball(layer_s05):
    with pytest.raises(ConfigurationError):
        density_check(layer_s05, 8.0, DensityCheckConfig(c_bar=0.75, omega0=1.5, R0=4.0))


def test_flatness_exact_sign_field():
    from fracac import FieldExterior
    g = Grid(2, 0.0625, 4.0, FieldExterior(lambda p: np.sign(p[:, 0] + 1e-300)))
    pts = g.coords()
    u = ScalarField(g, np.sign(pts[:, 0] + 1e-300).reshape(g.shape))
    rep = flatness_profile(u, [2.0, 4.0])
    for R, a in zip(rep["radii"], rep["a"]):
        assert a <= 4.0 * g.h / R


def test_flatness_checkerboard_sentinel():
    g = Grid(2, 0.25, 4.0, ConstantExterior([(1.0, 1.0)] * 2))
    pts = g.coords()
    vals = np.sign(np.sin(np.pi * pts[:, 0] * 2) * np.sin(np.pi * pts[:, 1] * 2) + 1e-300)
    u = ScalarField(g, vals.reshape(g.shape))
    rep = flatness_profile(u, [2.0, 4.0])
    assert rep["a"] == [1.0, 1.0]


def test_interpolation_degenerate_near_constant():
    g = Grid(1, 0.125, 8.0, ConstantExterior([(-1.0, -1.0)]))
    u = ScalarField(g, np.full(g.shape, -1.0 + 1e-6))
    rep = interpolation_check(u, 4.0, 0.5)
    # no oscillation: the interaction seminorm vanishes with V
    assert rep["degenerate"] or rep["ratio"] <= 1e-3


def test_interpolation_layer_far_from_origin(layer_s05):
    g = Grid(1, 1.0 / 16.0, 8.0, ConstantExterior([(-1.0, -1.0)]))
    vals = evaluate_field(layer_s05, g.coords() - 24.0).reshape(g.shape)
    u = ScalarField(g, vals)
    rep = interpolation_check(u, 4.0, 0.5)
    assert not rep["degenerate"]
    assert rep["ratio"] <= FROZEN_INTERPOLATION_CONSTANT


def random_smooth_field(seed, g):
    rng = np.random.default_rng(seed)
    x = g.axis_coords()
    vals = np.zeros_like(x)
    for k in range(1, 9):
        a, b = rng.normal(size=2)
        vals += (a * np.cos(np.pi * k * x / g.box_radius)
                 + b * np.sin(np.pi * k * x / g.box_radius)) / k ** 1.5
    return ScalarField(g, np.tanh(vals))


def test_interpolation_frozen_constant_on_zoo():
    g = Grid(1, 1.0 / 16.0, 8.0, ConstantExterior([(-1.0, 1.0)]))
    worst = 0.0
    for seed in range(50):
        rep = interpolation_check(random_smooth_field(seed, g), 4.0, 0.5)
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
    assert worst <= FROZEN_INTERPOLATION_CONSTANT


def test_seminorm_gradient_interpolation_frozen_constant(layer_s05):
    """(1 - s) times the bare interaction energy in B_4 stays below the
    frozen multiple of 1 + the gradient mass, across the zoo."""
    s = 0.5
    g = Grid(1, 1.0 / 16.0, 8.0, ConstantExterior([(-1.0, 1.0)]))
    spec = KernelSpec.perimeter(s)
    region = BallRegion((0.0,), 4.0)
    fields = [random_smooth_field(seed + 100, g) for seed in range(20)]
    fields.append(ScalarField(g, np.interp(g.axis_coords(),
                                           layer_s05.grid.axis_coords(),
                                           layer_s05.values)))
    for u in fields:
        e = sobolev_energy(u, region, spec)
        gm = gradient_l1_norm(u, region)
        assert (1.0 - s) * e <= FROZEN_SEMINORM_GRADIENT_CONSTANT * (1.0 + gm)


def test_blowdown_exact_sign_field_zero_distances():
    from fracac import FieldExterior, blowdown_convergence
    ext = FieldExterior(lambda p: np.sign(p[:, 0] + 1e-300), asymptote=(-1.0, 1.0))
    g = Grid(2, 0.125, 4.0, ext)
    pts = g.coords()
    u = ScalarField(g, np.sign(pts[:, 0] + 1e-300).reshape(g.shape))
    res = blowdown_convergence(u, [1.5, 2.0], c=0.0)
    assert max(res["l1"]) <= 1e-10
    assert max(res["hausdorff"]) <= g.h + 1e-12


def test_layer_1d_energy_trace_slope(layer_s05):
    """Zoomed profile probes the large-radius growth of the localized
    interaction energy; in one dimension the exponent is 1 - s."""
    from fracac import rescale_blowdown
    prof = rescale_blowdown(layer_s05, 32.0)
    _, fit = sobolev_scaling(prof, [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
                             KernelSpec.fractional_unit(0.5, 1))
    assert abs(fit.slope - 0.5) <= 0.15


def test_fixed_field_two_kernel_orders(embedded_layer_zoomed):
    radii = [4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
    slopes = {}
    for sk in (0.3, 0.7):
        _, fit = sobolev_scaling(embedded_layer_zoomed, radii,
                                 KernelSpec.fractional_unit(sk, 2))
        slopes[sk] = fit.slope
        assert abs(fit.slope - (2.0 - sk)) <= 0.15
    assert abs(slopes[0.3] - slopes[0.7]) > 0.2


def test_energy_growth_is_the_three_fits_against_the_sharp_exponents(layer_s05, quartic):
    """In 1D the targets are n - 1 = 0 and n - s = 0.5; each trace and fit is
    the one its own scaling call gives, and passes within SLOPE_TOLERANCE."""
    from fracac import rescale_blowdown
    prof, radii = rescale_blowdown(layer_s05, 32.0), [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    spec = KernelSpec.fractional_unit(0.5, 1)
    growth = energy_growth(prof, radii, spec, quartic)
    assert {k: g.target for k, g in growth.items()} == {"bv": 0, "sobolev": 0.5,
                                                        "full_energy": 0.5}
    for g, (exp, fit) in zip(growth.values(), (
            bv_scaling(prof, radii), sobolev_scaling(prof, radii, spec),
            full_energy_scaling(prof, radii, spec, quartic))):
        assert np.array_equal(g.trace.values, exp.values) and g.fit == fit
        assert g.passed == (abs(fit.slope - g.target) <= SLOPE_TOLERANCE)
