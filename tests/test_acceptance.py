"""Acceptance suite: every quantitative exit criterion at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import subprocess
import sys

import numpy as np
import pytest

from fracac import (
    BallRegion,
    ConstantExterior,
    Grid,
    IndicatorSet,
    KernelSpec,
    ScalarField,
    apply_laplacian,
    density_check,
    DensityCheckConfig,
    blowdown_convergence,
    embed_profile,
    euler_lagrange_consistency,
    extend,
    flatness_profile,
    gradient_flow,
    gradient_test_inequality,
    halfspace_extension,
    interpolation_check,
    layer_decay,
    make_grid,
    maxmin_residual,
    min_rayleigh,
    monotonicity_trace,
    operator_consistency,
    perimeter_identity_residual,
    perimeter_stability_quotients,
    potential_decay,
    potential_vs_sobolev,
    residual_field,
    solve_layer_1d,
)
from fracac.scaling import SLOPE_TOLERANCE, energy_growth
from fracac.stability import cone_set, cone_sweep, radial_bump_vector_field
from fracac.fields import FieldExterior, evaluate_field


def verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_01_operator_routes(capsys):
    rng = np.random.default_rng(0)
    g = make_grid(1, np.pi, 2.0 * np.pi / 256)
    x = g.axis_coords()
    vals = np.zeros_like(x)
    for k in range(1, 11):
        a, b = rng.normal(size=2)
        vals += (a * np.cos(k * x) + b * np.sin(k * x)) / k ** 2
    u = ScalarField(g, vals)
    worst = 0.0
    for s in (0.3, 0.5, 0.7, 0.9):
        rep = operator_consistency(u, s, tolerance=1e-3)
        worst = max(worst, rep["discrepancy"])
    ok = worst <= 1e-3
    with capsys.disabled():
        verdict(1, "operator oracle equivalence", ok,
                f"max rel sup discrepancy {worst:.2e} <= 1e-3")
    assert ok


def test_criterion_02_euler_lagrange(quartic, capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    g1 = Grid(1, 0.1, 8.0, ConstantExterior([(-1.0, 1.0)]))
    region1 = BallRegion((0.0,), 4.0)
    mask1 = region1.mask(g1).ravel()
    x1 = g1.axis_coords()
    for _ in range(15):
        u = ScalarField(g1, np.clip(np.tanh(x1) + 0.3 * rng.normal(size=x1.size), -1, 1))
        xi_vals = np.zeros_like(x1)
        xi_vals[mask1] = rng.normal(size=int(mask1.sum()))
        res = euler_lagrange_consistency(u, ScalarField(g1, xi_vals),
                                         KernelSpec.fractional(0.5), quartic,
                                         region=region1)
        worst = max(worst, res)
    g2 = Grid(2, 0.25, 4.0, ConstantExterior([(-1.0, 1.0)] * 2))
    region2 = BallRegion((0.0, 0.0), 2.0)
    mask2 = region2.mask(g2).ravel()
    for _ in range(5):
        u = ScalarField(g2, np.clip(0.5 * rng.normal(size=g2.shape), -1, 1))
        xi_vals = np.zeros(g2.node_count)
        xi_vals[mask2] = rng.normal(size=int(mask2.sum()))
        res = euler_lagrange_consistency(u, ScalarField(g2, xi_vals),
                                         KernelSpec.fractional(0.7), quartic,
                                         region=region2)
        worst = max(worst, res)
    ok = worst <= 1e-6
    with capsys.disabled():
        verdict(2, "first-variation consistency", ok,
                f"max rel residual {worst:.2e} over 20 pairs <= 1e-6")
    assert ok


def test_criterion_03_maxmin_identity(capsys):
    rng = np.random.default_rng(2)
    a, b, c, d = rng.uniform(-1.0, 1.0, size=(4, 1_000_000))
    worst = float(maxmin_residual(a, b, c, d).max())
    ok = worst <= 1e-12
    with capsys.disabled():
        verdict(3, "pairwise max/min identity", ok,
                f"max residual {worst:.2e} over 1e6 quadruples <= 1e-12")
    assert ok


def test_criterion_04_layer_solve(layer_s05, quartic, capsys):
    g = layer_s05.grid
    x = g.axis_coords()
    res = residual_field(layer_s05, KernelSpec.fractional_unit(0.5, 1), quartic)
    res_sup = float(np.max(np.abs(res[np.abs(x) <= 20.0])))
    monotone = bool(np.all(np.diff(layer_s05.values) > 0))
    fit = layer_decay(layer_s05, 0.5)
    ok = monotone and res_sup <= 1e-8 and abs(fit.slope + 0.5) <= 0.1
    with capsys.disabled():
        verdict(4, "layer solve", ok,
                f"monotone={monotone}, residual {res_sup:.1e} <= 1e-8, "
                f"tail exponent {fit.slope:.3f} = -0.5 +- 0.1")
    assert ok


def test_criterion_05_layer_stability(layer_s05, quartic, spec1_unit, capsys):
    rep = min_rayleigh(layer_s05, BallRegion((0.0,), 20.0), spec1_unit, quartic)
    x = layer_s05.grid.axis_coords()
    phip = np.gradient(layer_s05.values, x)
    mask = rep.region.mask(layer_s05.grid).ravel()
    v, p = rep.witness.values.ravel()[mask], phip[mask]
    cosine = float(abs(v @ p) / (np.linalg.norm(v) * np.linalg.norm(p)))

    g0 = Grid(1, 0.25, 8.0, ConstantExterior([(0.0, 0.0)]), centered=True)
    u0 = ScalarField(g0, np.zeros(g0.shape))
    rep0 = min_rayleigh(u0, BallRegion((0.0,), 7.0),
                        KernelSpec.fractional_unit(0.5, 1), quartic)
    ok = abs(rep.min_rayleigh) <= 1e-3 and cosine >= 0.99 and rep0.min_rayleigh <= -0.5
    with capsys.disabled():
        verdict(5, "layer stability", ok,
                f"min rayleigh {rep.min_rayleigh:+.2e} in [-1e-3, 1e-3], "
                f"witness cosine {cosine:.5f} >= 0.99, "
                f"middle well {rep0.min_rayleigh:.3f} <= -0.5")
    assert ok


def test_criterion_06_monotonicity(layer_s05, quartic, capsys):
    radii = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    U = extend(layer_s05, 0.5, y_max=18.0)
    tr = monotonicity_trace(U, radii, quartic)
    Uh = halfspace_extension(0.5, layer_s05.grid, 18.0)
    trh = monotonicity_trace(Uh, radii, quartic)
    spread = float((trh.phi_values.max() - trh.phi_values.min()) / trh.phi_values.mean())
    ok = len(tr.violations) == 0 and spread <= 0.01
    with capsys.disabled():
        verdict(6, "scale-normalized energy monotone", ok,
                f"layer violations {len(tr.violations)} = 0, "
                f"half-space constancy {spread:.4f} <= 0.01")
    assert ok


def test_criterion_07_scaling_exponents(embedded_layer_zoomed, quartic, spec2_unit, capsys):
    growth = energy_growth(embedded_layer_zoomed, [4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
                           spec2_unit, quartic)
    ok = all(g.passed for g in growth.values())
    with capsys.disabled():
        verdict(7, "scaling exponents", ok, ", ".join(
            f"{name.split('_')[0]} {g.fit.slope:.3f} = {g.target:g} +- {SLOPE_TOLERANCE:g}"
            for name, g in growth.items()))
    assert ok


def classical_layer_1d(quartic, box=20.0, h=0.05):
    """Newton solve of the second-order transition profile."""
    g = Grid(1, h, box, ConstantExterior([(-1.0, 1.0)]), centered=True)
    x = g.axis_coords()
    u = np.tanh(x / np.sqrt(2.0))
    n = x.size
    main = np.full(n, 2.0 / h ** 2)
    for _ in range(40):
        lap = apply_laplacian(ScalarField(g, u)).values
        r = lap + quartic.wp(u)
        if np.max(np.abs(r)) < 1e-11:
            break
        diag = main + quartic.wpp(u)
        J = np.diag(diag) + np.diag(np.full(n - 1, -1.0 / h ** 2), 1) \
            + np.diag(np.full(n - 1, -1.0 / h ** 2), -1)
        u = u + np.linalg.solve(J, -r)
    return ScalarField(g, u)


def test_criterion_08_potential_domination(embedded_layer_zoomed, quartic,
                                           spec2_unit, capsys):
    rep = potential_vs_sobolev(embedded_layer_zoomed,
                               [6.0, 8.0, 10.0, 12.0, 14.0], 2.0,
                               spec2_unit, quartic)
    trend_ok = rep["trend_slope"] <= 0.05 and np.isfinite(rep["max_ratio"])

    tanh_layer = classical_layer_1d(quartic)
    repc = potential_vs_sobolev(tanh_layer, [2.0, 4.0, 8.0, 12.0], 1.0,
                                KernelSpec.classical(), quartic)
    classical_ok = (not repc["degenerate"]) and rep["max_ratio"] < np.inf \
        and repc["max_ratio"] <= 10.0
    ok = trend_ok and classical_ok
    with capsys.disabled():
        verdict(8, "potential domination", ok,
                f"ratio trend {rep['trend_slope']:+.3f} <= 0.05 "
                f"(max {rep['max_ratio']:.3f}); classical variant max "
                f"{repc['max_ratio']:.3f} bounded")
    assert ok


def rescaled_family(profile, eps_list):
    g = profile.grid
    return [(eps, ScalarField(Grid(1, g.h * eps, g.box_radius * eps,
                                   g.boundary, g.centered),
                              profile.values.copy()))
            for eps in eps_list]


def test_criterion_09_potential_decay(quartic, capsys):
    details = []
    ok = True
    for s in (0.4, 0.8):
        beta = min((1.0 - s) / 2.0, s)
        phi = solve_layer_1d(s, 80.0, 0.05, tol=1e-8)
        # family members certify their own-scale residuals by exact covariance
        fam = rescaled_family(phi, [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0, 1.0 / 80.0])
        exp, fit = potential_decay(fam, s, quartic)
        details.append(f"s={s}: exponent {fit.slope:.3f} >= {beta - 0.05:.2f}")
        ok = ok and fit.slope >= beta - 0.05
    with capsys.disabled():
        verdict(9, "potential decay rate", ok, "; ".join(details))
    assert ok


def test_criterion_10_blowdown(layer_s05, grid2d, capsys):
    u2 = embed_profile(layer_s05, (1.0, 0.0), grid2d)
    res = blowdown_convergence(u2, [2.0, 4.0, 8.0, 16.0], c=0.6)
    l1_dec = bool(np.all(np.diff(res["l1"]) < 0))
    hs_dec = bool(np.all(np.diff(res["hausdorff"]) < 0))

    e = np.array([1.0, 1.0]) / np.sqrt(2.0)
    u2t = embed_profile(layer_s05, e, grid2d)
    rest = blowdown_convergence(u2t, [2.0, 4.0, 8.0, 16.0], c=0.6)
    ang = float(np.degrees(np.arccos(min(1.0, abs(rest["normals"][-1] @ e)))))

    fl = flatness_profile(u2, [4.0, 6.0, 8.0, 12.0, 16.0])
    fl_dec = bool(np.all(np.diff(fl["a"]) < 0))
    ok = l1_dec and hs_dec and ang <= 5.0 and fl_dec
    with capsys.disabled():
        verdict(10, "blow-down convergence", ok,
                f"L1 strictly decreasing={l1_dec}, Hausdorff strictly "
                f"decreasing={hs_dec}, normal {ang:.2f} deg <= 5, "
                f"flatness decreasing={fl_dec}")
    assert ok


def test_criterion_11_density_zoo(layer_s05, layer_s03, layer_s08, capsys):
    conf = DensityCheckConfig(c_bar=0.75, omega0=0.2, R0=4.0)
    zoo = {"layer_s05": layer_s05, "layer_s03": layer_s03, "layer_s08": layer_s08}
    g = Grid(1, 0.05, 8.0, ConstantExterior([(-1.0, -1.0)]))
    zoo["constant_lower"] = ScalarField(g, -np.ones(g.shape))
    gu = Grid(1, 0.05, 8.0, ConstantExterior([(1.0, 1.0)]))
    zoo["constant_upper"] = ScalarField(gu, np.ones(gu.shape))
    for s_tag, phi in (("s05", layer_s05), ("s03", layer_s03)):
        gs = Grid(1, 0.05, 8.0, ConstantExterior([(-1.0, -1.0)]))
        vals = evaluate_field(phi, gs.coords() - 24.0).reshape(gs.shape)
        zoo[f"translated_{s_tag}"] = ScalarField(gs, vals)
    bad = []
    statuses = {}
    for name, u in zoo.items():
        rep = density_check(u, 8.0, conf)
        statuses[name] = rep["lower_well"]["status"]
        if rep["counterexample"]:
            bad.append(name)
    # the 3R-translated layer realizes a true hypothesis with clean conclusion;
    # fatter-tailed orders stay vacuous (never counterexamples)
    translated_clean = statuses["translated_s05"] == "implication_holds"
    ok = not bad and translated_clean
    with capsys.disabled():
        verdict(11, "density dichotomy", ok,
                f"counterexamples {bad or 'none'}; translated layers verify "
                f"the implication: {translated_clean}")
    assert ok


def test_criterion_12_perimeter_and_cone_stability(capsys, tmp_path):
    # identity at round-off on a random set
    rng = np.random.default_rng(3)
    g1 = Grid(1, 0.125, 4.0, ConstantExterior([(-1.0, 1.0)]))
    E1 = IndicatorSet(g1, rng.random(g1.shape) < 0.5)
    resid = perimeter_identity_residual(E1, BallRegion((0.0,), 2.0), 0.5)

    half = cone_set("halfplane")
    region = BallRegion((0.0, 0.0), 1.0)
    fields = [radial_bump_vector_field(100 + k) for k in range(20)]
    quotients = cone_sweep(half, fields, region, (0.9,), (0.04, 0.08, 0.16))[0.9]
    worst = min(v + e for q in quotients for v, e in zip(q["q"], q["error_bar"]))

    from fracac import VectorFieldSpec
    Xt = VectorFieldSpec(lambda p: np.stack(
        [np.exp(-np.sum(p ** 2, axis=1)), np.zeros(len(p))], axis=1),
        support_radius=0.95)
    qt = perimeter_stability_quotients(half, Xt, region, 0.9, (0.04, 0.08, 0.16))
    translation_zero = max(abs(v) for v in qt["q"]) <= 1e-9

    # exploratory cross-cone sweep, recorded but not asserted
    cross_fields = [radial_bump_vector_field(500 + k) for k in range(6)]
    cross = cone_sweep(cone_set("cross"), cross_fields, region, (0.5, 0.7, 0.9), (0.08, 0.16))
    rows = [(sv, min(v for q in qs for v in q["q"])) for sv, qs in cross.items()]
    sweep = tmp_path / "cross_cone_sweep.csv"
    sweep.write_text("s,min_quotient\n" +
                     "\n".join(f"{sv},{qv!r}" for sv, qv in rows) + "\n")

    ok = resid <= 1e-12 and worst >= 0.0 and translation_zero
    with capsys.disabled():
        verdict(12, "perimeter identity and cone stability", ok,
                f"identity residual {resid:.1e} <= 1e-12, half-plane worst "
                f"q+bar {worst:+.2e} >= 0, translation quotients "
                f"{max(abs(v) for v in qt['q']):.1e} -> 0; cross-cone sweep "
                f"recorded ({len(rows)} orders)")
    assert ok


@pytest.fixture(scope="session")
def bent_relaxed_2d(quartic, layer_s05):
    """Local energy minimizer with bent exterior data: a genuinely 2D stable
    solution whose level sets curve, so the alignment sum is nonzero."""
    def bent(p):
        t = p[:, 1] - 0.8 * np.tanh(p[:, 0] / 2.0)
        return evaluate_field(layer_s05, t[:, None])

    g = Grid(2, 1.0 / 8.0, 6.0, FieldExterior(bent, asymptote=(-1.0, 1.0)))
    spec = KernelSpec.fractional_unit(0.5, 2)
    out = gradient_flow(ScalarField(g, bent(g.coords()).reshape(g.shape)), spec, quartic)
    assert out.residual_sup < 1e-4
    return out.field, spec


def test_criterion_13_gradient_test(bent_relaxed_2d, embedded_layer, quartic,
                                    spec2_unit, capsys):
    u_relaxed, spec = bent_relaxed_2d
    rep_stab = min_rayleigh(u_relaxed, BallRegion((0.0, 0.0), 5.0), spec, quartic)
    stable = rep_stab.min_rayleigh >= -1e-3
    rep = gradient_test_inequality(u_relaxed, spec, quartic, residual_bound=1e-4)
    relaxed_ok = 0.0 < rep["i2"] <= 1.05 * rep["i3"]

    rep_layer = gradient_test_inequality(embedded_layer, spec2_unit, quartic,
                                         residual_bound=1.0)
    layer_zero = abs(rep_layer["i2"]) <= 1e-10 * max(1.0, rep_layer["i3"])

    # constant fields sit at the degenerate corner: both sums vanish
    gc = Grid(2, 0.25, 4.0, ConstantExterior([(1.0, 1.0)] * 2))
    rep_const = gradient_test_inequality(ScalarField(gc, np.ones(gc.shape)),
                                         KernelSpec.fractional_unit(0.5, 2),
                                         quartic, residual_bound=1.0)
    const_zero = rep_const["i2"] == 0.0 and rep_const["i3"] == 0.0
    ok = stable and relaxed_ok and layer_zero and const_zero
    with capsys.disabled():
        verdict(13, "gradient-test inequality", ok,
                f"bent stable field (min rayleigh {rep_stab.min_rayleigh:+.2e}): "
                f"0 < I2 {rep['i2']:.4f} <= 1.05 I3 {rep['i3']:.3f}; embedded "
                f"layer I2 {rep_layer['i2']:.1e} = 0; constants degenerate")
    assert ok


def test_criterion_14_interpolation(capsys):
    from test_scaling import FROZEN_INTERPOLATION_CONSTANT, random_smooth_field
    g = Grid(1, 1.0 / 16.0, 8.0, ConstantExterior([(-1.0, 1.0)]))
    worst = 0.0
    count = 0
    for seed in range(50):
        rep = interpolation_check(random_smooth_field(seed, g), 4.0, 0.5)
        if not rep["degenerate"]:
            worst = max(worst, rep["ratio"])
            count += 1
    ok = worst <= FROZEN_INTERPOLATION_CONSTANT and count >= 45
    with capsys.disabled():
        verdict(14, "interpolation inequality", ok,
                f"max ratio {worst:.3f} <= frozen {FROZEN_INTERPOLATION_CONSTANT} "
                f"over {count} fields")
    assert ok


def test_criterion_15_determinism(tmp_path, capsys):
    def run_density(out):
        r = subprocess.run([sys.executable, "-m", "fracac.cli", "density",
                            "--h", "0.1", "--output-dir", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0

    out = tmp_path / "o"
    run_density(out)
    first = {p.name: p.read_bytes() for p in (out / "density").iterdir()
             if p.name != "timings.txt"}
    run_density(out)
    second = {p.name: p.read_bytes() for p in (out / "density").iterdir()
              if p.name != "timings.txt"}
    ok = first == second and len(first) >= 3
    with capsys.disabled():
        verdict(15, "determinism", ok,
                f"{len(first)} canonical outputs byte-identical on rerun")
    assert ok
