"""Gradient flow, the layer profile, and first-variation consistency."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracac import (
    BallRegion,
    ConstantExterior,
    Grid,
    KernelSpec,
    ScalarField,
    euler_lagrange_consistency,
    gradient_flow,
    make_grid,
    residual_field,
    solve_layer_1d,
)
from fracac import solver
from fracac.energies import potential_energy, sobolev_energy
from fracac.errors import ConfigurationError, InstabilityError, NotConvergedError
from fracac._lattice import DiscreteOperator, get_operator
from conftest import dense_matrix


def flow(seed, spec, W, **kwargs):
    """gradient_flow, checking that `iterations` counts the steps taken."""
    out = gradient_flow(seed, spec, W, **kwargs)
    assert out.iterations == len(out.energy_trace) - 1
    return out


def test_constant_well_is_fixed_point(quartic):
    """A converged seed takes no step, on either kind of grid."""
    for g in (make_grid(1, 4.0, 0.125), Grid(1, 0.125, 4.0, ConstantExterior([(1.0, 1.0)]))):
        seed = ScalarField(g, np.ones(g.shape))
        out = flow(seed, KernelSpec.fractional_unit(0.5, 1), quartic,
                   max_iterations=50, residual_tol=1e-12)
        assert out.converged and out.iterations == 0
        assert np.array_equal(out.field.values, seed.values)


@pytest.mark.parametrize("grid", [make_grid(1, 4.0, 0.125),
                                  Grid(1, 0.125, 4.0, ConstantExterior([(1.0, 1.0)]))],
                         ids=["periodic", "exterior"])
def test_flow_rejects_a_non_finite_seed(grid, quartic):
    vals = np.ones(grid.shape)
    vals[3] = np.nan
    with pytest.raises(ConfigurationError, match="finite"):
        gradient_flow(ScalarField(grid, vals), KernelSpec.fractional_unit(0.5, 1), quartic)


@pytest.mark.parametrize("n,h,R", [(1, 0.125, 8.0), (2, 0.25, 4.0)], ids=["1d", "2d"])
def test_flow_converges_onto_a_well_of_zero_energy(n, h, R, quartic):
    """E -> 0 while the terms it sums stay O(1): a slack in ulp of |E| alone
    shrinks below their round-off and stalls the line search."""
    g = Grid(n, h, R, ConstantExterior([(1.0, 1.0)] * n))
    seed = ScalarField(g, (1.0 - 0.5 * np.exp(-np.sum(g.coords() ** 2, axis=1))).reshape(g.shape))
    out = flow(seed, KernelSpec.fractional_unit(0.5, n), quartic, residual_tol=1e-10)
    assert out.converged and out.iterations < 100
    assert abs(out.energy_trace[-1]) <= 1e-12


def test_middle_well_flows_away(quartic):
    g = make_grid(1, 8.0, 0.125)
    rng = np.random.default_rng(0)
    seed = ScalarField(g, 1e-3 * rng.normal(size=g.shape))
    out = flow(seed, KernelSpec.fractional_unit(0.5, 1), quartic,
               max_iterations=400, residual_tol=1e-12)
    tr = np.array(out.energy_trace)
    assert np.all(np.diff(tr) <= 1e-10)
    assert np.max(np.abs(out.field.values)) > 0.5  # left the unstable well


def test_periodic_flow_reaches_layer_pair(quartic):
    g = make_grid(1, 8.0, 1.0 / 16.0)
    x = g.axis_coords()
    seed = ScalarField(g, np.clip(np.sin(np.pi * x / 8.0), -1.0, 1.0))
    spec = KernelSpec.fractional_unit(0.5, 1)
    out = flow(seed, spec, quartic, max_iterations=5000, residual_tol=1e-9)
    assert out.converged
    res = residual_field(out.field, spec, quartic)
    assert np.max(np.abs(res)) <= 1e-9
    assert np.max(np.abs(out.field.values)) <= 1.0 + 1e-9


def test_periodic_flow_from_beyond_the_wells(quartic):
    """At |u| = 3, W'' exceeds the bound the semi-implicit step is sized for:
    the full step overflows, and the line search halves it instead."""
    g = make_grid(1, 8.0, 1.0 / 16.0)
    seed = ScalarField(g, 3.0 * np.sin(np.pi * g.axis_coords() / 8.0))
    spec = KernelSpec.fractional_unit(0.5, 1)
    out = flow(seed, spec, quartic, residual_tol=1e-9)
    assert out.converged and out.residual_sup <= 1e-9
    slack = solver._roundoff_slack(get_operator(g, spec), out.field.values, out.energy_trace[-1])
    assert np.all(np.diff(out.energy_trace) <= slack)


def _exterior_seed_1d():
    g = Grid(1, 0.125, 8.0, ConstantExterior([(-1.0, 1.0)]))
    return ScalarField(g, np.clip(g.axis_coords() / 4.0, -1.0, 1.0))


def test_flow_with_newton_refinement_on_exterior_grid(quartic):
    spec = KernelSpec.fractional_unit(0.5, 1)
    out = flow(_exterior_seed_1d(), spec, quartic, residual_tol=1e-9, max_iterations=2000)
    assert out.converged and out.residual_sup <= 1e-9
    # the flow phase is genuinely monotone before the refinement kicks in
    tr = np.array(out.energy_trace[:50])
    assert np.all(np.diff(tr) <= 1e-10)


def test_capped_flow_reports_the_residual_of_the_returned_field(quartic):
    spec = KernelSpec.fractional_unit(0.5, 1)
    out = flow(_exterior_seed_1d(), spec, quartic, residual_tol=1e-9, max_iterations=3)
    assert out.iterations == 3 and not out.converged
    assert out.residual_sup == np.max(np.abs(residual_field(out.field, spec, quartic)))


def test_flows_apply_the_operator_once_per_iterate(monkeypatch, quartic):
    calls = []
    apply = DiscreteOperator.apply
    monkeypatch.setattr(DiscreteOperator, "apply",
                        lambda self, v: calls.append(1) or apply(self, v))
    spec = KernelSpec.fractional_unit(0.5, 1)
    g = make_grid(1, 8.0, 0.125)
    seed = ScalarField(g, 1e-3 * np.random.default_rng(0).normal(size=g.shape))
    out = flow(seed, spec, quartic, residual_tol=1e-12, max_iterations=400)
    assert out.converged and len(calls) == len(out.energy_trace)
    # the 1D exterior flow's line search accepts every first trial here
    calls.clear()
    out = flow(_exterior_seed_1d(), spec, quartic, residual_tol=1e-4, max_iterations=300)
    assert len(calls) == len(out.energy_trace)


def _exterior_seed_2d(h, R):
    g = Grid(2, h, R, ConstantExterior([(-1.0, 1.0), (-1.0, 1.0)]))
    x = np.meshgrid(g.axis_coords(), g.axis_coords(), indexing="ij")[0]
    return ScalarField(g, np.clip(x / 2.0, -1.0, 1.0))


# h = 0.5, R = 16 (64^2): at energy 287 one ulp is 5.7e-14, so an acceptance
# slack below one ulp stalls this flow once its decrease per step is round-off
@pytest.mark.parametrize("h,R,tol", [(0.25, 2.0, 1e-8), (0.5, 16.0, 1e-10)],
                         ids=["h0.25-R2", "h0.5-R16"])
def test_flow_on_2d_exterior_grid(h, R, tol, quartic):
    spec = KernelSpec.fractional_unit(0.5, 2)
    out = flow(_exterior_seed_2d(h, R), spec, quartic, residual_tol=tol)
    assert out.converged
    assert np.all(np.diff(out.energy_trace) <= 1e-14)
    assert out.residual_sup == np.max(np.abs(residual_field(out.field, spec, quartic)))


def test_flow_rejects_an_uphill_newton_trial(monkeypatch, quartic):
    """Every other Newton trial is pushed uphill; the flow must take the
    explicit step instead and still converge with a nonincreasing trace."""
    calls = []
    newton = solver._newton_step

    def uphill_every_other(op, vals, r, W, pw):
        calls.append(1)
        return newton(op, vals, r, W, pw) + (0.1 if len(calls) % 2 else 0.0)

    monkeypatch.setattr(solver, "_newton_step", uphill_every_other)
    spec = KernelSpec.fractional_unit(0.5, 2)
    seed = _exterior_seed_2d(0.25, 2.0)
    out = flow(seed, spec, quartic, residual_tol=1e-10)
    assert out.converged and len(calls) >= 3
    assert np.all(np.diff(out.energy_trace) <= 1e-14)
    # each rejected trial costs the flow one more iterate than the plain run
    monkeypatch.setattr(solver, "_newton_step", newton)
    assert out.iterations > flow(seed, spec, quartic, residual_tol=1e-10).iterations


def test_failed_line_search_says_what_happened(monkeypatch, quartic):
    """Energies level to round-off but creep: each evaluation is 2 x the
    acceptance slack above the last, so no trial passes, yet nothing
    diverges.  The first failed search raises, and the trace keeps only
    accepted energies: the seed's."""
    level = [287.0]
    real = solver._gradient_and_energy

    def creeping(op, vals, W, pw):
        level[0] += 2 * solver._roundoff_slack(op, vals, level[0])
        return real(op, vals, W, pw)[0], level[0]

    monkeypatch.setattr(solver, "_gradient_and_energy", creeping)
    spec = KernelSpec.fractional_unit(0.5, 1)
    with pytest.raises(InstabilityError) as err:
        gradient_flow(_exterior_seed_1d(), spec, quartic, max_iterations=50)
    trace = err.value.energy_trace
    assert len(trace) == 1 and trace[0] < level[0]
    msg = str(err.value)
    assert "increased" not in msg
    assert (f"line search found no trial with energy <= previous + "
            f"{solver._ROUNDOFF_ULPS} ulp of its terms (") in msg
    assert ") at step 1; residual " in msg


def test_flow_determinism(quartic):
    g = make_grid(1, 8.0, 0.125)
    rng = np.random.default_rng(42)
    vals = np.clip(0.5 * rng.normal(size=g.shape), -1, 1)
    spec = KernelSpec.fractional_unit(0.5, 1)
    outs = []
    for _ in range(2):
        seed = ScalarField(g, vals.copy())
        outs.append(flow(seed, spec, quartic, max_iterations=500, residual_tol=1e-10))
    assert np.array_equal(outs[0].field.values, outs[1].field.values)
    assert outs[0].energy_trace == outs[1].energy_trace


def test_layer_basic_contract(layer_s05, quartic):
    x = layer_s05.grid.axis_coords()
    m = layer_s05.grid.half_count
    assert layer_s05.values[m] == 0.0
    assert np.all(np.diff(layer_s05.values) > 0)
    assert np.all(np.abs(layer_s05.values) < 1.0)
    res = residual_field(layer_s05, KernelSpec.fractional_unit(0.5, 1), quartic)
    assert np.max(np.abs(res[np.abs(x) <= 20.0])) <= 1e-10


def test_layer_unpinned_resolve_keeps_odd_symmetry(quartic):
    # a loose layer leaves the flow's Newton phase steps to take on all nodes
    phi = solve_layer_1d(0.5, 20.0, 0.1, tol=1e-3)
    out = flow(phi, KernelSpec.fractional_unit(0.5, 1), quartic, residual_tol=1e-11)
    assert out.converged and len(out.energy_trace) > 1
    phi2 = out.field
    m = phi2.grid.half_count
    assert abs(phi2.values[m]) <= 1e-8
    assert np.max(np.abs(phi2.values + phi2.values[::-1])) <= 1e-8


def test_layer_rejects_small_box():
    with pytest.raises(ConfigurationError):
        solve_layer_1d(0.5, 10.0, 0.1)


def _dense_newton(op, vals, W, thr, odd, steps=60):
    """Oracle: Newton with an LU solve of the assembled Jacobian (the odd-
    reduced block J[idx, idx] - J[idx, mirror] when odd), on raveled nodes."""
    A, t1 = dense_matrix(op), op.moments["t1"].ravel()
    vals = vals.ravel().copy()
    m = vals.size // 2
    idx, mirror = np.arange(m + 1, vals.size), np.arange(m - 1, -1, -1)
    for _ in range(steps):
        r = A @ vals - t1 + W.wp(vals)
        if np.max(np.abs(r)) <= thr:
            return vals
        J = A + np.diag(W.wpp(vals))
        if odd:
            vals[idx] += np.linalg.solve(J[np.ix_(idx, idx)] - J[np.ix_(idx, mirror)], -r[idx])
            vals[:m] = -vals[idx][::-1]
        else:
            vals += np.linalg.solve(J, -r)
    raise AssertionError("dense oracle did not converge")


def _dense_layer(h, quartic, seed=None):
    """The layer by the dense route: pinned explicit flow, then the odd-reduced
    LU Newton; with a seed, LU Newton on all nodes from the seed."""
    g = Grid(1, h, 40.0, ConstantExterior([(-1.0, 1.0)]), centered=True)
    op = get_operator(g, KernelSpec.fractional_unit(0.5, 1))
    if seed is not None:
        return _dense_newton(op, seed.values, quartic, 1e-12, odd=False)
    A, t1 = dense_matrix(op), op.moments["t1"]
    m = g.half_count
    vals = np.tanh(g.axis_coords() / 2.0)
    vals[m], vals[:m] = 0.0, -vals[m + 1:][::-1]
    tau = 0.8 / (2.0 * np.max(np.diag(A)) + np.max(np.abs(quartic.wpp(np.linspace(-1, 1, 801)))))
    for _ in range(60):
        vals = np.clip(vals - tau * (A @ vals - t1 + quartic.wp(vals)), -1.0, 1.0)
        vals[m], vals[:m] = 0.0, -vals[m + 1:][::-1]
    return _dense_newton(op, vals, quartic, 1e-12, odd=True)


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_layer_newton_krylov_matches_dense_lu(h, quartic):
    phi = solve_layer_1d(0.5, 40.0, h, tol=1e-10)
    assert np.max(np.abs(phi.values - _dense_layer(h, quartic))) <= 1e-10
    # all nodes from a loose layer: the flow's Newton phase against LU Newton
    loose = solve_layer_1d(0.5, 40.0, h, tol=1e-3)
    full = flow(loose, KernelSpec.fractional_unit(0.5, 1), quartic, residual_tol=1e-11)
    assert full.converged
    assert np.max(np.abs(full.field.values - _dense_layer(h, quartic, seed=loose))) <= 1e-10


def test_flow_newton_krylov_matches_dense_lu(quartic):
    """The exterior flow's Newton phase agrees with LU Newton from the same
    flowed iterate (explicit flow to the 1e-4 hand-over residual), in 1D and
    on a 16^2 grid, whose dense matrix reproduces the operator."""
    for seed, spec in ((_exterior_seed_1d(), KernelSpec.fractional_unit(0.5, 1)),
                       (_exterior_seed_2d(0.25, 2.0), KernelSpec.fractional_unit(0.5, 2))):
        op = get_operator(seed.grid, spec)
        v = seed.values
        assert np.allclose(dense_matrix(op) @ v.ravel() - op.moments["t1"].ravel(),
                           op.apply(v).ravel(), rtol=0.0, atol=1e-12)
        out = flow(seed, spec, quartic, residual_tol=1e-9, max_iterations=2000)
        flowed = flow(seed, spec, quartic, residual_tol=1e-4, max_iterations=2000)
        oracle = _dense_newton(op, flowed.field.values, quartic, 1e-13, odd=False)
        assert out.converged and len(out.energy_trace) > len(flowed.energy_trace)
        assert np.max(np.abs(out.field.values.ravel() - oracle)) <= 1e-10


def test_newton_paths_never_assemble_the_dense_matrix(monkeypatch, quartic):
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve called")

    for name in ("solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    phi = solve_layer_1d(0.5, 20.0, 0.1, tol=1e-3)
    assert flow(phi, KernelSpec.fractional_unit(0.5, 1), quartic, residual_tol=1e-11).converged
    out = flow(_exterior_seed_1d(), KernelSpec.fractional_unit(0.5, 1), quartic,
               residual_tol=1e-9, max_iterations=2000)
    assert out.converged


def test_krylov_solve_short_of_its_residual_raises(monkeypatch):
    """A MINRES solve stopped by its iteration limit is an error, not a step."""
    import fracac.solver as solver

    minres = solver.minres
    monkeypatch.setattr(solver, "minres", lambda A, b, **kw: minres(A, b, maxiter=2, **kw))
    with pytest.raises(NotConvergedError):
        solve_layer_1d(0.5, 20.0, 0.1, tol=1e-9)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_layer_solve_memory_stays_matrix_free():
    """A fresh process solving the h = 0.0125 layer (6401 nodes) peaks far
    below one dense Jacobian (6401^2 doubles = 328 MB; the LU path peaked at
    1.1 GB); the import alone takes about 68 MB.  The child reports VmHWM of
    its own address space: its ru_maxrss would keep the high-water mark of
    the forking test process across exec."""
    code = ("from fracac import solve_layer_1d; solve_layer_1d(0.5, 40.0, 0.0125); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, check=True)
    assert int(out.stdout) / 1024.0 <= 150.0


def test_layer_tail_exponents(layer_s05, layer_s03):
    for phi, s in ((layer_s05, 0.5), (layer_s03, 0.3)):
        x = phi.grid.axis_coords()
        sel = (x >= 10.0) & (x <= 20.0)
        slope = np.polyfit(np.log(x[sel]), np.log(1.0 - phi.values[sel]), 1)[0]
        assert abs(slope + s) <= 0.1


def test_layer_translation_mode_mean_value_identity(layer_s05, quartic):
    """Difference quotients of the profile satisfy the differenced equation
    exactly up to the boundary-shift budget; the curvature-coefficient form
    holds at the honest O(h) tolerance only."""
    g = layer_s05.grid
    spec = KernelSpec.fractional_unit(0.5, 1)
    op = get_operator(g, spec)
    A = dense_matrix(op)
    t1 = op.moments["t1"]
    vals = layer_s05.values
    x = g.axis_coords()
    dq = (vals[2:] - vals[:-2]) / (2.0 * g.h)       # centered difference quotient
    # exact identity: L dq + [W'(u(.+h)) - W'(u(.-h))]/(2h) = 0 away from the box edge
    lhs = (A @ vals - t1 + quartic.wp(vals))
    shifted = (lhs[2:] - lhs[:-2]) / (2.0 * g.h)    # difference of residuals = 0
    assert np.max(np.abs(shifted)) <= 1e-9

    # curvature form: L dq + W''(u) dq, honest tolerance O(h)
    full_dq = np.zeros_like(vals)
    full_dq[1:-1] = dq
    r = A @ full_dq + quartic.wpp(vals) * full_dq
    inner = np.abs(x) <= 15.0
    assert np.max(np.abs(r[inner])) <= 10.0 * g.h


def test_el_consistency_random_and_zero(quartic):
    rng = np.random.default_rng(8)
    g = Grid(1, 0.1, 8.0, ConstantExterior([(-1.0, 1.0)]))
    x = g.axis_coords()
    region = BallRegion((0.0,), 4.0)
    mask = region.mask(g).ravel()
    spec = KernelSpec.fractional(0.5)
    worst = 0.0
    for _ in range(5):
        u = ScalarField(g, np.clip(np.tanh(x) + 0.3 * rng.normal(size=x.size), -1, 1))
        xi_vals = np.zeros_like(x)
        xi_vals[mask] = rng.normal(size=mask.sum())
        res = euler_lagrange_consistency(u, ScalarField(g, xi_vals), spec, quartic,
                                         region=region)
        worst = max(worst, res)
    assert worst <= 1e-6

    zero_xi = ScalarField(g, np.zeros(g.shape))
    u = ScalarField(g, np.tanh(x))
    # both sides vanish identically for a zero perturbation
    res = euler_lagrange_consistency(u, zero_xi, spec, quartic, region=region)
    assert res == 0.0


def test_el_consistency_at_critical_point(layer_s05, quartic):
    """At a converged solution both derivative routes vanish; assert the
    absolute gap against the energy scale (the relative form is 0/0)."""
    rng = np.random.default_rng(3)
    g = layer_s05.grid
    region = BallRegion((0.0,), 10.0)
    mask = region.mask(g).ravel()
    xi_vals = np.zeros(g.node_count)
    xi_vals[mask] = rng.normal(size=mask.sum())
    xi = ScalarField(g, xi_vals)
    spec = KernelSpec.fractional_unit(0.5, 1)
    tau = 1e-5

    def energy(v):
        f = layer_s05.copy_with(v)
        return (sobolev_energy(f, region, spec)
                + potential_energy(f, region, quartic))

    d_fd = (energy(layer_s05.values + tau * xi.values)
            - energy(layer_s05.values - tau * xi.values)) / (2 * tau)
    op = get_operator(g, spec)
    grad = op.apply(layer_s05.values) + quartic.wp(layer_s05.values)
    d_pair = g.cell_volume() * float((grad * xi.values).sum())
    scale = energy(layer_s05.values)
    assert abs(d_fd - d_pair) <= 1e-6 * scale
    assert abs(d_pair) <= 1e-6 * scale


def test_el_consistency_rejects_unsupported_perturbation(quartic):
    g = Grid(1, 0.25, 4.0, ConstantExterior([(1.0, 1.0)]))
    u = ScalarField(g, np.zeros(g.shape))
    xi = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ConfigurationError):
        euler_lagrange_consistency(u, xi, KernelSpec.fractional(0.5), quartic,
                                   region=BallRegion((0.0,), 2.0))


def test_epsilon_family_by_newton(quartic, layer_s05):
    """Rescaled seeds converge in a couple of Newton steps; the family
    members certify small residuals of their own-scale equations."""
    eps = 0.5
    phi = solve_layer_1d(0.5, 40.0, 0.05, tol=1e-9, epsilon=eps, seed=layer_s05)
    spec = KernelSpec.fractional_unit(0.5, 1)
    r = residual_field(phi, spec, quartic, epsilon=eps)
    x = phi.grid.axis_coords()
    assert np.max(np.abs(r[np.abs(x) <= 20.0])) <= 1e-9
    # the eps-layer matches the rescaled unit layer where the rescale is defined
    inside = np.abs(x) <= eps * 40.0 - 1.0
    ref = np.interp(x[inside] / eps, x, layer_s05.values)
    assert np.max(np.abs(phi.values[inside] - ref)) <= 0.02
