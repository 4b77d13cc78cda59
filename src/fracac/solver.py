"""Critical points of the energy: gradient flow, the 1D transition layer,
and first-variation consistency checks.

Flows run on the discrete operator that is the exact energy gradient, so
the energy trace is genuinely nonincreasing and a converged iterate
certifies a small residual of the same operator that the diagnostics use.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np
from scipy import fft as sfft

from ._lattice import fft_workers, get_operator
from .energies import Potential, sobolev_energy, potential_energy
from .errors import ConfigurationError, InstabilityError, NotConvergedError
from .fields import (
    BallRegion,
    ConstantExterior,
    Grid,
    Periodic,
    ScalarField,
)
from .kernels import KernelSpec

__all__ = [
    "SolveConfig",
    "SolveResult",
    "gradient_flow",
    "solve_layer_1d",
    "euler_lagrange_consistency",
    "residual_field",
]


@dataclass
class SolveConfig:
    epsilon: float = 1.0
    scheme: str = "semi_implicit_spectral"
    step: float = 0.2
    max_iterations: int = 5000
    residual_tol: float = 1e-8
    seed_field: Optional[ScalarField] = None

    def __post_init__(self):
        if self.scheme not in ("semi_implicit_spectral", "explicit_flow", "newton"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.epsilon <= 0 or self.step <= 0:
            raise ConfigurationError("epsilon and step must be positive")


@dataclass
class SolveResult:
    field: ScalarField
    residual_sup: float
    iterations: int
    converged: bool
    energy_trace: list = dfield(default_factory=list)


def _pot_weight(epsilon: float, s: float) -> float:
    return epsilon ** (-s)


def residual_field(u: ScalarField, spec: KernelSpec, W: Potential,
                   epsilon: float = 1.0) -> np.ndarray:
    """L u + epsilon^{-s} W'(u) on every node."""
    op = get_operator(u.grid, spec)
    return op.apply(u.values) + _pot_weight(epsilon, spec.s) * W.wp(u.values)


def _full_energy(op, values, W, pw) -> float:
    """Energy whose gradient is the flow map: pair part plus tails plus potential."""
    g = op.grid
    lu = op.apply(values)
    if isinstance(g.boundary, Periodic):
        sob = 0.5 * g.cell_volume() * float((values * lu).sum())
    else:
        mom = op.moments
        t1 = np.broadcast_to(mom["t1"], g.shape)
        t2 = np.broadcast_to(mom["t2"], g.shape)
        sob = 0.5 * g.cell_volume() * float((values * lu + t2 - values * t1).sum())
    pot = pw * g.cell_volume() * float(W.w(values).sum())
    return sob + pot


def gradient_flow(config: SolveConfig, spec: KernelSpec, W: Potential) -> SolveResult:
    """Relax the seed toward a critical point of the energy.

    semi_implicit_spectral treats the nonlocal part implicitly through the
    exact eigenvalues of the discrete operator (periodic grids); the
    potential is explicit.  explicit_flow works on any grid and checks the
    stiffness bound before starting.  newton runs explicit flow to a loose
    residual and then full Newton steps (1D exterior grids).
    """
    if config.seed_field is None:
        raise ConfigurationError("a seed field is required")
    u = config.seed_field
    g = u.grid
    op = get_operator(g, spec)
    pw = _pot_weight(config.epsilon, spec.s)
    tau = config.step
    wpp_max = float(np.max(np.abs(W.wpp(np.linspace(-1, 1, 2001)))))

    if config.scheme == "explicit_flow":
        if isinstance(g.boundary, Periodic):
            lbound = 2.0 * float(np.max(op.colsum))
        else:
            lbound = 2.0 * float(np.max(op.colsum + np.broadcast_to(op.moments["t0"], g.shape)))
        if tau * (lbound + pw * wpp_max) > 1.0:
            raise ConfigurationError(
                f"explicit step {tau} exceeds the stiffness bound "
                f"{1.0 / (lbound + pw * wpp_max):.3g}")

    vals = u.values.copy()
    energy_trace = [_full_energy(op, vals, W, pw)]
    res = np.inf
    increases = 0
    it = 0

    if config.scheme == "semi_implicit_spectral":
        if not isinstance(g.boundary, Periodic):
            raise ConfigurationError("the spectral scheme needs a periodic grid")
        symbol = op.symbol()
        in_range = bool(np.max(np.abs(vals)) <= 1.0 + 1e-12)
        for it in range(1, config.max_iterations + 1):
            rhs = vals - tau * pw * W.wp(vals)
            with sfft.set_workers(fft_workers()):
                vals = sfft.ifftn(sfft.fftn(rhs) / (1.0 + tau * symbol)).real
            if in_range and tau * pw * wpp_max <= 1.0:
                # the implicit resolvent averages values, the explicit part
                # is monotone at this step size; allow round-off slack only
                if np.max(np.abs(vals)) > 1.0 + 1e-9:
                    raise InstabilityError("iterate escaped [-1, 1]", energy_trace)
                vals = np.clip(vals, -1.0, 1.0)
            e = _full_energy(op, vals, W, pw)
            if e > energy_trace[-1] + 1e-10:
                increases += 1
                if increases >= 10:
                    raise InstabilityError("energy increased for 10 steps", energy_trace)
            else:
                increases = 0
            energy_trace.append(e)
            res = float(np.max(np.abs(op.apply(vals) + pw * W.wp(vals))))
            if res <= config.residual_tol:
                break
    else:
        newton_phase = config.scheme == "newton"
        flow_target = max(config.residual_tol, 1e-4) if newton_phase else config.residual_tol
        for it in range(1, config.max_iterations + 1):
            r = op.apply(vals) + pw * W.wp(vals)
            res = float(np.max(np.abs(r)))
            if res <= flow_target:
                break
            trial_tau = tau
            for _ in range(30):
                trial = vals - trial_tau * r
                e = _full_energy(op, trial, W, pw)
                if e <= energy_trace[-1] + 1e-14:
                    break
                trial_tau *= 0.5
            else:
                increases += 1
                if increases >= 10:
                    raise InstabilityError("energy increased for 10 steps", energy_trace)
            vals = vals - trial_tau * r
            energy_trace.append(_full_energy(op, vals, W, pw))
        if newton_phase and res > config.residual_tol:
            if g.n != 1 or isinstance(g.boundary, Periodic):
                raise ConfigurationError("newton refinement runs on 1D exterior grids")
            A = op.dense_matrix()
            t1 = op.moments["t1"]
            for _ in range(40):
                it += 1
                r = A @ vals - t1 + pw * W.wp(vals)
                res = float(np.max(np.abs(r)))
                if res <= config.residual_tol:
                    break
                J = A + np.diag(pw * W.wpp(vals))
                vals = vals + np.linalg.solve(J, -r)
                energy_trace.append(_full_energy(op, vals, W, pw))

    out = ScalarField(g, vals)
    converged = res <= config.residual_tol
    return SolveResult(out, res, it, converged, energy_trace)


def solve_layer_1d(s: float, box_radius: float, h: float, tol: float = 1e-10,
                   W: Optional[Potential] = None, epsilon: float = 1.0,
                   seed: Optional[ScalarField] = None,
                   pin_odd: bool = True) -> ScalarField:
    """Monotone transition profile connecting -1 to +1 on a symmetric 1D grid.

    Uses the multiplier-normalized fractional kernel, exterior data -1/+1,
    a short pinned explicit flow, and Newton refinement on the odd-reduced
    system (odd symmetry removes the soft translation direction).  The
    residual is certified on the inner half of the box.
    """
    if not (0.0 < s < 1.0):
        raise ConfigurationError("layer order must lie in (0, 1)")
    if box_radius < 20.0:
        raise ConfigurationError("layers need box_radius >= 20 for tail room")
    if W is None:
        W = Potential.quartic()
    grid = Grid(1, h, box_radius, ConstantExterior([(-1.0, 1.0)]), centered=True)
    spec = KernelSpec.fractional_unit(s, 1)
    op = get_operator(grid, spec)
    x = grid.axis_coords()
    m = grid.half_count
    pw = _pot_weight(epsilon, s)

    if seed is not None:
        vals = np.interp(x, seed.grid.axis_coords(), seed.values)
    else:
        vals = np.tanh(x / (2.0 * epsilon))

    A = op.dense_matrix()
    t1 = op.moments["t1"]

    def pin(v):
        v = v.copy()
        v[m] = 0.0
        v[:m] = -v[m + 1:][::-1]
        return v

    def res(v):
        return A @ v - t1 + pw * W.wp(v)

    if pin_odd:
        vals = pin(vals)
        lbound = 2.0 * float(np.max(np.diag(A)))
        tau = 0.8 / (lbound + pw * float(np.max(np.abs(W.wpp(np.linspace(-1, 1, 801))))))
        for _ in range(60):
            vals = pin(np.clip(vals - tau * res(vals), -1.0, 1.0))
        idx = np.arange(m + 1, grid.nodes_per_axis)
        mirror = np.arange(m - 1, -1, -1)
        for _ in range(60):
            r = res(vals)
            if np.max(np.abs(r)) <= max(tol * 1e-2, 1e-13):
                break
            J = A + np.diag(pw * W.wpp(vals))
            J_red = J[np.ix_(idx, idx)] - J[np.ix_(idx, mirror)]
            vals[idx] += np.linalg.solve(J_red, -r[idx])
            vals = pin(vals)
    else:
        for _ in range(60):
            r = res(vals)
            if np.max(np.abs(r)) <= max(tol * 1e-2, 1e-13):
                break
            J = A + np.diag(pw * W.wpp(vals))
            vals += np.linalg.solve(J, -r)

    inner = np.abs(x) <= box_radius / 2.0
    res_sup = float(np.max(np.abs(res(vals)[inner])))
    if res_sup > tol:
        raise NotConvergedError(f"layer residual {res_sup:.2e} above {tol:.2e}")
    if not np.all(np.diff(vals) > 0):
        raise NotConvergedError("layer profile is not strictly increasing")
    return ScalarField(grid, vals, range_hint=(-1.0, 1.0))


def euler_lagrange_consistency(u: ScalarField, xi: ScalarField, spec: KernelSpec,
                               W: Potential, epsilon: float = 1.0,
                               region: Optional[BallRegion] = None) -> float:
    """Relative gap between the finite-difference energy derivative and the
    pairing of the operator with the perturbation.

    The perturbation must be compactly supported in the region; the energy
    is the localized one over that region, so the identity is exact up to
    the O(tau^2) truncation of the central difference.
    """
    g = u.grid
    if region is None:
        region = BallRegion((0.0,) * g.n, g.box_radius / 2.0)
    mask = region.mask(g)
    if np.any(xi.values[~mask] != 0.0):
        raise ConfigurationError("perturbation must vanish outside the region")
    pw = _pot_weight(epsilon, spec.s)
    tau = 1e-5

    def energy(v):
        f = u.copy_with(v)
        return sobolev_energy(f, region, spec) + potential_energy(f, region, W, epsilon, spec.s)

    d_fd = (energy(u.values + tau * xi.values) - energy(u.values - tau * xi.values)) / (2.0 * tau)
    op = get_operator(g, spec)
    grad = op.apply(u.values) + pw * W.wp(u.values)
    d_pair = g.cell_volume() * float((grad * xi.values).sum())
    scale = max(abs(d_fd), abs(d_pair), 1e-300)
    return abs(d_fd - d_pair) / scale
