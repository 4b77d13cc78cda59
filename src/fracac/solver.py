"""Critical points of the energy: gradient flow, the 1D transition layer,
and first-variation consistency checks.

Flows run on the discrete operator that is the exact energy gradient, so
the energy trace is genuinely nonincreasing and a converged iterate
certifies a small residual of the same operator that the diagnostics use.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import chain
from typing import Optional

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, minres

from ._lattice import get_operator
from .energies import Potential, _pot_weight, sobolev_energy, potential_energy
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
    "SolveResult",
    "gradient_flow",
    "solve_layer_1d",
    "euler_lagrange_consistency",
    "residual_field",
]


@dataclass
class SolveResult:
    """A flow's last iterate and how it got there: `iterations` counts the
    steps taken, len(energy_trace) - 1."""
    field: ScalarField
    residual_sup: float
    iterations: int
    converged: bool
    energy_trace: list = dfield(default_factory=list)


def _residual(op, vals, W, pw, lu=None) -> np.ndarray:
    """L u + pw W'(u) on every node: the energy gradient (lu: L u if the
    caller has already applied the operator)."""
    return (op.apply(vals) if lu is None else lu) + pw * W.wp(vals)


def _gradient_and_energy(op, vals, W, pw) -> tuple[np.ndarray, float]:
    """The energy gradient and the energy it is the gradient of (pair part,
    tails and potential), from one `apply`."""
    lu = op.apply(vals)
    g, mom = op.grid, op.moments
    sob = 0.5 * g.cell_volume() * float((vals * lu + mom["t2"] - vals * mom["t1"]).sum())
    pot = pw * g.cell_volume() * float(W.w(vals).sum())
    return _residual(op, vals, W, pw, lu), sob + pot


def _wpp_max(W) -> float:
    """max |W''| sampled on a grid of [-1, 1] that holds -1, 0 and 1."""
    return float(np.max(np.abs(W.wpp(np.linspace(-1.0, 1.0, 2001)))))


def _stiffness_bound(op, W, pw) -> float:
    """2 max(diagonal) + pw max|W''|, a bound on the Jacobian L + pw W''(u)."""
    return 2.0 * float(np.max(op.diagonal)) + pw * _wpp_max(W)


def residual_field(u: ScalarField, spec: KernelSpec, W: Potential,
                   epsilon: float = 1.0) -> np.ndarray:
    """L u + epsilon^{-s} W'(u) on every node."""
    return _residual(get_operator(u.grid, spec), u.values, W, _pot_weight(epsilon, spec.s))


def _odd(y: np.ndarray) -> np.ndarray:
    return np.concatenate((-y[::-1], [0.0], y))


def _newton_step(op, vals, r, W, pw, odd=False) -> np.ndarray:
    """u + du with (L + pw W''(u)) du = -r solved by MINRES on raveled
    nodes, matrix-free on `stability_apply` (the convolution engine).
    odd=True (1D) takes the nodes right of the centre as unknowns and
    extends them oddly in the product."""
    sel = slice(vals.size // 2 + 1, None) if odd else slice(None)
    ext = _odd if odd else (lambda y: y.reshape(vals.shape))
    diag = pw * W.wpp(vals)
    b = -r.ravel()[sel]
    jac = LinearOperator((b.size,) * 2, dtype=float,
                         matvec=lambda y: op.stability_apply(ext(y), diag).ravel()[sel])
    du, info = minres(jac, b, rtol=1e-12)
    if info:
        raise NotConvergedError(f"MINRES hit its iteration limit ({info}) in a Newton step")
    return ext(vals.ravel()[sel] + du)


_ROUNDOFF_ULPS = 4  # acceptance slack of the flow, in ulp of the terms the energy sums


def _roundoff_slack(op, vals, e) -> float:
    """`_ROUNDOFF_ULPS` ulp of max(|e|, h^n sum diag u^2): the round-off of a
    sum scales with its terms, which stay O(1) as e goes to 0 on a well."""
    terms = op.grid.cell_volume() * float((op.diagonal * vals * vals).sum())
    return _ROUNDOFF_ULPS * float(np.spacing(max(abs(e), terms)))


def gradient_flow(seed: ScalarField, spec: KernelSpec, W: Potential,
                  epsilon: float = 1.0, residual_tol: float = 1e-8,
                  max_iterations: int = 5000) -> SolveResult:
    """Relax the seed toward a critical point of the energy.

    One loop serves every grid: until the residual is at most residual_tol
    (a NaN residual is not) or max_iterations steps are taken, the first
    trial whose energy is at most `_roundoff_slack` above the last is kept.
    A step with no such trial raises InstabilityError at once and appends
    nothing, so every trace difference is within that slack.
    The grid picks the trials, and the step size is derived.  Periodic
    grids try semi-implicit spectral steps of size 0.8/(pw max|W''|) 2^-k:
    the nonlocal part is implicit through the exact eigenvalues of the
    discrete operator, the potential explicit.  Exterior grids try a
    Newton–Krylov step below residual 1e-4, then explicit steps of size
    0.8/(stiffness bound) 2^-k.  One operator application per trial gives
    its energy, residual and next step.  A converged flow certifies a
    critical point, possibly unstable (the saddle tanh x tanh y in 2D):
    stability is `min_rayleigh`'s job.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if not np.all(np.isfinite(seed.values)):
        raise ConfigurationError("seed values must be finite")
    g = seed.grid
    op = get_operator(g, spec)
    pw = _pot_weight(epsilon, spec.s)
    vals = seed.values.copy()
    r, e = _gradient_and_energy(op, vals, W, pw)
    energy_trace = [e]
    res = float(np.max(np.abs(r)))

    if isinstance(g.boundary, Periodic):
        tau = 0.8 / (pw * _wpp_max(W))
        symbol = op.symbol()
        # the implicit resolvent averages values, and the explicit part is
        # monotone at these steps: iterates stay in [-1, 1] up to round-off
        monotone = bool(np.max(np.abs(vals)) <= 1.0 + 1e-12)

        def trials(vals, r, res):
            for k in range(30):
                t = tau * 0.5 ** k
                rhs = vals - t * pw * W.wp(vals)
                step = sfft.ifftn(sfft.fftn(rhs) / (1.0 + t * symbol)).real
                if monotone:
                    if np.max(np.abs(step)) > 1.0 + 1e-9:
                        raise InstabilityError("iterate escaped [-1, 1]", energy_trace)
                    step = np.clip(step, -1.0, 1.0)
                yield step
    else:
        tau = 0.8 / _stiffness_bound(op, W, pw)

        def trials(vals, r, res):
            newton = [_newton_step(op, vals, r, W, pw)] if res <= 1e-4 else []
            return chain(newton, (vals - tau * 0.5 ** k * r for k in range(30)))

    while not res <= residual_tol and len(energy_trace) <= max_iterations:
        slack = _roundoff_slack(op, vals, energy_trace[-1])
        for trial in trials(vals, r, res):
            trial_r, e = _gradient_and_energy(op, trial, W, pw)
            if e <= energy_trace[-1] + slack:
                break
        else:
            raise InstabilityError(
                f"line search found no trial with energy <= previous + "
                f"{_ROUNDOFF_ULPS} ulp of its terms ({slack:.3e}) at step "
                f"{len(energy_trace)}; residual {res:.3e}", energy_trace)
        vals, r = trial, trial_r
        energy_trace.append(e)
        res = float(np.max(np.abs(r)))

    return SolveResult(ScalarField(g, vals), res, len(energy_trace) - 1,
                       res <= residual_tol, energy_trace)


def solve_layer_1d(s: float, box_radius: float, h: float, tol: float = 1e-10,
                   W: Optional[Potential] = None, epsilon: float = 1.0,
                   seed: Optional[ScalarField] = None) -> ScalarField:
    """Monotone transition profile connecting -1 to +1 on a symmetric 1D grid.

    Uses the multiplier-normalized fractional kernel, exterior data -1/+1,
    a short pinned explicit flow, and Newton–Krylov on the convolution
    engine over the odd-reduced system, certified on |x| <= box_radius/2.
    Odd symmetry removes the soft translation direction and keeps the centre
    at exactly 0; `gradient_flow` on the layer's grid polishes all nodes.
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

    vals = _odd(vals[m + 1:])
    tau = 0.8 / _stiffness_bound(op, W, pw)
    for _ in range(60):
        vals = _odd(np.clip(vals - tau * _residual(op, vals, W, pw), -1.0, 1.0)[m + 1:])
    for _ in range(60):
        r = _residual(op, vals, W, pw)
        if np.max(np.abs(r)) <= max(tol * 1e-2, 1e-13):
            break
        vals = _newton_step(op, vals, r, W, pw, odd=True)

    inner = np.abs(x) <= box_radius / 2.0
    res_sup = float(np.max(np.abs(_residual(op, vals, W, pw)[inner])))
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
    grad = _residual(get_operator(g, spec), u.values, W, pw)
    d_pair = g.cell_volume() * float((grad * xi.values).sum())
    scale = max(abs(d_fd), abs(d_pair), 1e-300)
    return abs(d_fd - d_pair) / scale
