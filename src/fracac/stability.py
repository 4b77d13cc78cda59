"""Second-variation forms, Rayleigh-quotient minimization, the gradient-test
inequality, and perimeter stability of deformed sets.

All quadratic forms extend perturbations by zero outside the box; the
exterior enters only through the kernel mass each node sees there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, lobpcg

from ._lattice import _free_twin, get_operator
from .energies import Potential, fractional_perimeter
from .errors import ConfigurationError, FlowError
from .fields import (
    BallRegion,
    Grid,
    IndicatorSet,
    Periodic,
    ScalarField,
    gradient_components,
)
from .kernels import KernelSpec
from .solver import _pot_weight, residual_field

__all__ = [
    "StabilityReport",
    "VectorFieldSpec",
    "second_variation",
    "min_rayleigh",
    "gradient_test_inequality",
    "flow_map",
    "perimeter_stability_quotients",
]


@dataclass
class StabilityReport:
    min_rayleigh: float
    witness: ScalarField
    iterations: int
    region: BallRegion
    converged: bool = True


@dataclass
class VectorFieldSpec:
    """A smooth compactly supported vector field x -> R^n."""

    components: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        out = np.asarray(self.components(pts), dtype=float)
        r = np.linalg.norm(pts, axis=1)
        out[r > self.support_radius] = 0.0
        return out


def second_variation(u: ScalarField, xi: ScalarField, spec: KernelSpec,
                     W: Potential, epsilon: float = 1.0) -> float:
    """Q(xi) = half the full-space pair sum of xi plus the W'' weighted mass."""
    if not u.grid.same_layout(xi.grid):
        raise ConfigurationError("perturbation must live on the field's grid")
    op = get_operator(u.grid, spec)
    pair = op.quadratic_form(xi.values)
    pw = _pot_weight(epsilon, spec.s)
    pot = pw * u.grid.cell_volume() * float((W.wpp(u.values) * xi.values ** 2).sum())
    return pair + pot


def _stability_matrix_1d(u: ScalarField, region_idx, spec, W, epsilon):
    g = u.grid
    op = get_operator(g, spec)
    if isinstance(g.boundary, Periodic):
        op = _free_twin(op)
    A = op.dense_matrix()
    pw = _pot_weight(epsilon, spec.s)
    A = A + np.diag(pw * W.wpp(u.values))
    sub = A[np.ix_(region_idx, region_idx)]
    return 0.5 * (sub + sub.T)


def min_rayleigh(u: ScalarField, region: BallRegion, spec: KernelSpec,
                 W: Potential, epsilon: float = 1.0,
                 iterations: int = 300) -> StabilityReport:
    """Approximate minimum of Q(xi)/||xi||^2 over xi supported in the region.

    The returned value is recomputed from the witness, so it is always a
    certified upper bound for the true minimum.  1D grids run shifted
    inverse-power iteration on the dense restricted matrix; 2D grids run
    a matrix-free block eigensolver.
    """
    g = u.grid
    mask = region.mask(g)
    if not mask.any():
        raise ConfigurationError("region contains no nodes")
    pw = _pot_weight(epsilon, spec.s)

    if g.n == 1:
        idx = np.flatnonzero(mask.ravel())
        A = _stability_matrix_1d(u, idx, spec, W, epsilon)
        # Gershgorin lower bound gives a safe inverse-power shift
        off = np.sum(np.abs(A), axis=1) - np.abs(np.diag(A))
        sigma = float(np.min(np.diag(A) - off)) - 0.5
        lu = lu_factor(A - sigma * np.eye(len(A)))
        rng = np.random.default_rng(0)
        v = rng.normal(size=len(A))
        v /= np.linalg.norm(v)
        lam_old = np.inf
        it = 0
        for it in range(1, iterations + 1):
            v = lu_solve(lu, v)
            v /= np.linalg.norm(v)
            lam = float(v @ (A @ v))
            if abs(lam - lam_old) < 1e-13 * max(1.0, abs(lam)):
                break
            lam_old = lam
        witness_vals = np.zeros(g.node_count)
        witness_vals[idx] = v
        witness = ScalarField(g, witness_vals.reshape(g.shape))
        lam_cert = second_variation(u, witness, spec, W, epsilon) / \
            (g.cell_volume() * float((witness.values ** 2).sum()))
        return StabilityReport(lam_cert, witness, it, region,
                               converged=it < iterations)

    op = get_operator(g, spec)
    diag = pw * W.wpp(u.values)
    flat_mask = mask.ravel()
    ndof = int(flat_mask.sum())

    def apply_restricted(vec):
        xi = np.zeros(g.node_count)
        xi[flat_mask] = vec
        out = op.stability_apply(xi.reshape(g.shape), diag).ravel()
        return out[flat_mask]

    linop = LinearOperator((ndof, ndof),
                           matvec=lambda v: apply_restricted(np.asarray(v).ravel()))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(ndof, 3))
    tol = 1e-8
    res = lobpcg(linop, X, largest=False, maxiter=iterations, tol=tol,
                 retResidualNormsHistory=True)
    if len(res) == 2:
        # below 5 dofs per block vector scipy solves densely and keeps no history
        (vals, vecs), done, converged = res, 0, True
    else:
        vals, vecs, history = res
        # the history holds the residuals of iterates 0..k, k being the block
        # update that lobpcg returns (at most maxiter + 1), then one row of
        # post-processed residuals; so k = len(history) - 2
        done = min(len(history) - 2, iterations)
        converged = bool(np.all(np.asarray(history[-1]) <= tol))
    order = np.argsort(vals)
    v = vecs[:, order[0]]
    witness_vals = np.zeros(g.node_count)
    witness_vals[flat_mask] = v
    witness = ScalarField(g, witness_vals.reshape(g.shape))
    lam_cert = second_variation(u, witness, spec, W, epsilon) / \
        (g.cell_volume() * float((witness.values ** 2).sum()))
    return StabilityReport(lam_cert, witness, done, region, converged)


def _smooth_cut(r: np.ndarray) -> np.ndarray:
    """1 on [0, 2], 0 beyond 3, smooth in between."""
    out = np.ones_like(r)
    mid = (r > 2.0) & (r < 3.0)
    out[mid] = np.cos(0.5 * np.pi * (r[mid] - 2.0)) ** 2
    out[r >= 3.0] = 0.0
    return out


def gradient_cutoff(grid: Grid) -> np.ndarray:
    """Product cutoff: smooth bump of the first two coordinates' radius times
    bumps of each remaining coordinate."""
    if grid.n < 2:
        raise ConfigurationError("the gradient-test cutoff needs n >= 2")
    pts = grid.coords()
    psi = _smooth_cut(np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2))
    for ax in range(2, grid.n):
        psi = psi * _smooth_cut(np.abs(pts[:, ax]))
    return psi.reshape(grid.shape)


def gradient_test_inequality(u: ScalarField, spec: KernelSpec, W: Potential,
                             epsilon: float = 1.0,
                             residual_bound: float = 1e-4) -> dict:
    """The two pair sums compared by the stability test with eta = |grad u|.

    i2 weighs the misalignment of gradient directions, i3 the variation of
    the cutoff; both use the plain |z|^{-n-s} interaction over box pairs.
    Requires an (approximately) converged solution.
    """
    g = u.grid
    if g.n < 2:
        raise ConfigurationError("the gradient test needs n >= 2")
    res = float(np.max(np.abs(residual_field(u, spec, W, epsilon))))
    if res > residual_bound:
        raise ConfigurationError(
            f"field residual {res:.2e} above the {residual_bound:.0e} precondition")

    comps = gradient_components(u)
    mag = np.sqrt(sum(c * c for c in comps))
    psi = gradient_cutoff(g)
    pk = KernelSpec.perimeter(spec.s)
    op = get_operator(g, pk)
    hv = g.cell_volume()

    conv_mag = op.conv(mag)
    # 2 sum psi^2 (|grad u||grad ubar| - grad u . grad ubar) w
    i2 = float((psi ** 2 * mag * conv_mag).sum())
    for c in comps:
        i2 -= float((psi ** 2 * c * op.conv(c)).sum())
    i2 *= 2.0 * hv

    i3 = float((psi ** 2 * mag * conv_mag).sum())
    i3 += float((mag * op.conv(psi ** 2 * mag)).sum())
    i3 -= 2.0 * float((psi * mag * op.conv(psi * mag)).sum())
    i3 *= hv
    return {"i2": i2, "i3": i3, "residual": res}


# ---------------------------------------------------------------------------
# set deformation and perimeter stability
# ---------------------------------------------------------------------------

def signed_distance(E: IndicatorSet) -> np.ndarray:
    """Positive outside the set, negative inside, in physical units."""
    inside = E.membership
    d_out = ndimage.distance_transform_edt(~inside)
    d_in = ndimage.distance_transform_edt(inside)
    return (d_out - d_in) * E.grid.h


def _rk4_backward(pts: np.ndarray, X: VectorFieldSpec, t: float, steps: int) -> np.ndarray:
    """Integrate dx/dtau = -X(x) from 0 to t (the inverse flow map)."""
    y = pts.copy()
    dt = t / steps
    for _ in range(steps):
        k1 = -X(y)
        k2 = -X(y + 0.5 * dt * k1)
        k3 = -X(y + 0.5 * dt * k2)
        k4 = -X(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def flow_map(E: IndicatorSet, X: VectorFieldSpec, t: float) -> IndicatorSet:
    """Deform the set by the integral flow of X at time t.

    Advects a signed-distance sampling along fourth-order backward
    characteristics and re-thresholds at zero.  Degenerate (non-positive)
    Jacobians of the flow raise a flow error.
    """
    g = E.grid
    phi = signed_distance(E)
    pts = g.coords()
    src = _rk4_backward(pts, X, t, steps=max(4, int(np.ceil(abs(t) / 0.02))))

    # sampled Jacobian positivity on a probe set
    rng = np.random.default_rng(0)
    probe = pts[rng.integers(0, len(pts), min(64, len(pts)))]
    eps = 1e-5
    for ax in range(g.n):
        dp = np.zeros(g.n)
        dp[ax] = eps
        jcol = (_rk4_backward(probe + dp, X, t, 8) - _rk4_backward(probe - dp, X, t, 8)) / (2 * eps)
        if np.any(jcol[:, ax] <= 0.0):
            raise FlowError("flow Jacobian lost positivity; reduce |t|")

    ax = g.axis_coords()
    idx = (src - ax[0]) / g.h
    phi_adv = ndimage.map_coordinates(phi, idx.T, order=1, mode="nearest")
    return IndicatorSet(g, (phi_adv <= 0.0).reshape(g.shape))


def _coarsen_indicator(E: IndicatorSet) -> IndicatorSet:
    g = E.grid
    if g.half_count % 2 != 0:
        raise ConfigurationError("coarsening needs an even node count per half-axis")
    coarse = Grid(g.n, 2 * g.h, g.box_radius, g.boundary, g.centered)
    sl = tuple(slice(0, None, 2) for _ in range(g.n))
    return IndicatorSet(coarse, E.membership[sl])


def perimeter_stability_quotients(E: IndicatorSet, X: VectorFieldSpec,
                                  region: BallRegion, s: float,
                                  t_list=(0.02, 0.04, 0.08)) -> dict:
    """Symmetrized second difference quotients of the perimeter under the flow.

    q(t) = [P(flow_t E) + P(flow_{-t} E) - 2 P(E)] / t^2, with an error bar
    per t from repeating the computation on a 2x-coarsened grid.
    """

    def trace_on(ind: IndicatorSet):
        base = fractional_perimeter(ind, region, s)
        out = []
        for t in t_list:
            pp = fractional_perimeter(flow_map(ind, X, +t), region, s)
            pm = fractional_perimeter(flow_map(ind, X, -t), region, s)
            out.append((pp + pm - 2.0 * base) / t ** 2)
        return np.array(out)

    q_fine = trace_on(E)
    q_coarse = trace_on(_coarsen_indicator(E))
    err = np.abs(q_fine - q_coarse) + 1e-6 * max(1.0, float(np.max(np.abs(q_fine))))
    return {
        "t": list(t_list),
        "q": q_fine.tolist(),
        "error_bar": err.tolist(),
        "q_coarse": q_coarse.tolist(),
    }
