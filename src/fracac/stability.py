"""Second-variation forms, Rayleigh-quotient minimization, the gradient-test
inequality, and perimeter stability of deformed sets.

All quadratic forms extend perturbations by zero outside the box; the
exterior enters only through the kernel mass each node sees there.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from ._lattice import LRUCache, get_operator
from .energies import Potential, _pot_weight, fractional_perimeter
from .errors import ConfigurationError, FlowError
from .fields import (
    BallRegion,
    FieldExterior,
    Grid,
    IndicatorSet,
    ScalarField,
    _multilinear,
    gradient_components,
)
from .kernels import KernelSpec
from .solver import residual_field

__all__ = [
    "StabilityReport",
    "VectorFieldSpec",
    "second_variation",
    "min_rayleigh",
    "gradient_test_inequality",
    "flow_map",
    "radial_bump_vector_field",
    "cone_set",
    "cone_sweep",
    "perimeter_stability_quotients",
]


@dataclass
class StabilityReport:
    min_rayleigh: float
    witness: ScalarField
    iterations: int
    region: BallRegion
    converged: bool


@dataclass(frozen=True, eq=False)
class VectorFieldSpec:
    """A smooth compactly supported vector field x -> R^n.

    `components` maps an (m, n) array of points to an (m, n) array, row by
    row. Calls return exactly 0 wherever |x| > `support_radius`, and
    `flow_map` relies on that: it integrates only the points inside the
    support ball, since the others never move. `support_radius` must be a
    positive number or +inf.  A field is immutable and equal only to
    itself, so it hashes by identity and can key a memo.
    """

    components: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __post_init__(self):
        r = self.support_radius
        if not (isinstance(r, numbers.Real) and r > 0):
            raise ConfigurationError(
                f"support_radius must be a positive number or +inf, got {r!r}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """X at the points, as a fresh array: the array `components` returns
        is read, never written; rows outside the support (`_in_support`) are
        zeroed on the copy."""
        pts = np.atleast_2d(points)
        out = np.array(self.components(pts), dtype=float)
        out[~_in_support(pts, self)] = 0.0
        return out


def second_variation(u: ScalarField, xi: ScalarField, spec: KernelSpec,
                     W: Potential, epsilon: float = 1.0) -> float:
    """Q(xi) = h^n <xi, stability_apply(xi, pw W''(u))>.

    That is half the full-space pair sum of xi, extended by zero outside
    the box, plus the W'' weighted mass: the same form that `min_rayleigh`
    minimises and the Newton steps invert.
    """
    if not u.grid.same_layout(xi.grid):
        raise ConfigurationError("perturbation must live on the field's grid")
    op = get_operator(u.grid, spec)
    diag = _pot_weight(epsilon, spec.s) * W.wpp(u.values)
    return u.grid.cell_volume() * float((xi.values * op.stability_apply(xi.values, diag)).sum())


def min_rayleigh(u: ScalarField, region: BallRegion, spec: KernelSpec,
                 W: Potential, epsilon: float = 1.0,
                 iterations: int = 300) -> StabilityReport:
    """Approximate minimum of Q(xi)/||xi||^2 over xi supported in the region.

    The returned value is recomputed from the witness, so it is always a
    certified upper bound for the true minimum.  Every dimension runs LOBPCG
    matrix-free on `stability_apply` (periodic grids: the free twin) from one
    seeded random vector: a block stops only when all of its pairs converge,
    and only the lowest is read.  `iterations` counts its updates and
    `converged` is read from its final residuals.
    """
    g = u.grid
    mask = region.mask(g)
    if not mask.any():
        raise ConfigurationError("region contains no nodes")
    op = get_operator(g, spec)
    diag = _pot_weight(epsilon, spec.s) * W.wpp(u.values)
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
    X = rng.normal(size=(ndof, 1))
    tol = 1e-8
    res = lobpcg(linop, X, largest=False, maxiter=iterations, tol=tol,
                 retResidualNormsHistory=True)
    if len(res) == 2:
        # below 5 dofs (5 per block vector) scipy solves densely, with no history
        (_, vecs), done, converged = res, 0, True
    else:
        _, vecs, history = res
        # the history holds the residuals of iterates 0..k, k being the block
        # update that lobpcg returns (at most maxiter + 1), then one row of
        # post-processed residuals; so k = len(history) - 2
        done = min(len(history) - 2, iterations)
        converged = bool(np.all(np.asarray(history[-1]) <= tol))
    witness_vals = np.zeros(g.node_count)
    witness_vals[flat_mask] = vecs[:, 0]
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
    """Distance from each node to the nearest node of the other kind,
    positive outside the set and negative inside, in physical units,
    clamped to +-2h.

    For n <= 3 no lattice offset has a length strictly between sqrt(n) and
    2 (in units of h), and those of length at most sqrt(n) are the 3^n - 1
    neighbour offsets.  So a node within sqrt(n) h of the other kind finds
    its nearest such node among its neighbours, and any other node is at
    least 2h from it.  The values are therefore exactly
    the Euclidean distance transform's where |d| <= sqrt(n) h, and +-2h
    beyond.  That band is all `flow_map` needs: every corner of a cell that
    straddles the interface lies within sqrt(n) h of a node of the other
    kind, and a cell whose corners share one sign interpolates to that
    sign.  A set with no interface is at +-2h everywhere.
    """
    inside = E.membership
    d2 = np.full(inside.shape, 4.0)
    for off in itertools.product((-1, 0, 1), repeat=inside.ndim):
        if not any(off):
            continue
        here = tuple(slice(max(0, -o), a - max(0, o)) for o, a in zip(off, inside.shape))
        there = tuple(slice(max(0, o), a - max(0, -o)) for o, a in zip(off, inside.shape))
        other = inside[here] != inside[there]
        near = d2[here]
        near[other] = np.minimum(near[other], sum(o * o for o in off))
    d = np.sqrt(d2, out=d2)
    d *= E.grid.h
    return np.where(inside, -d, d)


def _in_support(pts: np.ndarray, X: VectorFieldSpec) -> np.ndarray:
    """The rows inside the closed support ball of X, by squared radius."""
    return np.einsum("ij,ij->i", pts, pts) <= X.support_radius ** 2


def _rk4_backward(pts: np.ndarray, X: VectorFieldSpec, t: float, steps: int,
                  inside: np.ndarray, start: np.ndarray | None = None,
                  done: int = 0) -> np.ndarray:
    """Integrate dx/dtau = -X(x) from 0 to t (the inverse flow map) in
    `steps` RK4 steps of t/steps.

    X is 0 outside its support ball, so points that start there never move:
    only the rows `inside` are integrated, and the others are copied through.
    X is not called when no row is inside.  `start`, if given, holds the
    inside rows after the first `done` of the steps, taken at the same step
    size; the integration continues from it, bit for bit as from 0.
    """
    out = pts.copy()
    if not inside.any():
        return out
    y = pts[inside] if start is None else start
    dt = t / steps
    for _ in range(steps - done):
        k1 = -X(y)
        k2 = -X(y + 0.5 * dt * k1)
        k3 = -X(y + 0.5 * dt * k2)
        k4 = -X(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    out[inside] = y
    return out


# signed distances of memberships and flow states, keyed by value
_flow_memo = LRUCache(32 << 20)


def _memo_put(key: tuple, value: np.ndarray) -> None:
    """Store an array in the flow memo, weighing its bytes plus the key's."""
    size = value.nbytes + sum(len(k) for k in key if isinstance(k, bytes))
    _flow_memo.put(key, value, size)


def flow_map(E: IndicatorSet, X: VectorFieldSpec, t: float) -> IndicatorSet:
    """Deform the set by the integral flow of X at time t.

    Advects a signed-distance sampling (`signed_distance`, exact in the
    band that decides membership) along fourth-order backward
    characteristics (max(4, ceil(|t|/0.02)) RK4 steps), interpolates it
    multilinearly at the flowed nodes (`fields._multilinear`, clamped to the
    lattice) and re-thresholds at zero.  Only the nodes inside the support
    ball of X are integrated and resampled; the rest keep their membership.
    The Jacobian of the flow is probed by central differences at 64 nodes,
    whose 2n shifted copies ride in the same RK4 pass; a non-positive
    diagonal entry (a fold) raises a flow error.

    One bounded memo holds two kinds of entries, each keyed by what it
    depends on: the signed distance of a (layout, membership), and the
    flow state (the flowed nodes and probes inside the support) of a
    checked (layout, X, step size, step count).  The state does not depend
    on the set, so every set of a layout reuses it, and a longer flow at
    the same step size continues from the longest stored one (t = 0.16
    from t = 0.08), bit for bit.  A state at the full step count skips the
    RK4 pass and the probe check, which it passed when it was stored.  The
    key holds X itself, so `components` is taken to be a pure function.
    Nothing of a flow that fails its check is kept.  Every call returns a
    set of its own.
    """
    g = E.grid
    layout = (g.n, g.h, g.box_radius, g.centered)
    sd_key = ("sd", layout, np.packbits(E.membership).tobytes())
    phi = _flow_memo.get(sd_key)
    if phi is None:
        phi = signed_distance(E)
        _memo_put(sd_key, phi)

    # the nodes, then the probes +- eps e_ax stacked in that order
    pts = g.coords()
    rng = np.random.default_rng(0)
    probe = pts[rng.integers(0, len(pts), min(64, len(pts)))]
    eps = 1e-5
    shifts = eps * np.eye(g.n)
    rows = np.concatenate([pts] + [probe + d for d in shifts] + [probe - d for d in shifts])
    inside = _in_support(rows, X)
    steps = max(4, int(np.ceil(abs(t) / 0.02)))
    state_key = ("state", layout, X, t / steps)
    done, state = 0, None
    for k in range(steps, 0, -1):
        state = _flow_memo.get(state_key + (k,))
        if state is not None:
            done = k
            break
    if done < steps:
        flowed = _rk4_backward(rows, X, t, steps, inside, state, done)
        # sampled Jacobian positivity: the diagonal of the central difference
        probed = flowed[len(pts):].reshape(2, g.n, len(probe), g.n)
        for ax in range(g.n):
            jcol = (probed[0, ax] - probed[1, ax]) / (2 * eps)
            if np.any(jcol[:, ax] <= 0.0):
                raise FlowError("flow Jacobian lost positivity; reduce |t|")
        state = flowed[inside]
        _memo_put(state_key + (steps,), state)

    # the state's leading rows are the flowed nodes inside the support
    moved = inside[:len(pts)]
    idx = (state[:np.count_nonzero(moved)] - g.axis_coords()[0]) / g.h
    member = E.membership.flatten()
    member[moved] = _multilinear(phi, idx, wrap=False) <= 0.0
    return IndicatorSet(g, member.reshape(g.shape))


def radial_bump_vector_field(seed: int) -> VectorFieldSpec:
    """A smooth random bump field supported in the annulus 0.05 < |x| < 0.95."""
    rng = np.random.default_rng(seed)
    r0 = rng.uniform(0.25, 0.7)
    width = rng.uniform(0.1, 0.25)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    m = rng.integers(0, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi)

    def bump(r):
        lo, hi = max(0.05, r0 - width), min(0.95, r0 + width)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xi = (r - mid) / half
        out = np.zeros_like(r)
        ok = np.abs(xi) < 1.0
        out[ok] = np.exp(1.0 - 1.0 / (1.0 - xi[ok] ** 2))
        return out

    def comps(pts):
        r = np.linalg.norm(pts, axis=1)
        th = np.arctan2(pts[:, 1], pts[:, 0])
        amp = bump(r) * np.cos(m * th + phase)
        return np.stack([amp * np.cos(alpha), amp * np.sin(alpha)], axis=1)

    return VectorFieldSpec(comps, support_radius=0.95)


# the 2D cones of the stability sweep: (exterior value, membership) by kind
_CONES = {
    "halfplane": (lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0), lambda p: p[:, 1] <= 0.0),
    "cross": (lambda p: np.sign(p[:, 0] * p[:, 1] + 1e-300), lambda p: p[:, 0] * p[:, 1] > 0.0),
}


def cone_set(kind: str) -> IndicatorSet:
    """The half-plane {x_2 <= 0} ("halfplane") or the cross cone {x_1 x_2 > 0}
    ("cross") on the 2D grid of spacing 1/32 and box radius 2, whose exterior
    continues it as +-1."""
    exterior, inside = _CONES[kind]
    g = Grid(2, 1.0 / 32.0, 2.0, FieldExterior(exterior))
    return IndicatorSet(g, inside(g.coords()).reshape(g.shape))


def cone_sweep(E: IndicatorSet, fields, region: BallRegion, orders, t_list) -> dict:
    """`perimeter_stability_quotients` of E under each field at every order:
    per order, one dict per field, in the order of `fields`.

    Each deformed set flow_map(., X, +-t), of E and of its 2x coarsening, is
    built once and its perimeter read at every order; t is looped outside
    the orders, so at most two deformed sets are alive.  Empty field, order
    or time lists, and flow times that are 0 or not finite, are refused.
    """
    fields, t_list = list(fields), list(t_list)
    if not (fields and orders and t_list) or not all(np.isfinite(t) and t != 0.0
                                                      for t in t_list):
        raise ConfigurationError("a cone sweep needs fields, orders and flow times, "
                                 f"each time finite and nonzero; got t = {t_list!r}")
    g = E.grid
    if g.half_count % 2 != 0:
        raise ConfigurationError("coarsening needs an even node count per half-axis")

    def trace_on(ind: IndicatorSet) -> dict:
        """Per order, one row q(t) per field."""
        base = {s: fractional_perimeter(ind, region, s) for s in orders}
        rows = {s: np.empty((len(fields), len(t_list))) for s in base}
        for k, X in enumerate(fields):
            for j, t in enumerate(t_list):
                plus, minus = flow_map(ind, X, +t), flow_map(ind, X, -t)
                for s, q in rows.items():
                    q[k, j] = (fractional_perimeter(plus, region, s)
                               + fractional_perimeter(minus, region, s) - 2.0 * base[s]) / t ** 2
        return rows

    fine = trace_on(E)
    coarse = trace_on(IndicatorSet(Grid(g.n, 2 * g.h, g.box_radius, g.boundary, g.centered),
                                   E.membership[(slice(0, None, 2),) * g.n]))
    out = {}
    for s, q in fine.items():
        err = np.abs(q - coarse[s]) + 1e-6 * np.maximum(1.0, np.abs(q).max(axis=1, keepdims=True))
        out[s] = [{"t": list(t_list), "q": qf.tolist(), "error_bar": e.tolist(),
                   "q_coarse": qc.tolist()} for qf, e, qc in zip(q, err, coarse[s])]
    return out


def perimeter_stability_quotients(E: IndicatorSet, X: VectorFieldSpec,
                                  region: BallRegion, s: float,
                                  t_list=(0.02, 0.04, 0.08)) -> dict:
    """Symmetrized second difference quotients of the perimeter under the flow.

    q(t) = [P(flow_t E) + P(flow_{-t} E) - 2 P(E)] / t^2, with an error bar
    per t from repeating the computation on a 2x-coarsened grid.
    """
    return cone_sweep(E, [X], region, (s,), t_list)[s][0]
