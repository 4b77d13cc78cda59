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

    A flow needs the lattice to resolve the field.  On a grid of spacing h
    in R^n, |X| must stay at most M = (largest |X| over the nodes of the
    support) + L sqrt(n) h / 2 at every point a flow visits, where L is
    the largest difference quotient |X(x + h e_i) - X(x)| / h between
    neighbouring nodes.  `flow_map` moves only the nodes within |t| M of
    the interface, and raises a flow error when an RK4 stage sees a larger
    or non-finite |X|, so a field that varies between the nodes fails
    loudly instead of giving a wrong set.
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
    `converged` is read from its final residuals.  The witness's entry of
    largest magnitude is positive.
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
    vec = vecs[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0.0:
        vec = -vec                           # an eigenvector's sign is arbitrary: fix it
    witness_vals = np.zeros(g.node_count)
    witness_vals[flat_mask] = vec
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


def _square_norms(v: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each row, summed in axis order, so
    that a row's value depends on its entries alone (einsum's sum order
    follows the memory layout: C and Fortran copies of one array can
    differ in the last bit)."""
    out = v[:, 0] * v[:, 0]
    for c in range(1, v.shape[1]):
        out += v[:, c] * v[:, c]
    return out


def _in_support(pts: np.ndarray, X: VectorFieldSpec) -> np.ndarray:
    """The rows inside the closed support ball of X, by squared radius."""
    return _square_norms(pts) <= X.support_radius ** 2


def _rk4_backward(y: np.ndarray, X: VectorFieldSpec, dt: float, steps: int,
                  bound: float = np.inf) -> np.ndarray:
    """Take `steps` RK4 steps of dt along dx/dtau = -X(x) from the rows y:
    the inverse flow map at time steps * dt.

    Rows are independent, so any subset of the rows, or a run continued at
    the same dt from an earlier step count, gives the bits of one run of
    every row from 0.  X is not called for no rows or no steps.  A stage
    value with |X| > `bound` raises a flow error.
    """
    if not (len(y) and steps):
        return y.copy()
    for _ in range(steps):
        k1 = _stage(X, y, bound)
        k2 = _stage(X, y + 0.5 * dt * k1, bound)
        k3 = _stage(X, y + 0.5 * dt * k2, bound)
        k4 = _stage(X, y + dt * k3, bound)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _speed(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row."""
    return np.sqrt(_square_norms(v))


def _stage(X: VectorFieldSpec, y: np.ndarray, bound: float) -> np.ndarray:
    """-X at the rows y, unless some |X| there tops the bound or is NaN."""
    v = X(y)
    if not np.all(_speed(v) <= bound):
        raise FlowError("the vector field tops its speed bound, or is not finite, between "
                        "the nodes; the lattice does not resolve it")
    return np.negative(v, out=v)


def _dilate(mask: np.ndarray, r: int) -> np.ndarray:
    """The nodes within r nodes of the mask in the infinity norm.  Along
    each axis, a zero-padded copy is or-ed with itself shifted by 1, 2, 4,
    ... nodes until each entry covers w nodes from its own on; two such
    windows then cover the 2r + 1 nodes around each node."""
    for ax in range(mask.ndim):
        n, k = mask.shape[ax], min(r, mask.shape[ax])
        lines = np.moveaxis(mask, ax, 0)
        win = np.zeros((n + 2 * k,) + lines.shape[1:], dtype=bool)
        win[k:k + n] = lines
        w = 1
        while 2 * w <= 2 * k + 1:
            win[:-w] |= win[w:]
            w *= 2
        mask = np.moveaxis(win[:n] | win[2 * k + 1 - w:][:n], 0, ax)
    return mask


# signed distances, flow geometries, speed bounds and deformed sets, keyed
# by what each depends on
_flow_memo = LRUCache(32 << 20)
_PROBE_EPS = 1e-5


def _memo_put(key: tuple, value) -> None:
    """Store an array, or a tuple of arrays, in the flow memo, weighing its
    bytes plus the key's."""
    size = sum(a.nbytes for a in (value if isinstance(value, tuple) else (value,)))
    _flow_memo.put(key, value, size + sum(len(k) for k in key if isinstance(k, bytes)))


def _flow_geometry(g: Grid, layout: tuple, X: VectorFieldSpec) -> tuple:
    """The flat indices and points of the nodes inside the support ball of
    X, the Jacobian probes (64 seeded nodes shifted by +eps e_ax, then by
    -eps e_ax, axis by axis) and the probes inside the ball; memoized per
    (layout, support radius)."""
    key = ("geometry", layout, X.support_radius)
    geo = _flow_memo.get(key)
    if geo is None:
        pts = g.coords()
        rng = np.random.default_rng(0)
        probe = pts[rng.integers(0, len(pts), min(64, len(pts)))]
        shifts = _PROBE_EPS * np.eye(g.n)
        probes = np.concatenate([probe + d for d in shifts] + [probe - d for d in shifts])
        support = np.flatnonzero(_in_support(pts, X))
        geo = (support, pts[support], probes, _in_support(probes, X))
        _memo_put(key, geo)
    return geo


def _speed_bound(g: Grid, layout: tuple, X: VectorFieldSpec, support: np.ndarray,
                 start: np.ndarray) -> float:
    """M = max |X| over the support nodes (flat indices `support`, points
    `start`) + L sqrt(n) h / 2, L the largest difference quotient of X
    between neighbouring nodes, from one evaluation of X; memoized per
    (layout, X).  A bound that is not finite raises a flow error."""
    key = ("bound", layout, X)
    bound = _flow_memo.get(key)
    if bound is None:
        vals = np.zeros((g.node_count, g.n))
        if len(start):
            vals[support] = X(start)
        lattice = vals.reshape(g.shape + (g.n,))
        lip = max(_speed(np.diff(lattice, axis=ax).reshape(-1, g.n)).max(initial=0.0)
                  for ax in range(g.n)) / g.h
        bound = np.float64(_speed(vals).max() + lip * np.sqrt(g.n) * g.h / 2.0)
        if not np.isfinite(bound):
            raise FlowError("the vector field is not finite at the support nodes")
        _memo_put(key, bound)
    return float(bound)


def flow_map(E: IndicatorSet, X: VectorFieldSpec, t: float) -> IndicatorSet:
    """Deform the set by the integral flow of X at time t (finite).

    Advects a signed-distance sampling (`signed_distance`, exact in the
    band that decides membership) along fourth-order backward
    characteristics (max(4, ceil(|t|/0.02)) RK4 steps), interpolates it
    multilinearly at the flowed nodes (`fields._multilinear`, clamped to the
    lattice) and re-thresholds at zero.

    A node changes membership only if its flowed point lands in a cell with
    a corner of the other kind, and no point moves farther than |t| M, M
    the speed bound of `VectorFieldSpec` (a stage above it, or a bound that
    is not finite, raises a flow error).  So only the support nodes within
    ceil(|t| M / h) + 1 nodes (infinity norm) of an interface node
    (|phi| < 2h) are integrated and resampled: the band.  The rest keep
    their membership, bit for bit as if resampled.  The flow's Jacobian is
    probed by central differences at 64 nodes riding in the same RK4 pass;
    a non-positive diagonal entry (a fold) raises a flow error.

    One bounded memo holds, each keyed by what it depends on: the signed
    distance of a (layout, membership); the support nodes and probes of a
    (layout, support radius); the speed bound of a (layout, X); and, once
    its checks pass, the deformed set of a (layout, membership, X, t) as
    packed bits.  The keys hold X itself, so `components` is taken to be a
    pure function.  Every call returns a set of its own.
    """
    return _flows(E, X, [t])[0]


def _flows(E: IndicatorSet, X: VectorFieldSpec, times: list) -> list:
    """flow_map(E, X, t) for each t of `times`.  The times the memo misses
    share one RK4 pass per step size t/steps, over the band of the longest;
    by step count, each time checks the probes, resamples and is stored."""
    if not all(np.isfinite(t) for t in times):
        raise ConfigurationError(f"flow times must be finite, got t = {times!r}")
    g = E.grid
    layout = (g.n, g.h, g.box_radius, g.centered)
    bits = np.packbits(E.membership).tobytes()
    sets, groups = {}, {}
    for t in dict.fromkeys(times):
        hit = _flow_memo.get(("set", layout, bits, X, t))
        if hit is not None:
            sets[t] = hit
        else:
            steps = max(4, int(np.ceil(abs(t) / 0.02)))
            groups.setdefault(t / steps, []).append((steps, t))
    if groups:
        phi = _flow_memo.get(("sd", layout, bits))
        if phi is None:
            phi = signed_distance(E)
            _memo_put(("sd", layout, bits), phi)
        support, start, probes, probe_in = _flow_geometry(g, layout, X)
        bound = _speed_bound(g, layout, X, support, start)
    for dt, group in groups.items():
        group.sort()
        reach = int(np.ceil(abs(group[-1][1]) * bound / g.h)) + 1
        band = np.flatnonzero(_dilate(np.abs(phi) < 2.0 * g.h, reach).ravel()[support])
        y, done = np.concatenate([start[band], probes[probe_in]]), 0
        for steps, t in group:
            y, done = _rk4_backward(y, X, dt, steps - done, bound), steps
            # sampled Jacobian positivity: the diagonal of the central difference
            probed = probes.copy()
            probed[probe_in] = y[len(band):]
            probed = probed.reshape(2, g.n, -1, g.n)
            if any(np.any(probed[0, ax, :, ax] <= probed[1, ax, :, ax]) for ax in range(g.n)):
                raise FlowError("flow Jacobian lost positivity; reduce |t|")
            member = E.membership.flatten()
            idx = (y[:len(band)] - g.axis_coords()[0]) / g.h
            member[support[band]] = _multilinear(phi, idx, wrap=False) <= 0.0
            sets[t] = np.packbits(member)
            _memo_put(("set", layout, bits, X, t), sets[t])
    return [IndicatorSet(g, np.unpackbits(sets[t], count=g.node_count).astype(bool))
            for t in times]


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
    built once, by one `_flows` call per (set, field), and its perimeter
    read at every order.  Empty field, order or time lists, and flow times
    that are 0 or not finite, are refused.
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
            flowed = _flows(ind, X, t_list + [-t for t in t_list])
            for j, (t, plus, minus) in enumerate(zip(t_list, flowed, flowed[len(t_list):])):
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
