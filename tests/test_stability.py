"""Quadratic forms, Rayleigh minimization, the gradient test, and
perimeter stability under flows."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracac import (
    BallRegion,
    ConstantExterior,
    FieldExterior,
    Grid,
    IndicatorSet,
    KernelSpec,
    Periodic,
    ScalarField,
    VectorFieldSpec,
    blowdown_convergence,
    flatness_profile,
    flow_map,
    gradient_flow,
    gradient_test_inequality,
    make_grid,
    min_rayleigh,
    perimeter_stability_quotients,
    second_variation,
)
from conftest import composed_quotients, dense_matrix
from fracac.errors import ConfigurationError, FlowError
from fracac._lattice import LRUCache, _free_twin, get_operator
from fracac import stability
from fracac.stability import (_in_support, _rk4_backward, cone_set, cone_sweep,
                              radial_bump_vector_field)


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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("periodic", [False, True], ids=["exterior", "periodic"])
def test_second_variation_pair_part_is_twice_the_free_twin_energy(quartic, n, periodic):
    """Two independent routes to the pair part of Q: second_variation goes
    through stability_apply, the energy of xi over the whole box on the
    zero-exterior twin through its region sums and t0."""
    rng = np.random.default_rng(40 + n)
    h, box = (0.125, 4.0) if n == 1 else (0.25, 2.0)
    g = make_grid(n, box, h) if periodic else Grid(n, h, box, ConstantExterior([(-1.0, 1.0)] * n))
    spec = KernelSpec.fractional(0.5)
    u = ScalarField(g, np.zeros(g.shape))  # W''(0) = -1
    xi = ScalarField(g, rng.normal(size=g.shape))
    pair = second_variation(u, xi, spec, quartic) + g.cell_volume() * float((xi.values ** 2).sum())
    twin = get_operator(Grid(n, h, box, ConstantExterior([(0.0, 0.0)] * n)), spec)
    energy = twin.sobolev_energy(xi.values, np.ones(g.shape, dtype=bool))
    assert abs(pair - 2.0 * energy) <= 1e-12 * abs(pair)


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
    A = dense_matrix(op) + np.diag(quartic.wpp(u.values))
    idx = np.flatnonzero(region.mask(g).ravel())
    lam = np.linalg.eigvalsh(A[np.ix_(idx, idx)])[0]
    assert rep.min_rayleigh == pytest.approx(lam, abs=1e-8)

    # a periodic grid perturbs with zero extension: the free twin's matrix
    gp = make_grid(1, 8.0, 0.25)
    up = ScalarField(gp, np.zeros(gp.shape))
    rep = min_rayleigh(up, region, spec, quartic)
    A = dense_matrix(_free_twin(get_operator(gp, spec))) + np.diag(quartic.wpp(up.values))
    idx = np.flatnonzero(region.mask(gp).ravel())
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
@pytest.mark.parametrize("n", [1, 2])
def test_min_rayleigh_reports_real_convergence(n, quartic):
    g = make_grid(n, 4.0, 0.25)
    u = ScalarField(g, np.tanh(g.coords()[:, 0]).reshape(g.shape))
    spec = KernelSpec.fractional_unit(0.5, n)
    region = BallRegion((0.0,) * n, 2.0)
    short = min_rayleigh(u, region, spec, quartic, iterations=2)
    assert short.converged is False and short.iterations <= 2
    full = min_rayleigh(u, region, spec, quartic)
    assert full.converged is True and full.iterations < 300


@pytest.mark.filterwarnings("ignore:The problem size")
def test_min_rayleigh_2d_small_region_dense_oracle(quartic):
    """lobpcg solves densely below 5 unknowns per block vector, with no
    residual history, so a 4-node region reports 0 iterations; 5 nodes is the
    smallest region it iterates on.  Both against a dense eigensolve."""
    g = make_grid(2, 4.0, 0.25)
    u = ScalarField(g, np.tanh(g.coords()[:, 0]).reshape(g.shape))
    spec = KernelSpec.fractional_unit(0.5, 2)
    op = get_operator(g, spec)
    diag = quartic.wpp(u.values)
    for region, nodes in ((BallRegion((0.125, 0.125), 0.2), 4), (BallRegion((0.0, 0.0), 0.3), 5)):
        idx = np.flatnonzero(region.mask(g).ravel())
        assert len(idx) == nodes
        rep = min_rayleigh(u, region, spec, quartic)
        assert rep.converged is True and (rep.iterations == 0) is (nodes < 5)
        cols = []
        for i in idx:
            e = np.zeros(g.node_count)
            e[i] = 1.0
            cols.append(op.stability_apply(e.reshape(g.shape), diag).ravel()[idx])
        lam = np.linalg.eigvalsh(np.array(cols).T)[0]
        assert rep.min_rayleigh == pytest.approx(lam, rel=1e-9, abs=1e-9)


def _property_field(field, n, angle):
    """A case's field as a callable on points: a tanh layer across the unit
    direction at `angle` (1D: its sign), tanh x tanh y (1D: tanh x), or 0."""
    if field == "layer":
        d = np.array([np.cos(angle), np.sin(angle)])[:n]
        d = d / np.linalg.norm(d)
        return lambda p: np.tanh(p @ d)
    if field == "saddle":
        return lambda p: np.prod(np.tanh(p), axis=1)
    return lambda p: np.zeros(len(p))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2]), field=st.sampled_from(["layer", "saddle", "zero"]),
       angle=st.floats(0.0, 2.0 * np.pi), centre=st.floats(-0.4, 0.4),
       radius=st.floats(0.25, 0.5), turn=st.integers(0, 2))
@example(n=2, field="zero", angle=0.0, centre=0.0, radius=0.5, turn=0)  # the 12 draws hold no zero field
def test_min_rayleigh_matches_dense_oracle(quartic, n, field, angle, centre, radius, turn):
    """min_rayleigh from its one-vector start against eigvalsh of the restricted
    stability matrix, over dimension and field, on a constant, a field and a
    periodic exterior, each at one of the orders 0.3, 0.5 and 0.8 (`turn`
    rotates which): at most 24^2 nodes (1D: 128), the region's centre and
    radius given as shares of the box radius (at most 150 nodes)."""
    h, box = (0.125, 8.0) if n == 1 else (0.25, 3.0)
    fn = _property_field(field, n, angle)
    region = BallRegion((centre * box,) * n, radius * box)
    boundaries = (ConstantExterior([(-1.0, 1.0)] * n), FieldExterior(fn), Periodic())
    for k, boundary in enumerate(boundaries):
        spec = KernelSpec.fractional_unit((0.3, 0.5, 0.8)[(k + turn) % 3], n)
        g = Grid(n, h, box, boundary)
        u = ScalarField(g, fn(g.coords()).reshape(g.shape))
        idx = np.flatnonzero(region.mask(g).ravel())
        assert 0 < len(idx) <= 150
        rep = min_rayleigh(u, region, spec, quartic)
        assert rep.converged

        op = get_operator(g, spec)
        # a periodic grid perturbs with zero extension: the free twin's matrix
        if isinstance(boundary, Periodic):
            op = _free_twin(op)
        A = dense_matrix(op) + np.diag(quartic.wpp(u.values.ravel()))
        lam = np.linalg.eigvalsh(A[np.ix_(idx, idx)])[0]
        assert abs(rep.min_rayleigh - lam) <= 1e-8


@pytest.fixture(scope="module")
def saddle_flow(quartic, spec2_unit):
    """The flow from the saddle tanh x tanh y at R = 16, run once per module."""
    def saddle(p):
        return np.tanh(p[:, 0]) * np.tanh(p[:, 1])

    g = Grid(2, 0.25, 16.0, FieldExterior(saddle))
    return gradient_flow(ScalarField(g, saddle(g.coords()).reshape(g.shape)), spec2_unit,
                         quartic, residual_tol=1e-8)


def test_saddle_is_a_converged_unstable_critical_point(saddle_flow, quartic, spec2_unit):
    """Negative control: the saddle tanh x tanh y is a critical point but not
    1D, so it must be unstable on a large ball (stable solutions in R^2 are
    1D).  The flow converges onto it; only min_rayleigh can tell."""
    assert saddle_flow.converged
    rep = min_rayleigh(saddle_flow.field, BallRegion((0.0, 0.0), 12.0), spec2_unit, quartic)
    assert rep.converged and rep.min_rayleigh < 0.0


def test_saddle_is_not_flat(saddle_flow):
    """Negative control: the saddle's zero set is a cross, so no slab traps its
    transition region (the no-trapping sentinel a = 1), and its blow-downs do
    not approach a half-plane."""
    flat = flatness_profile(saddle_flow.field, [4.0, 6.0, 8.0, 12.0])
    assert flat["a"] == [1.0] * 4
    l1 = blowdown_convergence(saddle_flow.field, [2.0, 4.0, 8.0], c=0.6)["l1"]
    assert not np.all(np.diff(l1) < 0.0)


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


def test_flow_map_identity_and_translation():
    E = cone_set("halfplane")
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
    E = cone_set("halfplane")
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
    E = cone_set("halfplane")
    Xh = VectorFieldSpec(lambda p: np.stack([np.exp(-np.sum(p ** 2, axis=1)),
                                             np.zeros(len(p))], axis=1),
                         support_radius=0.95)
    q = perimeter_stability_quotients(E, Xh, BallRegion((0.0, 0.0), 1.0), 0.9,
                                      (0.04, 0.08))
    assert max(abs(v) for v in q["q"]) <= 1e-9


def test_quotients_sign_flip_invariance():
    E = cone_set("halfplane")
    X = radial_bump_vector_field(7)
    Xm = VectorFieldSpec(lambda p, _X=X: -_X(p), support_radius=X.support_radius)
    region = BallRegion((0.0, 0.0), 1.0)
    qa = perimeter_stability_quotients(E, X, region, 0.9, (0.08,))
    qb = perimeter_stability_quotients(E, Xm, region, 0.9, (0.08,))
    assert qa["q"][0] == pytest.approx(qb["q"][0], rel=1e-12)


def test_halfplane_quotients_nonnegative_within_bars():
    sweep = cone_sweep(cone_set("halfplane"), [radial_bump_vector_field(k) for k in range(4)],
                       BallRegion((0.0, 0.0), 1.0), (0.9,), (0.08, 0.16))
    assert all(v >= -e for q in sweep[0.9] for v, e in zip(q["q"], q["error_bar"]))


def test_flow_map_degeneracy_guard():
    """Smooth flows are diffeomorphisms, but an under-resolved discrete
    integration can fold; the sampled-Jacobian guard catches it along
    either axis, and reads only the diagonal of the probed Jacobian."""
    E = cone_set("halfplane")
    for ax in (0, 1):
        def fold(p, ax=ax):
            out = np.zeros_like(p)
            out[:, ax] = 30.0 * np.sin(8.0 * p[:, ax])
            return out
        with pytest.raises(FlowError):
            flow_map(E, VectorFieldSpec(fold, support_radius=3.0), 0.4)
    # a shear folds nothing, though its off-diagonal Jacobian entry (2) tops
    # the diagonal (1) and the other one is 0
    shear = VectorFieldSpec(lambda p: np.stack([-20.0 * p[:, 1], np.zeros(len(p))], axis=1),
                            support_radius=np.inf)
    flow_map(E, shear, 0.1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, -0.3])
def test_rk4_backward_matches_full_array_reference(n, t):
    """Integrating only the rows inside the support ball changes no bit
    against RK4 on every row, for points inside, on the sphere and outside."""
    radius = 0.75

    def comps(p):
        return np.cos(3.0 * p[:, ::-1]) + 0.5 * p

    X = VectorFieldSpec(comps, support_radius=radius)

    def reference(pts, steps):
        y = pts.copy()
        dt = t / steps
        for _ in range(steps):
            k1 = -X(y)
            k2 = -X(y + 0.5 * dt * k1)
            k3 = -X(y + 0.5 * dt * k2)
            k4 = -X(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return y

    rng = np.random.default_rng(n)
    on_sphere = np.concatenate([radius * np.eye(n), -radius * np.eye(n)])
    assert np.all(np.linalg.norm(on_sphere, axis=1) == radius)
    pts = np.concatenate([rng.uniform(-1.2, 1.2, (200, n)), on_sphere])
    r = np.linalg.norm(pts, axis=1)
    assert (r < radius).any() and (r > radius).any()
    for steps in (4, 8):
        got = _rk4_backward(pts, X, t, steps, _in_support(pts, X))
        assert np.array_equal(got, reference(pts, steps))

    # no row inside: a copy comes back and X is never evaluated
    def never(p):
        raise AssertionError("X evaluated with no point in its support")

    outside = pts[r > radius]
    Y = VectorFieldSpec(never, support_radius=radius)
    out = _rk4_backward(outside, Y, t, 4, _in_support(outside, Y))
    assert np.array_equal(out, outside) and out is not outside


def test_flow_map_tiny_support_never_evaluates_empty_arrays():
    """Every grid holds the origin, so the smallest support still meets one
    node; the probe points miss it and must not reach X as an empty array."""
    E = cone_set("halfplane")
    sizes = []

    def comps(p):
        sizes.append(len(p))
        if len(p) == 0:
            raise ValueError("empty evaluation")
        return np.tile([0.0, 1.0], (len(p), 1))

    X = VectorFieldSpec(comps, support_radius=0.5 * E.grid.h)
    assert np.array_equal(flow_map(E, X, 0.1).membership, E.membership)
    assert sizes and set(sizes) == {1}


def _count_distances(monkeypatch):
    calls = []
    sd = stability.signed_distance
    monkeypatch.setattr(stability, "signed_distance", lambda E: calls.append(1) or sd(E))
    return calls


def _count_flow_maps(monkeypatch):
    calls = []
    fm = stability.flow_map
    monkeypatch.setattr(stability, "flow_map", lambda *a: calls.append(a[2]) or fm(*a))
    return calls


@pytest.mark.parametrize("orders", [(0.9,), (0.5, 0.7, 0.9)])
def test_quotients_compute_each_signed_distance_once(monkeypatch, orders):
    """A sweep flows the set and its coarsening 2 len(t) times per field,
    whatever the number of orders (a negative t is a flow time like any),
    but computes each set's signed distance once."""
    stability._flow_memo.clear()
    distances, flows = _count_distances(monkeypatch), _count_flow_maps(monkeypatch)
    cone_sweep(cone_set("halfplane"), [radial_bump_vector_field(k) for k in (3, 4)],
               BallRegion((0.0, 0.0), 1.0), orders, (0.04, -0.08, 0.16))
    assert len(distances) == 2 and len(flows) == 2 * 2 * 3 * 2
    assert sorted(set(flows)) == [-0.16, -0.08, -0.04, 0.04, 0.08, 0.16]


def test_flow_map_recomputes_distance_after_membership_change(monkeypatch):
    stability._flow_memo.clear()
    E = cone_set("halfplane")
    X = radial_bump_vector_field(3)
    before = flow_map(E, X, 0.08).membership
    calls = _count_distances(monkeypatch)
    assert np.array_equal(flow_map(E, X, 0.08).membership, before) and not calls
    pts = E.grid.coords()
    E.membership[...] = (np.sum(pts ** 2, axis=1) <= 0.5).reshape(E.grid.shape)
    after = flow_map(E, X, 0.08).membership
    fresh = flow_map(IndicatorSet(E.grid, E.membership.copy()), X, 0.08).membership
    assert len(calls) == 1 and np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


def _exact_signed_distance(m, h):
    """The two-sided Euclidean distance transform, scaled by h."""
    from scipy.ndimage import distance_transform_edt
    return (distance_transform_edt(~m) - distance_transform_edt(m)) * h


def _random_sets(rng, shape):
    """Random memberships of several densities, a ball, one node, and the
    two sets without an interface."""
    sets = [rng.random(shape) < p for p in (0.03, 0.5, 0.97)]
    c = np.indices(shape) - (np.array(shape) // 2).reshape((-1,) + (1,) * len(shape))
    sets.append(np.sum(c * c, axis=0) <= (shape[0] // 3) ** 2)
    one = np.zeros(shape, dtype=bool)
    one[tuple(a // 3 for a in shape)] = True
    return sets + [one, np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_distance_is_the_exact_transform_in_its_band(n):
    """Where the exact signed distance is at most sqrt(n) h it is matched
    bit for bit, and beyond it the distance is clamped to +-2h; a set with
    no interface is at +-2h everywhere."""
    rng = np.random.default_rng(60 + n)
    h = 0.1
    g = Grid(n, h, {1: 4.0, 2: 1.6, 3: 0.6}[n], ConstantExterior([(-1.0, 1.0)] * n))
    for m in _random_sets(rng, g.shape):
        got = stability.signed_distance(IndicatorSet(g, m))
        if m.all() or not m.any():
            assert np.array_equal(got, np.full(g.shape, -2.0 * h if m.all() else 2.0 * h))
            continue
        exact = _exact_signed_distance(m, h)
        band = np.abs(exact) <= np.sqrt(n) * h
        assert got[band].tobytes() == exact[band].tobytes()
        assert np.array_equal(got, np.clip(exact, -2.0 * h, 2.0 * h))


@pytest.mark.parametrize("t", [-0.16, 0.08])
def test_flow_map_memberships_equal_the_exact_distance_route(monkeypatch, t):
    """flow_map on random sets gives, bit for bit, the memberships of the
    exact route: the whole Euclidean distance transform resampled by
    scipy's map_coordinates at every flowed node inside the support.  A set
    without an interface is returned as it is."""
    from scipy.ndimage import map_coordinates
    rng = np.random.default_rng(7)
    g = Grid(2, 0.1, 2.0, FieldExterior(lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0)))
    pts = g.coords()
    X = radial_bump_vector_field(4)
    inside = _in_support(pts, X)
    steps = max(4, int(np.ceil(abs(t) / 0.02)))
    idx = (_rk4_backward(pts, X, t, steps, inside)[inside] - g.axis_coords()[0]) / g.h
    for m in _random_sets(rng, g.shape):
        _fresh_flow_memo(monkeypatch)
        got = flow_map(IndicatorSet(g, m), X, t).membership
        if m.all() or not m.any():
            assert np.array_equal(got, m)
            continue
        want = m.ravel().copy()
        want[inside] = map_coordinates(_exact_signed_distance(m, g.h), idx.T, order=1,
                                       mode="nearest") <= 0.0
        assert np.array_equal(got.ravel(), want)


def test_flow_memo_misses_on_changed_membership_and_new_field(monkeypatch):
    """The signed distance is reused only for the same membership values, the
    state only for the same field object and step size; every call is a set
    of its own."""
    memo, puts = _recording_memo(monkeypatch)
    E = cone_set("halfplane")
    X, evals = _counted(radial_bump_vector_field(3))
    first = flow_map(E, X, 0.08)
    assert [k[0] for k in puts] == ["sd", "state"]
    del evals[:], puts[:]
    again = flow_map(IndicatorSet(E.grid, E.membership.copy()), X, 0.08)
    assert not evals and not puts and np.array_equal(again.membership, first.membership)
    assert again.membership is not first.membership
    again.membership[...] = False            # every call builds its own set
    assert np.array_equal(flow_map(E, X, 0.08).membership, first.membership)
    assert not evals and not puts
    same_code, evals2 = _counted(radial_bump_vector_field(3))  # another object
    assert np.array_equal(flow_map(E, same_code, 0.08).membership, first.membership)
    assert len(evals2) == 4 * 4 and [k[0] for k in puts] == ["state"]
    del puts[:]
    flow_map(E, X, 0.04)                     # another step size: a new state
    assert len(evals) == 4 * 4 and [k[0] for k in puts] == ["state"]
    del evals[:], puts[:]
    E.membership[:, :3] = ~E.membership[:, :3]   # in place: a new signed distance
    changed = flow_map(E, X, 0.08).membership
    assert not evals and [k[0] for k in puts] == ["sd"]
    memo.clear()
    assert np.array_equal(changed, flow_map(E, X, 0.08).membership)


def _fold_field(amplitude):
    return VectorFieldSpec(
        lambda p: np.stack([np.zeros(len(p)), amplitude * np.sin(8.0 * p[:, 1])], axis=1),
        support_radius=np.inf)


def _counted(X):
    """A copy of X and a list that grows by one per evaluation."""
    evals = []
    return VectorFieldSpec(lambda p: evals.append(1) or X.components(p), X.support_radius), evals


def _fresh_flow_memo(monkeypatch):
    memo = LRUCache(32 << 20)
    monkeypatch.setattr(stability, "_flow_memo", memo)
    return memo


def _recording_memo(monkeypatch, states=None):
    """A fresh flow memo and the keys put into it, in order; the values of
    the states put go to `states`, by key, if given."""
    memo, puts = _fresh_flow_memo(monkeypatch), []
    put = memo.put

    def record(key, value, size=1):
        puts.append(key)
        if states is not None and key[0] == "state":
            states[key] = value
        put(key, value, size)
    monkeypatch.setattr(memo, "put", record)
    return memo, puts


def test_flow_memo_keeps_no_failed_flow(monkeypatch):
    """Only the signed distance is kept: the second failing flow hits it,
    misses its 25 states and evaluates X as often as the first did."""
    memo, puts = _recording_memo(monkeypatch)
    E = cone_set("halfplane")
    X, evals = _counted(_fold_field(30.0))
    counts = []
    for _ in range(2):
        with pytest.raises(FlowError):
            flow_map(E, X, 0.5)
        counts.append(len(evals))
    assert counts == [4 * 25, 2 * 4 * 25]
    assert [k[0] for k in puts] == ["sd"]
    assert len(memo) == 1 and memo.hits == 1 and memo.misses == 1 + 2 * 25


def test_continued_flow_that_folds_keeps_nothing(monkeypatch):
    """t = 0.5 continues from the checked t = 0.32 state (both take steps of
    0.02), folds, and leaves no state of its own."""
    memo, puts = _recording_memo(monkeypatch)
    E = cone_set("halfplane")
    X, evals = _counted(_fold_field(10.0))
    flow_map(E, X, 0.32)
    assert [k[0] for k in puts] == ["sd", "state"] and memo.hits == 0
    del evals[:], puts[:]
    with pytest.raises(FlowError):
        flow_map(E, X, 0.5)
    assert len(evals) == 4 * (25 - 16)      # only the nine steps past t = 0.32
    assert memo.hits == 2                   # the signed distance and the 16-step state
    assert not puts and len(memo) == 2 and memo.evictions == 0


@pytest.mark.parametrize("h, centered", [(1.0 / 16.0, False), (1.0 / 8.0, False),
                                         (1.0 / 16.0, True)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_continued_flow_equals_a_cold_one(monkeypatch, h, centered, sign):
    """+-0.16 continues from the +-0.08 state (0.16/8 and 0.08/4 are the same
    double), flows half the steps and gives a cold flow's state and set bit
    for bit, probes included; a third flow reads the 8-step state back and
    evaluates X no more."""
    ext = FieldExterior(lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0))
    g = Grid(2, h, 2.0, ext, centered)
    E = IndicatorSet(g, (g.coords()[:, 1] <= 0.0).reshape(g.shape))
    X, evals = _counted(radial_bump_vector_field(5))
    t = sign * 0.16
    assert t / 8 == (t / 2) / 4

    cold_states = {}
    _recording_memo(monkeypatch, cold_states)
    cold = flow_map(E, X, t).membership
    assert len(evals) == 4 * 8
    states = {}
    memo, puts = _recording_memo(monkeypatch, states)
    flow_map(E, X, t / 2)
    del evals[:], puts[:]
    warm = flow_map(E, X, t).membership
    assert len(evals) == 4 * 4 and [k[0] for k in puts] == ["state"]
    assert memo.hits == 2                   # the signed distance and the 4-step state
    assert np.array_equal(warm, cold)
    (key, state), = cold_states.items()
    assert key[-1] == 8 and np.array_equal(states[key], state)
    del puts[:]
    assert np.array_equal(flow_map(E, X, t).membership, cold)
    assert len(evals) == 4 * 4 and not puts


@pytest.mark.parametrize("centered", [False, True])
def test_set_rebuilt_from_a_state_equals_a_cold_flow_on_inexact_nodes(monkeypatch, centered):
    """On h = 0.1 the node indices (x - x_0)/h are not exact integers.  A set
    rebuilt from another set's stored state, with the nodes outside the
    support keeping their membership, equals a cold flow and the resampling
    of every node at its flowed position, bit for bit."""
    from scipy import ndimage
    ext = FieldExterior(lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0))
    g = Grid(2, 0.1, 2.0, ext, centered)
    pts = g.coords()
    E = IndicatorSet(g, (pts[:, 1] <= 0.0).reshape(g.shape))
    F = IndicatorSet(g, (pts[:, 0] * pts[:, 1] > 0.0).reshape(g.shape))
    X, evals = _counted(radial_bump_vector_field(2))
    _fresh_flow_memo(monkeypatch)
    flow_map(E, X, 0.16)
    del evals[:]
    warm = flow_map(F, X, 0.16).membership
    assert not evals
    _fresh_flow_memo(monkeypatch)
    cold = flow_map(F, X, 0.16).membership
    idx = (_rk4_backward(pts, X, 0.16, 8, _in_support(pts, X)) - g.axis_coords()[0]) / g.h
    assert not np.array_equal(idx, np.round(idx))
    every = ndimage.map_coordinates(stability.signed_distance(F), idx.T, order=1,
                                    mode="nearest") <= 0.0
    assert np.array_equal(warm, cold) and np.array_equal(warm.ravel(), every)
    assert not np.array_equal(warm, F.membership)


def test_flow_state_is_shared_by_the_sets_of_a_layout():
    """The flow state depends on the layout, X and t, not on the set: a
    second set is deformed without evaluating X and as a cold flow would."""
    stability._flow_memo.clear()
    E, F = cone_set("halfplane"), cone_set("cross")
    X, evals = _counted(radial_bump_vector_field(2))
    flow_map(E, X, -0.08)
    del evals[:]
    warm = flow_map(F, X, -0.08).membership
    assert not evals
    stability._flow_memo.clear()
    assert np.array_equal(warm, flow_map(F, X, -0.08).membership)


def test_flow_memo_holds_the_field_while_its_state_lives(monkeypatch):
    """A state's key holds X itself, so X lives as long as the entry (and no
    other field can take its identity meanwhile) and goes with it."""
    memo = _fresh_flow_memo(monkeypatch)
    X = radial_bump_vector_field(3)
    ref = weakref.ref(X)
    flow_map(cone_set("halfplane"), X, 0.04)
    del X
    gc.collect()
    assert ref() is not None
    memo.put("filler", None, memo.cap)       # evicts the distance and the state
    gc.collect()
    assert ref() is None and memo.evictions == 2


def test_flow_memo_stays_within_its_byte_cap(monkeypatch):
    """Six memberships make six signed distances of 8.3 kB each, of which the
    20 kB cap keeps the latest; the one state, read back by every flow after
    the first, is never evicted."""
    memo, puts = _recording_memo(monkeypatch)
    monkeypatch.setattr(memo, "cap", 20_000)
    g = Grid(2, 1.0 / 8.0, 2.0, FieldExterior(lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0)))
    E = IndicatorSet(g, (g.coords()[:, 1] <= 0.0).reshape(g.shape))  # 32^2: 8.3 kB distances
    X, evals = _counted(radial_bump_vector_field(3))
    for k in range(6):
        E.membership[0, k] = not E.membership[0, k]
        flow_map(E, X, 0.04)
        assert memo.total <= memo.cap
        assert len(evals) == 4 * 4           # only the first flow evaluates X
    assert [k[0] for k in puts] == ["sd", "state"] + ["sd"] * 5
    assert 2 <= len(memo) < 7 and any(k[0] == "state" for k in memo._items)
    assert memo.evictions == 7 - len(memo)
    small = LRUCache(1000)
    monkeypatch.setattr(stability, "_flow_memo", small)
    stability._memo_put(("sd", b"x"), np.zeros(125))   # 1,001 bytes with the key's
    assert len(small) == 0 and small.total == 0
    for _ in range(2):                                  # a second put replaces the first
        stability._memo_put(("sd", b"x"), np.zeros(124))
    assert len(small) == 1 and small.total == 993


@pytest.mark.parametrize("kind", ["halfplane", "cross"])
def test_warm_quotients_equal_cold_ones(kind):
    """A sweep over three orders on a cold flow memo gives, per order and
    field, exactly the per-order composition of flow_map and
    fractional_perimeter and the dict of a one-order call; a warm sweep
    repeats it."""
    E, region, t_list = cone_set(kind), BallRegion((0.0, 0.0), 1.0), (0.08, 0.16)
    fields = [radial_bump_vector_field(k) for k in (2, 9)]
    stability._flow_memo.clear()
    cold = cone_sweep(E, fields, region, (0.5, 0.7, 0.9), t_list)
    assert list(cold) == [0.5, 0.7, 0.9] and all(len(q) == 2 for q in cold.values())
    for s, quotients in cold.items():
        for X, got in zip(fields, quotients):
            assert got == composed_quotients(E, X, region, s, t_list)
            assert got == perimeter_stability_quotients(E, X, region, s, t_list)
    assert cone_sweep(E, fields, region, (0.5, 0.7, 0.9), t_list) == cold
    stability._flow_memo.clear()


@pytest.mark.parametrize("n_fields, orders, t_list", [
    (0, (0.5,), (0.08,)), (1, (), (0.08,)), (1, (0.5,), ()), (1, (0.5,), (0.08, 0.0)),
    (1, (0.5,), (-0.0,)), (1, (0.5,), (float("nan"),)), (1, (0.5,), (np.inf, 0.08)),
], ids=["no_fields", "no_orders", "no_times", "zero_t", "minus_zero_t", "nan_t", "inf_t"])
def test_cone_sweep_refuses_empty_lists_and_bad_flow_times(monkeypatch, n_fields, orders,
                                                           t_list):
    """A flow time of 0 would give q = 0/0 = nan, which a min() fold drops;
    every refusal comes before the first flow."""
    calls = _count_flow_maps(monkeypatch)
    with pytest.raises(ConfigurationError, match="cone sweep"):
        cone_sweep(cone_set("halfplane"), [radial_bump_vector_field(1)] * n_fields,
                   BallRegion((0.0, 0.0), 1.0), orders, t_list)
    assert not calls


def test_vector_field_call_leaves_the_components_array_alone():
    """Rows outside the support are zeroed in a fresh array: a shared buffer
    returned by `components` is not overwritten, and a read-only one works."""
    buf = np.ones((3, 2))
    X = VectorFieldSpec(lambda p: buf, support_radius=1.0)
    pts = np.array([[0.0, 0.5], [2.0, 0.0], [0.0, -3.0]])
    out = X(pts)
    assert np.array_equal(buf, np.ones((3, 2)))
    assert np.array_equal(out, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    Y = VectorFieldSpec(lambda p: np.broadcast_to(np.array([0.1, 0.0]), p.shape),
                        support_radius=1.0)
    assert np.array_equal(Y(pts), [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]])
    E = cone_set("halfplane")
    assert np.array_equal(flow_map(E, Y, 0.1).membership, E.membership)


@pytest.mark.parametrize("radius", [float("nan"), 0.0, -1.0, -np.inf, "1.0"])
def test_vector_field_spec_rejects_bad_support_radius(radius):
    with pytest.raises(ConfigurationError):
        VectorFieldSpec(lambda p: np.zeros_like(p), support_radius=radius)


@pytest.mark.parametrize("s,window", [(0.3, 5e-3), (0.7, 1e-3)])
def test_layer_soft_mode_across_orders(s, window, quartic):
    """The soft translation direction pins the bottom of the spectrum near
    zero at every order; the discrete shift grows as the tails fatten."""
    from fracac import solve_layer_1d
    phi = solve_layer_1d(s, 40.0, 0.05, tol=1e-9)
    rep = min_rayleigh(phi, BallRegion((0.0,), 20.0),
                       KernelSpec.fractional_unit(s, 1), quartic)
    assert abs(rep.min_rayleigh) <= window
