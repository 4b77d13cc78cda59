"""Grid construction, field metrics, rescaling, level sets, serialization."""

import subprocess
import sys

import numpy as np
import pytest

from fracac import (
    BallRegion,
    ConstantExterior,
    FieldExterior,
    Grid,
    IndicatorSet,
    Periodic,
    ScalarField,
    embed_profile,
    evaluate_field,
    gradient_l1_norm,
    hausdorff_distance,
    l1_distance,
    level_set,
    load_field,
    make_grid,
    rescale_blowdown,
    save_field,
)
from fracac.errors import ConfigurationError, GridMismatchError, UnsupportedDimensionError
from fracac.fields import _multilinear


def test_make_grid_node_counts():
    g = make_grid(1, 4.0, 0.5)
    assert g.nodes_per_axis == 16
    g2 = make_grid(2, 1.0, 0.25, ConstantExterior([(1.0, -1.0)] * 2))
    assert g2.shape == (8, 8)


def test_make_grid_rejects_nonintegral_ratio():
    with pytest.raises(ConfigurationError):
        make_grid(1, 1.0, 0.3)


def test_make_grid_rejects_bad_dimension():
    with pytest.raises(UnsupportedDimensionError):
        make_grid(4, 1.0, 0.25)


def test_grid_checks_its_boundary_model():
    """A constant exterior takes one side pair per axis (with fewer, nodes
    that protrude along a missing axis would get no value), and nothing but
    the three boundary models is a boundary."""
    with pytest.raises(ConfigurationError, match="1 side pairs for a 2D grid"):
        Grid(2, 0.25, 2.0, ConstantExterior([(-1.0, 1.0)]))
    with pytest.raises(ConfigurationError, match="2 side pairs for a 1D grid"):
        Grid(1, 0.25, 2.0, ConstantExterior([(-1.0, 1.0)] * 2))
    with pytest.raises(ConfigurationError, match="not Periodic, ConstantExterior or FieldExterior"):
        Grid(1, 0.25, 2.0, "nonsense")


def test_every_boundary_model_names_its_far_values():
    assert Periodic().asymptote is None
    assert ConstantExterior([(-1.0, 0.5)]).asymptote == (-1.0, 0.5)
    assert ConstantExterior([(-1.0, 0.5)] * 2).asymptote is None
    assert FieldExterior(np.tanh).asymptote is None
    assert FieldExterior(np.tanh, [-1, 1]).asymptote == (-1.0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_exterior_picks_the_first_dominant_axis(n):
    """The running max over the axes gives the `argmax` formula's values
    bit for bit, ties (going to the first axis) and signed zeros included."""
    rng = np.random.default_rng(n)
    sides = [tuple(rng.normal(size=2)) for _ in range(n)]
    b = ConstantExterior(sides)
    pts = rng.integers(-3, 4, (4000, n)).astype(float)
    pts[rng.random(pts.shape) < 0.05] = -0.0
    mag = np.abs(pts)
    assert n == 1 or np.any(mag[:, 0] == mag[:, 1])
    axis = np.argmax(mag, axis=1)
    want = np.empty(len(pts))
    for i, (lo, hi) in enumerate(b.sides):
        sel = axis == i
        want[sel] = np.where(pts[sel, i] >= 0.0, hi, lo)
    assert np.array_equal(b(pts), want)
    assert b(pts[0]).shape == (1,)


def test_node_coordinates_are_multiples_of_h():
    g = make_grid(2, 2.0, 0.25)
    c = g.coords()
    assert np.allclose(np.round(c / g.h) * g.h, c)


def field_on(grid, fn):
    pts = grid.coords()
    return ScalarField(grid, fn(pts).reshape(grid.shape))


def test_rescale_identity_is_exact():
    g = Grid(1, 0.25, 4.0, ConstantExterior([(-1.0, 1.0)]))
    u = field_on(g, lambda p: np.tanh(p[:, 0]))
    v = rescale_blowdown(u, 1.0)
    assert np.array_equal(v.values, u.values)


def test_rescale_zero_homogeneous_field_fixed():
    g = Grid(1, 0.25, 4.0, ConstantExterior([(-1.0, 1.0)]))
    u = field_on(g, lambda p: np.sign(p[:, 0] + 1e-300))
    v = rescale_blowdown(u, 3.0)
    assert np.array_equal(v.values, u.values)


def test_rescale_linear_field():
    ext = FieldExterior(lambda p: p[:, 0])
    g = Grid(1, 0.25, 8.0, ext)
    u = field_on(g, lambda p: p[:, 0])
    v = rescale_blowdown(u, 2.0)
    assert np.allclose(v.values, 2.0 * u.values)


def test_rescale_composition_within_tolerance():
    g = Grid(1, 0.1, 4.0, ConstantExterior([(-1.0, 1.0)]))
    u = field_on(g, lambda p: np.tanh(p[:, 0]))
    ab = rescale_blowdown(rescale_blowdown(u, 1.5), 2.0)
    direct = rescale_blowdown(u, 3.0)
    assert np.max(np.abs(ab.values - direct.values)) <= 10.0 * g.h


def test_rescale_shrinks_transition_width(layer_s05):
    v = rescale_blowdown(layer_s05, 8.0)
    h = layer_s05.grid.h
    w_orig = h * np.sum(np.abs(layer_s05.values) <= 0.9)
    w_resc = h * np.sum(np.abs(v.values) <= 0.9)
    assert abs(w_resc - w_orig / 8.0) <= 0.1 * w_orig / 8.0 + 2 * h


def test_l1_distance_trivial_and_constant():
    g = make_grid(1, 4.0, 0.5, ConstantExterior([(1.0, 1.0)]))
    f = field_on(g, lambda p: np.cos(p[:, 0]))
    assert l1_distance(f, f, BallRegion((0.0,), 2.0)) == 0.0
    a = field_on(g, lambda p: np.ones(len(p)))
    b = field_on(g, lambda p: -np.ones(len(p)))
    # constant difference 2 over the ball, within one cell of quadrature
    val = l1_distance(a, b, BallRegion((0.0,), 1.0))
    assert abs(val - 4.0) <= 2.0 * 2.0 * g.h


def test_l1_distance_grid_mismatch():
    g1 = make_grid(1, 4.0, 0.5)
    g2 = make_grid(1, 4.0, 0.25)
    with pytest.raises(GridMismatchError):
        l1_distance(field_on(g1, lambda p: p[:, 0]), field_on(g2, lambda p: p[:, 0]),
                    BallRegion((0.0,), 1.0))


def test_l1_metric_properties_on_random_triples():
    rng = np.random.default_rng(3)
    g = make_grid(1, 4.0, 0.25)
    region = BallRegion((0.0,), 3.0)
    for _ in range(20):
        f, gg, hh = (ScalarField(g, rng.normal(size=g.shape)) for _ in range(3))
        dfg = l1_distance(f, gg, region)
        dgf = l1_distance(gg, f, region)
        assert dfg == dgf
        assert dfg <= l1_distance(f, hh, region) + l1_distance(hh, gg, region) + 1e-12
        assert l1_distance(f, f, region) == 0.0


def test_l1_against_continuum_oracle(layer_s05):
    # reference value from a fine Riemann sum of |phi - sign| on [-4, 4]
    x = layer_s05.grid.axis_coords()
    phi = layer_s05.values
    fine = np.linspace(-4, 4, 200001)
    vals = np.interp(fine, x, phi)
    oracle = np.trapezoid(np.abs(vals - np.sign(fine)), fine)
    g = layer_s05.grid
    sgn = ScalarField(g, np.sign(x + 1e-300))
    val = l1_distance(layer_s05, sgn, BallRegion((0.0,), 4.0))
    assert abs(val - oracle) / oracle <= 0.02


def test_gradient_l1_constant_zero():
    g = make_grid(2, 2.0, 0.25, ConstantExterior([(1.0, 1.0)] * 2))
    u = field_on(g, lambda p: np.ones(len(p)))
    assert gradient_l1_norm(u, BallRegion((0.0, 0.0), 1.5)) == 0.0


def test_gradient_l1_linear_field_ball_area():
    ext = FieldExterior(lambda p: p[:, 0])
    g = Grid(2, 0.05, 2.0, ext)
    u = field_on(g, lambda p: p[:, 0])
    val = gradient_l1_norm(u, BallRegion((0.0, 0.0), 1.0))
    assert abs(val - np.pi) <= 0.05 * np.pi


def test_gradient_l1_layer_saturates_total_variation(layer_s05):
    vals = [gradient_l1_norm(layer_s05, BallRegion((0.0,), R)) for R in (5.0, 10.0, 20.0)]
    assert vals[0] < vals[1] < vals[2] <= 2.05
    assert vals[2] >= 1.8


def test_gradient_l1_smoothed_indicator_tracks_perimeter():
    from scipy.ndimage import gaussian_filter
    ext = FieldExterior(lambda p: np.sign(p[:, 0] + 1e-300))
    g = Grid(2, 0.0625, 4.0, ext)
    pts = g.coords()
    raw = np.sign(pts[:, 0] + 1e-300).reshape(g.shape)
    sm = gaussian_filter(raw, sigma=1.0, mode="nearest")
    u = ScalarField(g, sm)
    R = 2.0
    val = gradient_l1_norm(u, BallRegion((0.0, 0.0), R))
    # the +-1 jump doubles the geometric perimeter length of the slice
    target = 2.0 * (2.0 * R)
    assert target / 2.0 <= val <= 2.0 * target


def test_level_set_basics_and_monotonicity():
    g = make_grid(1, 4.0, 0.25, ConstantExterior([(-1.0, 1.0)]))
    ones = field_on(g, lambda p: np.ones(len(p)))
    assert level_set(ones, 0.0).membership.all()
    u = field_on(g, lambda p: np.clip(p[:, 0], -1, 1))
    ls = level_set(u, 0.0)
    assert np.array_equal(ls.membership.ravel(), g.coords()[:, 0] >= 0)
    rng = np.random.default_rng(0)
    v = ScalarField(g, rng.uniform(-1, 1, size=g.shape))
    lo, hi = sorted(rng.uniform(-0.9, 0.9, size=2))
    assert np.all(level_set(v, hi).membership <= level_set(v, lo).membership)


def test_level_set_rejects_out_of_range():
    g = make_grid(1, 4.0, 0.25)
    u = field_on(g, lambda p: p[:, 0])
    with pytest.raises(ConfigurationError):
        level_set(u, 1.0)


def test_level_set_layer_crossing(layer_s05):
    ls = level_set(layer_s05, 0.0)
    x = layer_s05.grid.axis_coords()
    x0 = x[ls.membership.ravel()].min()
    lip = np.max(np.abs(np.diff(layer_s05.values))) / layer_s05.grid.h
    assert abs(np.interp(x0, x, layer_s05.values)) <= lip * layer_s05.grid.h


def _loaded_by_import(module, calls=""):
    """Whether a fresh process has `module` loaded after `import fracac`
    and the statements `calls` (which see numpy as np and fracac as fa)."""
    code = f"import sys\nimport numpy as np\nimport fracac as fa\n{calls}\n" \
        f"print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() != "False"


def test_import_leaves_scipy_spatial_unloaded():
    assert not _loaded_by_import("scipy.spatial")


_INTERPOLATING_CALLS = """
torus = fa.ScalarField(fa.make_grid(2, 1.0, 0.25), np.arange(64.0).reshape(8, 8))
fa.evaluate_field(torus, [[0.3, -0.7], [5.1, 0.2]])
line = fa.Grid(1, 0.25, 4.0, fa.ConstantExterior([(-1.0, 1.0)]), centered=True)
layer = fa.ScalarField(line, np.tanh(line.axis_coords()))
fa.evaluate_field(layer, [[0.3], [9.0]])
zoomed = fa.rescale_blowdown(layer, 2.0)
plane = fa.Grid(2, 0.125, 1.0, fa.ConstantExterior([(-1.0, 1.0)] * 2))
u = fa.embed_profile(zoomed, (0.6, 0.8), plane)
X = fa.VectorFieldSpec(lambda p: np.full_like(p, 0.5), 0.9)
fa.flow_map(fa.IndicatorSet(plane, u.values <= 0.0), X, 0.1)
"""


def test_import_leaves_scipy_ndimage_unloaded():
    """Neither `import fracac` nor interpolating a field (periodic and
    exterior), rescaling, embedding a profile and flowing a set loads
    scipy.ndimage."""
    assert not _loaded_by_import("scipy.ndimage")
    assert not _loaded_by_import("scipy.ndimage", _INTERPOLATING_CALLS)


def _edge_indices(rng, shape, count):
    """Fractional indices at and next to the lattice's edges and nodes, and
    several periods out, one point per row."""
    cols = []
    for N in shape:
        picks = np.array([0.0, N - 1.0, np.nextafter(N - 1.0, N), np.nextafter(N - 1.0, 0.0),
                          -1e-300, -0.5, -1.0, N - 0.5, float(N), N + 0.25, -N - 0.5,
                          -N - 1.0, 3.0 * N + 0.75, -4.0 * N + 0.5, 7.0 * N])
        cols.append(rng.choice(picks, count))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["nearest", "grid-wrap"])
def test_multilinear_equals_map_coordinates_bit_for_bit(n, mode):
    """The numpy interpolation gives scipy's order-1 map_coordinates bit for
    bit: at random points several periods out of the lattice, at exact and
    half nodes, and at and next to its edges."""
    from scipy.ndimage import map_coordinates
    rng = np.random.default_rng(80 + n)
    shape = (7, 5, 6)[:n]
    values = rng.normal(size=shape)
    spread = rng.uniform(-3.0, 4.0, size=(3000, n)) * np.array(shape)
    idx = np.concatenate([spread, np.round(spread[:1000]), np.round(2.0 * spread[:1000]) / 2.0,
                          _edge_indices(rng, shape, 2000)])
    got = _multilinear(values, idx, wrap=mode == "grid-wrap")
    want = map_coordinates(values, idx.T, order=1, mode=mode)
    assert got.tobytes() == want.tobytes()


def test_hausdorff_identity_translation_and_empty():
    g = make_grid(1, 4.0, 0.125, ConstantExterior([(-1.0, 1.0)]))
    pts = g.coords()[:, 0]
    A = IndicatorSet(g, pts >= 0.0)
    B = IndicatorSet(g, pts >= 0.5)
    region = BallRegion((0.0,), 2.0)
    assert hausdorff_distance(A, A, region) == 0.0
    assert abs(hausdorff_distance(A, B, region) - 0.5) <= g.h
    empty = IndicatorSet(g, np.zeros(g.shape, dtype=bool))
    assert hausdorff_distance(A, empty, region) == float("inf")


def test_embed_profile_constant_and_sign(layer_s05):
    g2 = make_grid(2, 2.0, 0.25)
    g1 = Grid(1, 0.25, 4.0, ConstantExterior([(1.0, 1.0)]))
    const = ScalarField(g1, np.ones(g1.shape))
    u = embed_profile(const, (1.0, 0.0), g2)
    assert np.all(u.values == 1.0)
    g1s = Grid(1, 0.25, 4.0, ConstantExterior([(-1.0, 1.0)]))
    sgn = ScalarField(g1s, np.sign(g1s.axis_coords() + 1e-300))
    v = embed_profile(sgn, (1.0, 0.0), g2)
    assert np.array_equal(v.values.ravel(), np.sign(g2.coords()[:, 0] + 1e-300))
    # the profile's far values become the embedding's asymptote
    assert v.grid.boundary.asymptote == (-1.0, 1.0)


def test_embed_profile_diagonal_zero_set(layer_s05):
    g2 = make_grid(2, 4.0, 0.125)
    e = np.array([1.0, 1.0]) / np.sqrt(2.0)
    u = embed_profile(layer_s05, e, g2)
    ls = level_set(u, 0.0)
    pts = g2.coords()[ls.membership.ravel()]
    # every member sits on the positive side of the diagonal within h
    t = pts @ e
    assert np.all(t >= -g2.h)


def test_evaluate_field_periodic_wrap():
    g = make_grid(1, np.pi, np.pi / 8)
    x = g.axis_coords()
    u = ScalarField(g, np.sin(x))
    probe = np.array([[x[0] - g.period], [x[3] + g.period]])
    got = evaluate_field(u, probe)
    assert np.allclose(got, [np.sin(x[0]), np.sin(x[3])], atol=1e-12)


def test_serialization_roundtrip(tmp_path):
    g = Grid(2, 0.5, 2.0, ConstantExterior([(-1.0, 1.0), (0.5, 0.25)]))
    rng = np.random.default_rng(5)
    u = ScalarField(g, rng.normal(size=g.shape))
    path = tmp_path / "field.txt"
    save_field(u, path)
    v = load_field(path)
    assert v.grid.same_layout(g)
    assert np.allclose(v.values, u.values, atol=1e-12)
    assert isinstance(v.grid.boundary, ConstantExterior)
    assert v.grid.boundary.sides == g.boundary.sides


def test_serialization_centered_layout_roundtrip(layer_s05, tmp_path):
    path = tmp_path / "layer.txt"
    save_field(layer_s05, path)
    v = load_field(path)
    assert v.grid.centered
    assert v.grid.nodes_per_axis == layer_s05.grid.nodes_per_axis
    assert np.allclose(v.values, layer_s05.values, atol=1e-12)


def test_load_field_refuses_a_callable_exterior(layer_s05, tmp_path):
    """An embedded layer's exterior is a callable: its file cannot restore
    it, and no stand-in exterior may take its place."""
    u = embed_profile(layer_s05, (1.0, 0.0), make_grid(2, 4.0, 0.25))
    path = tmp_path / "embedded.txt"
    save_field(u, path)
    with pytest.raises(ConfigurationError, match="callable exterior .* does not round-trip"):
        load_field(path)


def test_indicator_sign_field_values():
    g = make_grid(1, 2.0, 0.5)
    ind = IndicatorSet(g, g.coords()[:, 0] >= 0)
    sf = ind.sign_field()
    assert set(np.unique(sf.values)) == {-1.0, 1.0}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("centered", [False, True])
def test_ball_mask_equals_the_coordinate_formula(n, centered):
    """The per-axis broadcast sum of squared offsets gives the mask that the
    coordinate list gave, off-centre balls included."""
    g = Grid(n, 0.25, 2.0, ConstantExterior([(-1.0, 1.0)] * n), centered)
    for center, radius in (((0.0,) * n, 1.0), ((0.3, -0.55, 0.8)[:n], 1.1),
                           ((-0.25, 0.5, 0.0)[:n], 0.75)):
        region = BallRegion(center, radius)
        d2 = np.sum((g.coords() - np.asarray(region.center)) ** 2, axis=1)
        want = (d2 <= region.radius ** 2 + 1e-12).reshape(g.shape)
        got = region.mask(g)
        assert got.shape == g.shape and got.dtype == bool
        assert np.array_equal(got, want)
