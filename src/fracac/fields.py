"""Grids, scalar fields, indicator sets, and the metrics between them.

A grid covers the cube [-box_radius, box_radius]^n with uniform spacing h.
Everything outside the cube is supplied by a boundary model: periodic
wrap-around, a constant value per half-space side, or an arbitrary callable.
The boundary model is what lets nonlocal operators integrate over all of
R^n from data stored on a finite box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    GridMismatchError,
    OutOfDomainError,
    UnsupportedDimensionError,
)

__all__ = [
    "Periodic",
    "ConstantExterior",
    "FieldExterior",
    "Grid",
    "ScalarField",
    "IndicatorSet",
    "BallRegion",
    "make_grid",
    "evaluate_field",
    "rescale_blowdown",
    "l1_distance",
    "gradient_l1_norm",
    "gradient_magnitude",
    "gradient_components",
    "level_set",
    "hausdorff_distance",
    "embed_profile",
    "save_field",
    "load_field",
]


# ---------------------------------------------------------------------------
# boundary models
# ---------------------------------------------------------------------------

class Periodic:
    """Opposite faces identified; fields wrap around.  A torus has no
    exterior, so no far values either: ``asymptote`` is None."""

    token = "periodic"
    asymptote = None

    def __repr__(self):
        return "Periodic()"

    def key(self):
        return ("periodic",)


class ConstantExterior:
    """Constant exterior value per half-space side.

    ``sides[i] = (lo, hi)`` is the value used beyond the low/high face of
    axis i; a grid takes exactly one pair per axis.  A point outside the
    box is attributed to the axis along which it protrudes the most.  On a
    line the sides are the far values, so ``asymptote`` is ``sides[0]``
    with one pair and None with more.
    """

    def __init__(self, sides: Sequence[tuple[float, float]]):
        self.sides = tuple((float(lo), float(hi)) for lo, hi in sides)
        self.asymptote = self.sides[0] if len(self.sides) == 1 else None

    def __repr__(self):
        return f"ConstantExterior({self.sides})"

    @property
    def token(self):
        flat = ",".join(f"{v!r}" for pair in self.sides for v in pair)
        return f"exterior_constant:{flat}"

    def key(self):
        return ("constant", self.sides)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """The side value of each point's dominant protrusion axis, found by
        a running max of |x_i| over the axes (the first axis wins a tie), so
        the call holds two floats per point besides the output."""
        points = np.atleast_2d(points)
        (lo, hi), top = self.sides[0], np.abs(points[:, 0])
        out = np.where(points[:, 0] >= 0.0, hi, lo)
        for i, (lo, hi) in enumerate(self.sides[1:], start=1):
            mag = np.abs(points[:, i])
            wins = mag > top
            np.maximum(top, mag, out=top)
            del mag
            pos = points[:, i] >= 0.0
            np.copyto(out, hi, where=wins & pos)
            np.copyto(out, lo, where=wins & ~pos)
        return out


class FieldExterior:
    """Exterior values given by a callable on points of R^n.

    ``asymptote`` optionally names the limiting values (lo, hi) of the
    exterior field far from the box; 1D tail integrals use it to split off
    a closed-form part (without it they probe the callable far out).  The
    operator registry keys on the callable's identity and the asymptote.
    A callable does not round-trip through `save_field`/`load_field`.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray],
                 asymptote: Optional[tuple[float, float]] = None):
        self.fn = fn
        self.asymptote = None if asymptote is None else tuple(float(a) for a in asymptote)

    token = "exterior_field"

    def __repr__(self):
        return "FieldExterior(...)"

    def key(self):
        return ("field", id(self.fn), self.asymptote)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(points)), dtype=float)


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-box_radius, box_radius]^n.

    Nodes sit at integer multiples of h.  The standard layout puts 2M nodes
    per axis at j*h for j = -M..M-1 (M = box_radius/h), which tiles the box
    with cells [jh - h/2, jh + h/2).  A *centered* grid uses 2M+1 nodes
    j = -M..M instead; it is symmetric under x -> -x, which the layer
    solver needs for exact odd symmetry.

    The grid is the one place that checks the boundary model: it must be
    `Periodic`, `ConstantExterior` with one side pair per axis, or
    `FieldExterior`.
    """

    n: int
    h: float
    box_radius: float
    boundary: object = field(default_factory=Periodic)
    centered: bool = False

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise UnsupportedDimensionError(f"dimension {self.n} not in 1..3")
        if not (self.h > 0 and self.box_radius > 0):
            raise ConfigurationError(
                f"h = {self.h} and box_radius = {self.box_radius} must be positive")
        ratio = self.box_radius / self.h
        if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
            raise ConfigurationError(
                f"box_radius/h = {ratio} must be a positive integer")
        b = self.boundary
        if not isinstance(b, (Periodic, ConstantExterior, FieldExterior)):
            raise ConfigurationError(
                f"boundary {b!r} is not Periodic, ConstantExterior or FieldExterior")
        if isinstance(b, ConstantExterior) and len(b.sides) != self.n:
            raise ConfigurationError(
                f"{b!r} has {len(b.sides)} side pairs for a {self.n}D grid")
        if self.centered and isinstance(b, Periodic):
            raise ConfigurationError("centered layout is for exterior grids only")

    @property
    def half_count(self) -> int:
        return int(round(self.box_radius / self.h))

    @property
    def nodes_per_axis(self) -> int:
        return 2 * self.half_count + (1 if self.centered else 0)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.n

    @property
    def node_count(self) -> int:
        return self.nodes_per_axis ** self.n

    @property
    def period(self) -> float:
        return 2.0 * self.box_radius

    def axis_coords(self) -> np.ndarray:
        m = self.half_count
        hi = m + 1 if self.centered else m
        return self.h * np.arange(-m, hi)

    def coords(self) -> np.ndarray:
        """(node_count, n) array of node coordinates, C order."""
        axes = [self.axis_coords()] * self.n
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_volume(self) -> float:
        return self.h ** self.n

    def key(self):
        return (self.n, self.h, self.box_radius, self.boundary.key(), self.centered)

    def same_layout(self, other: "Grid") -> bool:
        return (self.n, self.h, self.box_radius, self.centered) == \
            (other.n, other.h, other.box_radius, other.centered)


@dataclass
class ScalarField:
    """Real values on a grid, with an optional admissible range."""

    grid: Grid
    values: np.ndarray
    range_hint: Optional[tuple[float, float]] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.node_count:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise ConfigurationError(
                    f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        if self.range_hint is not None:
            lo, hi = self.range_hint
            if self.values.min() < lo - 1e-12 or self.values.max() > hi + 1e-12:
                raise ConfigurationError("values violate the declared range hint")

    def copy_with(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values, self.range_hint)


@dataclass
class IndicatorSet:
    """Boolean membership per node; chi_E - chi_{E^c} is a +/-1 field."""

    grid: Grid
    membership: np.ndarray

    def __post_init__(self):
        self.membership = np.asarray(self.membership, dtype=bool)
        if self.membership.shape != self.grid.shape:
            self.membership = self.membership.reshape(self.grid.shape)

    def sign_field(self) -> ScalarField:
        return ScalarField(self.grid, np.where(self.membership, 1.0, -1.0),
                           range_hint=(-1.0, 1.0))


@dataclass(frozen=True)
class BallRegion:
    """Euclidean ball used to localize energies and norms."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")

    def mask(self, grid: Grid) -> np.ndarray:
        if len(self.center) != grid.n:
            raise ConfigurationError("region center dimension mismatch")
        # squared offsets per axis, summed by broadcasting in axis order
        axes = np.ix_(*[grid.axis_coords()] * grid.n)
        d2 = sum((a - c) ** 2 for a, c in zip(axes, self.center))
        return d2 <= self.radius ** 2 + 1e-12

    def check_inside(self, grid: Grid):
        c = np.asarray(self.center)
        if np.max(np.abs(c)) + self.radius > grid.box_radius + 1e-12:
            raise OutOfDomainError(
                f"ball (center {self.center}, radius {self.radius}) exceeds the grid box")

    def key(self):
        return (self.center, self.radius)


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def make_grid(n: int, box_radius: float, h: float, boundary=None) -> Grid:
    """Build the standard (2M nodes per axis) grid over the box."""
    if boundary is None:
        boundary = Periodic()
    return Grid(n=int(n), h=float(h), box_radius=float(box_radius), boundary=boundary)


def _multilinear(values: np.ndarray, idx: np.ndarray, wrap: bool) -> np.ndarray:
    """Order-1 interpolation of a lattice at fractional indices, one point
    per row of idx, bit for bit as scipy's map_coordinates(values, idx.T,
    order=1) in mode "grid-wrap" (wrap) or "nearest".

    Along each axis a coordinate c falls in the cell i0 = floor(c), i0 + 1,
    whose nodes carry the weights w0 = 1 - (c - i0) and 1 - w0.  "nearest"
    clamps both indices into the lattice; "grid-wrap" first reduces c into
    (-1, N) the way scipy does, then takes both indices mod N.  The 2^n
    corner terms (value times the weights in axis order) are summed in C
    order, starting from 0.0.
    """
    legs, stride = [], 1
    for ax in range(values.ndim - 1, -1, -1):
        N = values.shape[ax]
        c = idx[:, ax].copy()
        if wrap:
            low = c < 0.0
            c[low] += N * (np.trunc((-1.0 - c[low]) / N) + 1.0)
            high = c > N - 1
            c[high] -= N * np.trunc(c[high] / N)
        i0 = np.floor(c)
        c -= i0
        w0 = np.subtract(1.0, c, out=c)
        i0 = i0.astype(np.intp)
        i1 = i0 + 1
        for i in (i0, i1):
            if wrap:
                i %= N
            else:
                np.clip(i, 0, N - 1, out=i)
            i *= stride
        legs.insert(0, ((i0, w0), (i1, 1.0 - w0)))
        stride *= N
    flat = values.ravel()
    out = np.zeros(len(idx))
    for corner in np.ndindex(*(2,) * values.ndim):
        pick = [leg[k] for leg, k in zip(legs, corner)]
        term = flat[sum(i for i, _ in pick)]
        for _, w in pick:
            term *= w
        out += term
    return out


def evaluate_field(u: ScalarField, points: np.ndarray) -> np.ndarray:
    """Evaluate u anywhere in R^n: multilinear inside, boundary model outside.

    A periodic grid wraps every point into the box; an exterior grid
    interpolates the points inside the outermost nodes and asks the
    boundary model for the rest.  Both interpolations are `_multilinear`,
    which equals scipy's map_coordinates at order 1 bit for bit.
    Multilinear interpolation never overshoots the nodal range, so fields
    with values in [-1, 1] stay there.
    """
    g = u.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != g.n:
        raise ConfigurationError("point dimension mismatch")
    if isinstance(g.boundary, Periodic):
        return _multilinear(u.values, (points + g.box_radius) / g.h, wrap=True)

    ax = g.axis_coords()
    lo, hi = ax[0], ax[-1]
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    out = np.empty(len(points))
    if inside.any():
        out[inside] = _multilinear(u.values, (points[inside] - lo) / g.h, wrap=False)
    if (~inside).any():
        out[~inside] = g.boundary(points[~inside])
    return out


def rescale_blowdown(u: ScalarField, R: float) -> ScalarField:
    """Zoomed-out view v(x) = u(Rx) sampled on the same grid layout.

    Samples landing outside the stored box come from the boundary model;
    a grid without one (periodic wraps, so it always has one) cannot run
    out of data.
    """
    if R <= 0:
        raise ConfigurationError("rescale factor must be positive")
    g = u.grid
    if R == 1.0:
        return u.copy_with(u.values.copy())
    pts = g.coords() * R
    vals = evaluate_field(u, pts).reshape(g.shape)
    if isinstance(g.boundary, Periodic):
        new_boundary = Periodic()
    else:
        new_boundary = FieldExterior(lambda p, _u=u, _R=R: evaluate_field(_u, np.atleast_2d(p) * _R))
        src = g.boundary
        if isinstance(src, FieldExterior):
            new_boundary.asymptote = src.asymptote
    new_grid = Grid(g.n, g.h, g.box_radius, new_boundary, g.centered)
    return ScalarField(new_grid, vals, u.range_hint)


# ---------------------------------------------------------------------------
# metrics and norms
# ---------------------------------------------------------------------------

def l1_distance(f: ScalarField, g: ScalarField, region: BallRegion) -> float:
    """h^n-weighted L1 distance over the nodes of a ball."""
    if not f.grid.same_layout(g.grid):
        raise GridMismatchError("fields live on different grids")
    mask = region.mask(f.grid)
    return float(f.grid.cell_volume() * np.abs(f.values - g.values)[mask].sum())


def neighbor_legs(u: ScalarField) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the values (plus, minus) at x + h e_axis and x - h e_axis.

    Periodic grids wrap around; on exterior grids, legs that leave the box
    take the boundary model's value there.  Either way every node has a
    full stencil.
    """
    g = u.grid
    legs = [(np.roll(u.values, -1, axis=ax), np.roll(u.values, 1, axis=ax)) for ax in range(g.n)]
    if isinstance(g.boundary, Periodic):
        return legs
    pts = g.coords().reshape(g.shape + (g.n,))
    for ax, pair in enumerate(legs):
        for leg, face, shift in zip(pair, (-1, 0), (g.h, -g.h)):
            idx = (slice(None),) * ax + (face,)
            p = pts[idx].reshape(-1, g.n).copy()
            p[:, ax] += shift
            leg[idx] = g.boundary(p).reshape(leg[idx].shape)
    return legs


def gradient_components(u: ScalarField) -> list[np.ndarray]:
    """Central-difference gradient components at every node, on the legs of
    `neighbor_legs`."""
    return [(plus - minus) / (2.0 * u.grid.h) for plus, minus in neighbor_legs(u)]


def gradient_magnitude(u: ScalarField) -> np.ndarray:
    """Central-difference |grad u| at every node."""
    comps = gradient_components(u)
    return np.sqrt(sum(c * c for c in comps))


def gradient_l1_norm(u: ScalarField, region: BallRegion) -> float:
    """h^n * sum of central-difference gradient magnitudes over a ball.

    Boundary models are total, so every node has a complete stencil and
    regions may reach the box boundary.
    """
    g = u.grid
    mask = region.mask(g)
    mag = gradient_magnitude(u)
    return float(g.cell_volume() * mag[mask].sum())


def level_set(u: ScalarField, c: float) -> IndicatorSet:
    """Superlevel set {u >= c} as an indicator."""
    if not (-1.0 < c < 1.0):
        raise ConfigurationError("level must lie in (-1, 1)")
    return IndicatorSet(u.grid, u.values >= c)


def hausdorff_distance(A: IndicatorSet, B: IndicatorSet, region: BallRegion) -> float:
    """Hausdorff distance between node sets A and B inside a ball.

    Returns +inf when either set is empty in the region (the empty-set
    sentinel); callers treat that as "no distance defined".
    """
    if not A.grid.same_layout(B.grid):
        raise GridMismatchError("indicator sets live on different grids")
    mask = region.mask(A.grid).ravel()
    pts = A.grid.coords()
    pa = pts[A.membership.ravel() & mask]
    pb = pts[B.membership.ravel() & mask]
    if len(pa) == 0 or len(pb) == 0:
        return float("inf")
    from scipy.spatial import cKDTree    # lazy: keeps scipy.spatial out of `import fracac`
    ta, tb = cKDTree(pa), cKDTree(pb)
    d_ab = tb.query(pa)[0].max()
    d_ba = ta.query(pb)[0].max()
    return float(max(d_ab, d_ba))


def embed_profile(profile: ScalarField, direction, grid: Grid) -> ScalarField:
    """Lift a 1D profile p to u(x) = p(direction . x) on an n-D grid."""
    if profile.grid.n != 1:
        raise ConfigurationError("profile must be one-dimensional")
    e = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-9:
        raise ConfigurationError("direction must be a unit vector")
    if isinstance(profile.grid.boundary, Periodic):
        raise ConfigurationError("profile needs an exterior model to cover the diagonal")
    pts = grid.coords()
    t = pts @ e
    vals = evaluate_field(profile, t[:, None]).reshape(grid.shape)
    ext = FieldExterior(
        lambda p, _prof=profile, _e=e: evaluate_field(_prof, (np.atleast_2d(p) @ _e)[:, None]),
        asymptote=profile.grid.boundary.asymptote,
    )
    new_grid = Grid(grid.n, grid.h, grid.box_radius, ext, grid.centered)
    return ScalarField(new_grid, vals, profile.range_hint)


# ---------------------------------------------------------------------------
# serialization: text format, one node per row
# ---------------------------------------------------------------------------

def save_field(u: ScalarField, path) -> None:
    """Write `n h box_radius boundary_model` header plus coordinate/value rows."""
    g = u.grid
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.h!r} {g.box_radius!r} {g.boundary.token}\n")
        pts = g.coords()
        vals = u.values.ravel()
        for row, v in zip(pts, vals):
            cols = " ".join(f"{c:.{14}g}" for c in row)
            fh.write(f"{cols} {v:.{14}g}\n")


def load_field(path) -> ScalarField:
    """Read a field written by save_field; centered layout is inferred from
    row count.  A `FieldExterior` is a callable, which a text file cannot
    hold: a file written from one raises ConfigurationError."""
    with open(path) as fh:
        header = fh.readline().split()
        n = int(header[0])
        h = float(header[1])
        box_radius = float(header[2])
        token = header[3]
        if token == "periodic":
            boundary = Periodic()
        elif token.startswith("exterior_constant:"):
            flat = [float(v) for v in token.split(":", 1)[1].split(",")]
            boundary = ConstantExterior(list(zip(flat[::2], flat[1::2])))
        else:
            raise ConfigurationError(
                f"{path}: the callable exterior ({token}) does not round-trip")
        data = np.loadtxt(fh)
    if data.ndim == 1:
        data = data[None, :]
    vals = data[:, -1]
    m = int(round(box_radius / h))
    centered = len(vals) == (2 * m + 1) ** n
    grid = Grid(n, h, box_radius, boundary, centered)
    return ScalarField(grid, vals.reshape(grid.shape))
