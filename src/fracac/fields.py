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
from scipy import ndimage
from scipy.spatial import cKDTree

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
    """Opposite faces identified; fields wrap around."""

    token = "periodic"

    def __repr__(self):
        return "Periodic()"

    def key(self):
        return ("periodic",)


class ConstantExterior:
    """Constant exterior value per half-space side.

    ``sides[i] = (lo, hi)`` is the value used beyond the low/high face of
    axis i.  A point outside the box is attributed to the axis along which
    it protrudes the most.
    """

    def __init__(self, sides: Sequence[tuple[float, float]]):
        self.sides = tuple((float(lo), float(hi)) for lo, hi in sides)

    def __repr__(self):
        return f"ConstantExterior({self.sides})"

    @property
    def token(self):
        flat = ",".join(f"{v!r}" for pair in self.sides for v in pair)
        return f"exterior_constant:{flat}"

    def key(self):
        return ("constant", self.sides)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        # dominant protrusion axis decides which side value applies
        axis = np.argmax(np.abs(points), axis=1)
        out = np.empty(len(points))
        for i, (lo, hi) in enumerate(self.sides):
            sel = axis == i
            out[sel] = np.where(points[sel, i] >= 0.0, hi, lo)
        return out


class FieldExterior:
    """Exterior values given by a callable on points of R^n.

    ``asymptote`` optionally names the limiting values (lo, hi) of the
    exterior field far from the box; tail integrals use it to split off a
    closed-form part.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray],
                 asymptote: Optional[tuple[float, float]] = None):
        self.fn = fn
        self.asymptote = asymptote

    token = "exterior_field"

    def __repr__(self):
        return "FieldExterior(...)"

    def key(self):
        return ("field", id(self.fn))

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
    """

    n: int
    h: float
    box_radius: float
    boundary: object = field(default_factory=Periodic)
    centered: bool = False

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise UnsupportedDimensionError(f"dimension {self.n} not in 1..3")
        ratio = self.box_radius / self.h
        if abs(ratio - round(ratio)) > 1e-9 or self.h <= 0 or self.box_radius <= 0:
            raise ConfigurationError(
                f"box_radius/h = {ratio} must be a positive integer")
        if self.centered and isinstance(self.boundary, Periodic):
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
        pts = grid.coords()
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=1)
        return (d2 <= self.radius ** 2 + 1e-12).reshape(grid.shape)

    def check_inside(self, grid: Grid, margin: float = 0.0):
        c = np.asarray(self.center)
        if np.max(np.abs(c)) + self.radius > grid.box_radius + 1e-12 - margin:
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


def _periodic_interp(u: ScalarField, points: np.ndarray) -> np.ndarray:
    g = u.grid
    # map to fractional index space; mode='grid-wrap' handles the wrap
    idx = (points + g.box_radius) / g.h
    return ndimage.map_coordinates(u.values, idx.T, order=1, mode="grid-wrap")


def evaluate_field(u: ScalarField, points: np.ndarray) -> np.ndarray:
    """Evaluate u anywhere in R^n: multilinear inside, boundary model outside.

    Multilinear interpolation never overshoots the nodal range, so fields
    with values in [-1, 1] stay there.
    """
    g = u.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != g.n:
        raise ConfigurationError("point dimension mismatch")
    if isinstance(g.boundary, Periodic):
        return _periodic_interp(u, points)

    ax = g.axis_coords()
    lo, hi = ax[0], ax[-1]
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    out = np.empty(len(points))
    if inside.any():
        idx = (points[inside] - lo) / g.h
        out[inside] = ndimage.map_coordinates(u.values, idx.T, order=1, mode="nearest")
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


def exterior_neighbors(u: ScalarField) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the values (plus, minus) at x + h e_axis and x - h e_axis.

    For exterior grids: legs that leave the box take the boundary model's
    value there, so every node has a full stencil.
    """
    g = u.grid
    vals = u.values
    pts = g.coords().reshape(g.shape + (g.n,))
    out = []
    for ax in range(g.n):
        plus = np.empty_like(vals)
        minus = np.empty_like(vals)
        sl_core = [slice(None)] * g.n
        sl_core[ax] = slice(0, -1)
        sl_shift = [slice(None)] * g.n
        sl_shift[ax] = slice(1, None)
        plus[tuple(sl_core)] = vals[tuple(sl_shift)]
        minus[tuple(sl_shift)] = vals[tuple(sl_core)]
        face_hi = [slice(None)] * g.n
        face_hi[ax] = slice(-1, None)
        face_lo = [slice(None)] * g.n
        face_lo[ax] = slice(0, 1)
        p_hi = pts[tuple(face_hi)].reshape(-1, g.n).copy()
        p_hi[:, ax] += g.h
        p_lo = pts[tuple(face_lo)].reshape(-1, g.n).copy()
        p_lo[:, ax] -= g.h
        plus[tuple(face_hi)] = g.boundary(p_hi).reshape(plus[tuple(face_hi)].shape)
        minus[tuple(face_lo)] = g.boundary(p_lo).reshape(minus[tuple(face_lo)].shape)
        out.append((plus, minus))
    return out


def gradient_components(u: ScalarField) -> list[np.ndarray]:
    """Central-difference gradient components at every node.

    Periodic grids difference across the wrap; exterior grids use the
    boundary model beyond the last node, so every node has a full stencil.
    """
    g = u.grid
    if isinstance(g.boundary, Periodic):
        legs = [(np.roll(u.values, -1, axis=ax), np.roll(u.values, 1, axis=ax))
                for ax in range(g.n)]
    else:
        legs = exterior_neighbors(u)
    return [(plus - minus) / (2.0 * g.h) for plus, minus in legs]


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
        asymptote=_profile_asymptote(profile),
    )
    new_grid = Grid(grid.n, grid.h, grid.box_radius, ext, grid.centered)
    return ScalarField(new_grid, vals, profile.range_hint)


def _profile_asymptote(profile: ScalarField):
    b = profile.grid.boundary
    if isinstance(b, ConstantExterior):
        return b.sides[0]
    if isinstance(b, FieldExterior):
        return b.asymptote
    return None


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
    """Read a field written by save_field; centered layout is inferred from row count."""
    with open(path) as fh:
        header = fh.readline().split()
        n = int(header[0])
        h = float(header[1])
        box_radius = float(header[2])
        token = header[3]
        data = np.loadtxt(fh)
    if data.ndim == 1:
        data = data[None, :]
    vals = data[:, -1]
    m = int(round(box_radius / h))
    centered = len(vals) == (2 * m + 1) ** n
    if token == "periodic":
        boundary = Periodic()
    elif token.startswith("exterior_constant:"):
        flat = [float(v) for v in token.split(":", 1)[1].split(",")]
        boundary = ConstantExterior([(flat[2 * i], flat[2 * i + 1]) for i in range(n)])
    else:
        # callables do not round-trip; nearest-face constants approximate them
        per = int(round(len(vals) ** (1.0 / n)))
        arr = vals.reshape((per,) * n)
        sides = []
        for ax in range(n):
            sl_lo = [slice(None)] * n
            sl_hi = [slice(None)] * n
            sl_lo[ax] = 0
            sl_hi[ax] = -1
            sides.append((float(np.mean(arr[tuple(sl_lo)])), float(np.mean(arr[tuple(sl_hi)]))))
        boundary = ConstantExterior(sides)
    grid = Grid(n, h, box_radius, boundary, centered)
    return ScalarField(grid, vals.reshape(grid.shape))
