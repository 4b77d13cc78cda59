"""Localized energies, the double-well potentials, fractional perimeter,
and the domain-variation machinery.

The Sobolev part is a quarter pair-sum over ordered node pairs with at
least one endpoint in the region, plus closed-form/quadrature tails for
the exterior; the potential part is a plain cell sum with the
epsilon^{-s} weight.  The discrete nonlocal operator is the exact
gradient of this energy, so first-variation identities hold at round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._lattice import bounding_box, get_operator
from .errors import ConfigurationError
from .fields import (
    BallRegion,
    IndicatorSet,
    Periodic,
    ScalarField,
    evaluate_field,
    gradient_magnitude,
)
from .kernels import KernelSpec

__all__ = [
    "Potential",
    "EnergyBreakdown",
    "VariationMap",
    "sobolev_energy",
    "potential_energy",
    "energy_breakdown",
    "fractional_perimeter",
    "perimeter_identity_residual",
    "domain_variation",
    "translation_comparison",
    "maxmin_residual",
]


# ---------------------------------------------------------------------------
# double-well potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """A double well W on [-1, 1] with its derivatives and structural constants.

    The constants (c0, nu0, nu1) witness the well structure: -W'' >= nu0
    near the inner critical point, W'' >= nu0 near the wells, and
    |W'| >= nu1 in between.
    """

    kind: str
    w: Callable[[np.ndarray], np.ndarray]
    wp: Callable[[np.ndarray], np.ndarray]
    wpp: Callable[[np.ndarray], np.ndarray]
    c0: float
    nu0: float
    nu1: float
    t_mid: float = 0.0

    def __post_init__(self):
        audit_potential(self)

    @staticmethod
    def quartic() -> "Potential":
        return Potential(
            "quartic",
            w=lambda u: 0.25 * (1.0 - u ** 2) ** 2,
            wp=lambda u: u ** 3 - u,
            wpp=lambda u: 3.0 * u ** 2 - 1.0,
            c0=1.0 - 1.0 / np.sqrt(2.0),
            nu0=0.5,
            nu1=0.14,
        )

    @staticmethod
    def peierls_nabarro() -> "Potential":
        return Potential(
            "peierls_nabarro",
            w=lambda u: 1.0 + np.cos(np.pi * u),
            wp=lambda u: -np.pi * np.sin(np.pi * u),
            wpp=lambda u: -np.pi ** 2 * np.cos(np.pi * u),
            c0=1.0 / 3.0,
            nu0=4.9,
            nu1=1.5,
        )

    @staticmethod
    def custom(w, wp, wpp) -> "Potential":
        """Wrap user callables; structural constants derived from a fine scan."""
        t = np.linspace(-1.0, 1.0, 20001)
        crit = t[1:-1][np.abs(wp(t[1:-1])) < 1e-10]
        t_mid_candidates = t[1:-1][(np.sign(wp(t[:-2])) > 0) & (np.sign(wp(t[2:])) < 0)]
        t_mid = float(t_mid_candidates[0]) if len(t_mid_candidates) else 0.0
        # largest c0 window on which the three inequalities have positive slack
        for c0 in np.linspace(0.6, 0.02, 59):
            a = t[(t >= t_mid) & (t <= t_mid + c0)]
            b = t[(t >= 1.0 - c0) & (t <= 1.0)]
            m = t[(t >= t_mid + c0 / 2.0) & (t <= 1.0 - c0)]
            if len(a) == 0 or len(b) == 0 or len(m) == 0:
                continue
            nu0 = min(float(np.min(-wpp(a))), float(np.min(wpp(b))))
            nu1 = float(np.min(-wp(m)))
            if nu0 > 0 and nu1 > 0:
                return Potential("custom", w, wp, wpp, float(c0),
                                 0.95 * nu0, 0.95 * nu1, t_mid)
        raise ConfigurationError("could not certify a double-well structure")


def audit_potential(W: Potential):
    """Structural audit: wells at +-1, positivity inside, nondegenerate wells,
    a unique interior critical point with negative curvature, and the three
    stored constant inequalities on 4001 samples of [-1, 1]."""
    t = np.linspace(-1.0, 1.0, 4001)
    w, wp, wpp = W.w(t), W.wp(t), W.wpp(t)
    if abs(W.w(np.array([-1.0]))[0]) > 1e-12 or abs(W.w(np.array([1.0]))[0]) > 1e-12:
        raise ConfigurationError("wells of W must sit at exactly +-1 with W = 0")
    if np.any(w[1:-1] <= 0.0):
        raise ConfigurationError("W must be positive strictly inside the wells")
    if W.wpp(np.array([-1.0]))[0] <= 0.0 or W.wpp(np.array([1.0]))[0] <= 0.0:
        raise ConfigurationError("wells must be nondegenerate")
    inner_signs = np.sign(wp[1:-1])
    inner_signs = inner_signs[inner_signs != 0]
    flips = np.count_nonzero(np.diff(inner_signs))
    if flips != 1:
        raise ConfigurationError("W' must vanish at a single interior point")
    if W.wpp(np.array([W.t_mid]))[0] >= 0.0:
        raise ConfigurationError("interior critical point must be a maximum")
    # stored constants: the three displayed inequalities
    lo = W.t_mid
    a = t[(t >= lo) & (t <= lo + W.c0)]
    b = t[(t >= 1.0 - W.c0) & (t <= 1.0)]
    m = t[(t >= lo + W.c0 / 2.0) & (t <= 1.0 - W.c0)]
    if np.min(-W.wpp(a)) < W.nu0 - 1e-9 or np.min(W.wpp(b)) < W.nu0 - 1e-9:
        raise ConfigurationError("stored nu0 is not certified by W''")
    if np.min(-W.wp(m)) < W.nu1 - 1e-9:
        raise ConfigurationError("stored nu1 is not certified by W'")


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

@dataclass
class EnergyBreakdown:
    sobolev: float
    potential: float
    region: BallRegion
    epsilon: float = 1.0

    @property
    def total(self) -> float:
        return self.sobolev + self.potential

    def record(self) -> dict:
        return {
            "region": {"center": list(self.region.center), "radius": self.region.radius},
            "epsilon": self.epsilon,
            "sobolev": self.sobolev,
            "potential": self.potential,
        }


def _classical_sobolev(u: ScalarField, region: BallRegion) -> float:
    mask = region.mask(u.grid)
    mag = gradient_magnitude(u)
    return float(0.5 * u.grid.cell_volume() * (mag[mask] ** 2).sum())


def sobolev_energy(u: ScalarField, region: BallRegion, spec: KernelSpec) -> float:
    """Interaction energy over pairs meeting the region, with exterior tails.

    Exact in every dimension: the pair sum runs over the one weight table
    (FFT correlations, exact to round-off; on a periodic grid the table is
    the periodized row unwrapped), plus the tail moments of the operator,
    which are zero on periodic grids.  The classical kind is the local
    Dirichlet energy over the region.
    """
    g = u.grid
    if not isinstance(g.boundary, Periodic):
        region.check_inside(g)
    if spec.kind == "classical":
        return _classical_sobolev(u, region)
    return get_operator(g, spec).sobolev_energy(u.values, region.mask(g))


def _pot_weight(epsilon: float, s: float) -> float:
    """The epsilon^{-s} weight of the potential term."""
    return epsilon ** (-s)


def potential_energy(u: ScalarField, region: BallRegion, W: Potential,
                     epsilon: float = 1.0, s: Optional[float] = None) -> float:
    """epsilon^{-s} h^n sum of W(u) over the region nodes."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if epsilon != 1.0 and s is None:
        raise ConfigurationError("epsilon != 1 needs the order s for the weight")
    weight = 1.0 if s is None else _pot_weight(epsilon, s)
    mask = region.mask(u.grid)
    return float(weight * u.grid.cell_volume() * W.w(u.values[mask]).sum())


def energy_breakdown(u: ScalarField, region: BallRegion, spec: KernelSpec,
                     W: Potential, epsilon: float = 1.0) -> EnergyBreakdown:
    sob = sobolev_energy(u, region, spec)
    pot = potential_energy(u, region, W, epsilon, spec.s)
    return EnergyBreakdown(sob, pot, region, epsilon)


# ---------------------------------------------------------------------------
# fractional perimeter
# ---------------------------------------------------------------------------

def fractional_perimeter(E: IndicatorSet, region: BallRegion, s: float) -> float:
    """Interaction perimeter of E in the region, kernel |z|^{-n-s}.

    Two pair families: (E in region) against the complement anywhere, and
    (region minus E) against the part of E outside the region.  Both are
    read on the region's bounding box only, so each family's convolution
    goes through the operator's engine windowed to that box and its mask
    memo.  Exterior tails come from the grid's boundary model, which must
    take values in {-1, +1} outside: a grid whose tail moments t2 and t0
    differ is refused.
    """
    if not (0.0 < s < 1.0):
        raise ConfigurationError("perimeter order must lie in (0, 1)")
    g = E.grid
    spec = KernelSpec.perimeter(s)
    op = get_operator(g, spec)
    t0, t1 = op.moments["t0"], op.moments["t1"]
    if not np.array_equal(op.moments["t2"], t0):
        raise ConfigurationError(
            f"the perimeter needs an exterior with values in {{-1, +1}}; {g.boundary!r} is not")
    chi = E.membership
    omega = region.mask(g)
    window = bounding_box(omega)
    hvol = g.cell_volume()

    def family(mask_a, mask_b):
        if not mask_a.any() or not mask_b.any():
            return 0.0
        return float(op.conv_mask(mask_b, window)[mask_a[window]].sum())

    total = family(chi & omega, ~chi)
    total += family(omega & ~chi, chi & ~omega)
    total *= hvol

    # against exterior: E-part of region sees exterior complement, and
    # complement-part of region sees exterior E (zero moments when periodic)
    tail = 0.5 * np.broadcast_to(t0 - t1, g.shape)[chi & omega].sum() \
        + 0.5 * np.broadcast_to(t0 + t1, g.shape)[omega & ~chi].sum()
    total += hvol * tail
    return total


def perimeter_identity_residual(E: IndicatorSet, region: BallRegion, s: float) -> float:
    """Relative residual of perimeter = (pair-sum energy of the +-1 field)/2.

    Both sides run over the same pair weights, so the residual only probes
    the bookkeeping of the two pair decompositions.
    """
    p = fractional_perimeter(E, region, s)
    v = E.sign_field()
    e = sobolev_energy(v, region, KernelSpec.perimeter(s))
    denom = max(abs(p), 1e-300)
    return abs(p - 0.5 * e) / denom


# ---------------------------------------------------------------------------
# domain variation
# ---------------------------------------------------------------------------

def cutoff_profile(r: np.ndarray) -> np.ndarray:
    """Radial cutoff: 1 on B_2, 0 outside B_4, linear in radius between."""
    return np.clip((4.0 - r) / 2.0, 0.0, 1.0)


@dataclass(frozen=True)
class VariationMap:
    """The shift map y -> y + t * cutoff(|y|) * v, a bijection for |t| < 1."""

    direction: tuple
    t: float

    def __post_init__(self):
        v = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ConfigurationError("direction must be a unit vector")
        if not abs(self.t) < 1.0:
            raise ConfigurationError("|t| must be below 1 to keep the map bijective")
        object.__setattr__(self, "direction", tuple(v))

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Fixed-point inversion; contraction factor |t|/2 < 1."""
        v = np.asarray(self.direction)
        y = x.copy()
        for _ in range(200):
            r = np.linalg.norm(y, axis=-1, keepdims=True)
            y_new = x - self.t * cutoff_profile(r) * v
            if np.max(np.abs(y_new - y)) < 1e-15:
                y = y_new
                break
            y = y_new
        return y


def domain_variation(u: ScalarField, vmap: VariationMap) -> ScalarField:
    """Resampled field u(Psi^{-1}(x)) by multilinear interpolation."""
    g = u.grid
    if g.box_radius < 4.0:
        raise ConfigurationError("domain variation expects the box to contain B_4")
    if vmap.t == 0.0:
        return u.copy_with(u.values.copy())
    pts = g.coords()
    src = vmap.inverse(pts)
    vals = evaluate_field(u, src).reshape(g.shape)
    return u.copy_with(vals)


def translation_comparison(u: ScalarField, vmap: VariationMap, spec: KernelSpec,
                           W: Potential, epsilon: float = 1.0) -> dict:
    """Symmetric second difference of the localized energy under the shift map.

    Returns the full second difference, its potential-only part (which
    cancels exactly in the continuum), and the ratio against t^2 times the
    Sobolev energy.
    """
    region = BallRegion((0.0,) * u.grid.n, 4.0)
    plus = domain_variation(u, vmap)
    minus = domain_variation(u, VariationMap(vmap.direction, -vmap.t))

    def tot(f):
        return (sobolev_energy(f, region, spec),
                potential_energy(f, region, W, epsilon, spec.s))

    s0, p0 = tot(u)
    sp, pp = tot(plus)
    sm, pm = tot(minus)
    second = (sp + pp) + (sm + pm) - 2.0 * (s0 + p0)
    pot_second = pp + pm - 2.0 * p0
    ratio = None
    if s0 > 0:
        ratio = second / (vmap.t ** 2 * s0)
    return {
        "second_difference": second,
        "potential_second_difference": pot_second,
        "bound_ratio": ratio,
        "sobolev_base": s0,
    }


def maxmin_residual(a, b, c, d) -> np.ndarray:
    """Pointwise residual of the max/min pair identity.

    With M = max(u, u_t), m = min(u, u_t) at two nodes (values a,b and c,d):
    |M - Mbar|^2 + |m - mbar|^2 - |u - ubar|^2 - |u_t - u_tbar|^2
    = -2 [(a-b)_+ (c-d)_- + (a-b)_- (c-d)_+]  for all reals.  Under a
    symmetric pair sum the two products are interchangeable, which is why
    the one-sided form suffices inside double integrals.
    """
    a, b, c, d = map(np.asarray, (a, b, c, d))
    M1, m1 = np.maximum(a, b), np.minimum(a, b)
    M2, m2 = np.maximum(c, d), np.minimum(c, d)
    lhs = (M1 - M2) ** 2 + (m1 - m2) ** 2 - (a - c) ** 2 - (b - d) ** 2
    rhs = -2.0 * (np.maximum(a - b, 0.0) * np.maximum(d - c, 0.0)
                  + np.maximum(b - a, 0.0) * np.maximum(c - d, 0.0))
    return np.abs(lhs - rhs)
