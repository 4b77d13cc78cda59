"""Fitted-exponent and bounded-ratio experiments on fields and solution
families: BV/energy growth in the radius, potential domination, density
dichotomies, layer tails, blow-down convergence, and flatness profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energies import Potential, potential_energy, sobolev_energy
from .errors import ConfigurationError, OutOfDomainError
from .fields import (
    BallRegion,
    IndicatorSet,
    ScalarField,
    gradient_l1_norm,
    gradient_magnitude,
    hausdorff_distance,
    l1_distance,
    level_set,
    rescale_blowdown,
)
from .kernels import KernelSpec

__all__ = [
    "ScalingExperiment",
    "FitResult",
    "DensityCheckConfig",
    "fit_loglog",
    "bv_scaling",
    "sobolev_scaling",
    "full_energy_scaling",
    "potential_vs_sobolev",
    "potential_decay",
    "layer_decay",
    "density_check",
    "blowdown_convergence",
    "flatness_profile",
    "interpolation_check",
]


@dataclass
class ScalingExperiment:
    quantity_name: str
    abscissae: np.ndarray
    values: np.ndarray
    error_bars: np.ndarray = None

    def __post_init__(self):
        self.abscissae = np.asarray(self.abscissae, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.error_bars is None:
            self.error_bars = np.zeros_like(self.values)
        self.error_bars = np.asarray(self.error_bars, dtype=float)
        if not (len(self.abscissae) == len(self.values) == len(self.error_bars)):
            raise ConfigurationError("trace arrays must have equal length")
        d = np.diff(self.abscissae)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ConfigurationError("abscissae must be strictly monotone")

    def rows(self):
        return zip(self.abscissae, self.values, self.error_bars)


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    window: tuple
    degenerate: bool = False

    def __post_init__(self):
        if not self.degenerate and not (0.0 <= self.r_squared <= 1.0 + 1e-12):
            raise ConfigurationError("r_squared must lie in [0, 1]")
        if self.window[1] <= self.window[0]:
            raise ConfigurationError("fit window must be nonempty")


@dataclass(frozen=True)
class DensityCheckConfig:
    c_bar: float
    omega0: float
    R0: float

    def __post_init__(self):
        if not (0.0 < self.c_bar < 1.0):
            raise ConfigurationError("c_bar must lie in (0, 1)")
        if self.omega0 <= 0 or self.R0 <= 0:
            raise ConfigurationError("omega0 and R0 must be positive")


def _ball_volume(n: int, r: float) -> float:
    from scipy.special import gamma as gamma_fn
    return np.pi ** (n / 2.0) / gamma_fn(n / 2.0 + 1.0) * r ** n


def default_window(count: int) -> tuple:
    """Drop the smallest radius (discretization) and the largest (truncation)."""
    if count >= 4:
        return (1, count - 1)
    return (0, count)


def fit_loglog(exp: ScalingExperiment, window: Optional[tuple] = None) -> FitResult:
    """Least-squares line through (log abscissa, log value) on the window."""
    if np.any(exp.values <= 0) or np.any(exp.abscissae <= 0):
        raise ConfigurationError("log-log fit needs positive data")
    if window is None:
        window = default_window(len(exp.values))
    i0, i1 = window
    la = np.log(exp.abscissae[i0:i1])
    lv = np.log(exp.values[i0:i1])
    if len(la) < 2:
        raise ConfigurationError("fit window must contain at least two points")
    A = np.vstack([la, np.ones_like(la)]).T
    coef, *_ = np.linalg.lstsq(A, lv, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(float(coef[0]), float(coef[1]), r2, window)


def _region(u: ScalarField, R: float) -> BallRegion:
    return BallRegion((0.0,) * u.grid.n, R)


def bv_scaling(u: ScalarField, radii: Sequence[float]):
    """Trace of the gradient L1 mass over growing balls, with its fit."""
    vals = np.array([gradient_l1_norm(u, _region(u, R)) for R in radii])
    exp = ScalingExperiment("bv", np.asarray(radii, dtype=float), vals)
    if np.all(vals == 0.0):
        return exp, FitResult(0.0, 0.0, 1.0, (0, len(vals)), degenerate=True)
    return exp, fit_loglog(exp)


def sobolev_scaling(u: ScalarField, radii: Sequence[float], spec: KernelSpec):
    energies = [sobolev_energy(u, _region(u, R), spec) for R in radii]
    exp = ScalingExperiment("sobolev", np.asarray(radii, dtype=float), energies,
                            [e.stderr for e in energies])
    if np.all(exp.values == 0.0):
        return exp, FitResult(0.0, 0.0, 1.0, (0, len(energies)), degenerate=True)
    return exp, fit_loglog(exp)


def full_energy_scaling(u: ScalarField, radii: Sequence[float], spec: KernelSpec,
                        W: Potential, epsilon: float = 1.0):
    vals = []
    for R in radii:
        e = sobolev_energy(u, _region(u, R), spec)
        e += potential_energy(u, _region(u, R), W, epsilon, spec.s)
        vals.append(e)
    exp = ScalingExperiment("full_energy", np.asarray(radii, dtype=float), np.array(vals))
    if np.all(exp.values == 0.0):
        return exp, FitResult(0.0, 0.0, 1.0, (0, len(vals)), degenerate=True)
    return exp, fit_loglog(exp)


def potential_vs_sobolev(u: ScalarField, radii: Sequence[float], R0: float,
                         spec: KernelSpec, W: Potential) -> dict:
    """Ratios of the potential mass in the shrunken ball to the interaction
    energy in the full ball, with the growth trend of the ratio.

    The classical (s = 2) variant divides by the Dirichlet energy in the
    enlarged ball plus the surface-scaling additive term.
    """
    radii = np.asarray(radii, dtype=float)
    classical = spec.kind == "classical"
    if not classical and np.any(radii <= R0):
        raise ConfigurationError("all radii must exceed R0")
    ratios = []
    for R in radii:
        if classical:
            pot = potential_energy(u, _region(u, R), W)
            sob = sobolev_energy(u, _region(u, R + 1.0), spec)
            denom = sob + R ** (u.grid.n - 1)
        else:
            pot = potential_energy(u, _region(u, R - R0), W)
            denom = sobolev_energy(u, _region(u, R), spec)
        if denom == 0.0:
            return {"degenerate": True, "ratios": None}
        ratios.append(pot / denom)
    ratios = np.array(ratios)
    exp = ScalingExperiment("pot_over_sob", radii, ratios)
    trend = fit_loglog(exp, window=(0, len(radii))) if np.all(ratios > 0) else None
    return {
        "degenerate": False,
        "radii": radii,
        "ratios": ratios,
        "max_ratio": float(ratios.max()),
        "trend_slope": None if trend is None else trend.slope,
    }


def potential_decay(family, s: float, W: Potential):
    """Trace of eps^{-s} * potential mass in the unit ball across a family
    of solutions indexed by eps, with the fitted decay exponent."""
    eps_list = []
    vals = []
    for eps, u in family:
        eps_list.append(float(eps))
        vals.append(potential_energy(u, _region(u, 1.0), W, eps, s))
    order = np.argsort(eps_list)[::-1]  # decreasing eps, monotone abscissae
    exp = ScalingExperiment("potential_decay",
                            np.array(eps_list)[order], np.array(vals)[order])
    fit = fit_loglog(exp, window=(0, len(eps_list)))
    return exp, fit


def layer_decay(profile: ScalarField, s: float) -> FitResult:
    """Fitted tail exponent of 1 - profile on [box/4, box/2]."""
    g = profile.grid
    if g.n != 1:
        raise ConfigurationError("layer decay expects a 1D profile")
    x = g.axis_coords()
    R = g.box_radius
    sel = (x >= R / 4.0) & (x <= R / 2.0)
    tail = 1.0 - profile.values[sel]
    if np.any(tail <= 0):
        raise ConfigurationError("profile reaches +1 inside the fit window")
    exp = ScalingExperiment("layer_tail", x[sel], tail)
    fit = fit_loglog(exp, window=(0, int(sel.sum())))
    if fit.r_squared < 0.9:
        return FitResult(fit.slope, fit.intercept, fit.r_squared,
                         fit.window, degenerate=True)
    return fit


def density_check(u: ScalarField, R: float, config: DensityCheckConfig) -> dict:
    """Evaluate the clean-ball dichotomy at radius R.

    For each well: if the averaged distance to the well over B_R is below
    omega0, then no node of B_{R/2} may sit on the far side of -+c_bar.
    Returns one of vacuous / implication_holds / counterexample per well.
    """
    if R < config.R0:
        raise ConfigurationError("R must be at least the configured R0")
    g = u.grid
    if config.omega0 >= _ball_volume(g.n, 0.5):
        raise ConfigurationError("omega0 must be below the half-ball volume")
    big = _region(u, R).mask(g)
    half = _region(u, R / 2.0).mask(g)
    hv = g.cell_volume()
    out = {}
    for well, name in ((-1.0, "lower_well"), (1.0, "upper_well")):
        avg = float(hv * np.abs(u.values - well)[big].sum()) / R ** g.n
        hypothesis = avg <= config.omega0
        if well < 0:
            clean = not np.any(u.values[half] >= -config.c_bar)
        else:
            clean = not np.any(u.values[half] <= config.c_bar)
        if not hypothesis:
            status = "vacuous"
        elif clean:
            status = "implication_holds"
        else:
            status = "counterexample"
        out[name] = {"average": avg, "hypothesis": hypothesis, "status": status}
    out["counterexample"] = any(v["status"] == "counterexample"
                                for v in out.values() if isinstance(v, dict))
    return out


# ---------------------------------------------------------------------------
# blow-down convergence and flatness
# ---------------------------------------------------------------------------

def _fit_halfspace(points: np.ndarray):
    """Total-least-squares hyperplane through a point cloud: (normal, offset)."""
    center = points.mean(axis=0)
    q = points - center
    _, _, vt = np.linalg.svd(q, full_matrices=False)
    normal = vt[-1]
    return normal, float(normal @ center)


def _interface_nodes(u: ScalarField, within: np.ndarray) -> np.ndarray:
    """Nodes adjacent to a sign change of u along some axis."""
    g = u.grid
    sgn = np.sign(u.values)
    edge = sgn == 0.0
    for ax in range(g.n):
        flip = sgn * np.roll(sgn, -1, axis=ax) < 0
        sl = [slice(None)] * g.n
        sl[ax] = slice(-1, None)
        flip[tuple(sl)] = False
        edge |= flip | np.roll(flip, 1, axis=ax)
    edge &= within
    return u.grid.coords()[edge.ravel()]


def blowdown_convergence(u: ScalarField, R_list: Sequence[float], c: float = 0.0) -> dict:
    """Distance of each zoom-out to the half-space fitted from its zero set.

    Per R: the L1(B_1) distance between u(R .) and the sign field of the
    fitted half-space, and the Hausdorff distance between the superlevel
    set {u(R .) >= c} and the fitted half-space, both inside B_1.
    """
    g = u.grid
    unit = BallRegion((0.0,) * g.n, 1.0)
    mask_unit = unit.mask(g)
    l1_trace, hs_trace, normals = [], [], []
    for R in R_list:
        v = rescale_blowdown(u, R)
        pts = _interface_nodes(v, mask_unit)
        if len(pts) < max(2, g.n):
            raise OutOfDomainError("zero level set is empty in the unit ball")
        normal, offset = _fit_halfspace(pts)
        # orient the normal toward the positive side of v
        probe = v.grid.coords() @ normal - offset
        corr = float(np.sign((probe * v.values.ravel())[mask_unit.ravel()].sum()) or 1.0)
        normal, offset = corr * normal, corr * offset
        sign_vals = np.where(v.grid.coords() @ normal - offset >= 0, 1.0, -1.0)
        sign_field = ScalarField(v.grid, sign_vals.reshape(g.shape))
        l1_trace.append(l1_distance(v, sign_field, unit))
        half = IndicatorSet(v.grid, (v.grid.coords() @ normal - offset >= 0).reshape(g.shape))
        hs_trace.append(hausdorff_distance(level_set(v, c), half, unit))
        normals.append(normal)
    return {
        "radii": list(R_list),
        "l1": l1_trace,
        "hausdorff": hs_trace,
        "normals": normals,
    }


def _direction_set(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        th = np.linspace(0.0, np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    # Fibonacci hemisphere
    i = np.arange(count)
    z = (i + 0.5) / count
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z ** 2)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _trap_width(pts, vals, e, c_low, c_high):
    """Minimal one-sided width a*R for the two-sided level-set trapping."""
    t = pts @ e
    not_low = vals > c_low          # must satisfy e.x > -aR
    mid = vals <= c_high            # must satisfy e.x <= aR
    a1 = -t[not_low].min() if not_low.any() else -np.inf
    a2 = t[mid].max() if mid.any() else -np.inf
    return max(a1, a2, 0.0)


def flatness_profile(u: ScalarField, R_list: Sequence[float],
                     c_low: float = -0.8, c_high: float = 0.8,
                     directions: int = 64) -> dict:
    """Per radius, the smallest slab fraction a and direction realizing
    {e.x <= -aR} in {u <= c_low} in {u <= c_high} in {e.x <= aR} on B_R.

    Runs a direction sweep followed by a golden-section refinement in 2D;
    trapping that is impossible, or possible only within one grid cell of
    the whole ball (no information), reports the sentinel a = 1.
    """
    g = u.grid
    pts_all = g.coords()
    vals_all = u.values.ravel()
    a_trace, e_trace = [], []
    for R in R_list:
        sel = np.sum(pts_all ** 2, axis=1) <= R ** 2 + 1e-12
        pts, vals = pts_all[sel], vals_all[sel]
        if not np.any(vals <= c_high) or not np.any(vals > c_low):
            a_trace.append(1.0)
            e_trace.append(None)
            continue
        dirs = _direction_set(g.n, directions)
        widths = np.array([_trap_width(pts, vals, e, c_low, c_high) for e in dirs])
        best = int(np.argmin(widths))
        a_best, e_best = widths[best], dirs[best]
        if g.n == 2:
            th0 = np.arctan2(e_best[1], e_best[0])
            span = np.pi / directions
            lo, hi = th0 - span, th0 + span
            gr = (np.sqrt(5.0) - 1.0) / 2.0
            for _ in range(24):
                m1 = hi - gr * (hi - lo)
                m2 = lo + gr * (hi - lo)
                w1 = _trap_width(pts, vals, np.array([np.cos(m1), np.sin(m1)]), c_low, c_high)
                w2 = _trap_width(pts, vals, np.array([np.cos(m2), np.sin(m2)]), c_low, c_high)
                if w1 < w2:
                    hi = m2
                else:
                    lo = m1
            th = 0.5 * (lo + hi)
            e_best = np.array([np.cos(th), np.sin(th)])
            a_best = min(a_best, _trap_width(pts, vals, e_best, c_low, c_high))
        a_val = min(a_best / R, 1.0)
        if a_val >= 1.0 - np.sqrt(g.n) * g.h / R:
            a_val = 1.0
        a_trace.append(a_val)
        e_trace.append(e_best)
    return {"radii": list(R_list), "a": a_trace, "directions": e_trace}


def interpolation_check(u: ScalarField, R: float, s: float) -> dict:
    """Ratio of the localized first-order interaction seminorm to the
    interpolation product V^{1-s} P^s.

    V is the averaged distance to the better well, P the scaled gradient
    mass; a vanishing V or P makes the ratio degenerate.
    """
    g = u.grid
    region = _region(u, R)
    mask = region.mask(g)
    hv = g.cell_volume()
    vol = R ** g.n
    v_candidates = [float(hv * np.abs(u.values + k)[mask].sum()) / vol for k in (1.0, -1.0)]
    V = min(v_candidates)
    mag = gradient_magnitude(u)
    P = float(hv * mag[mask].sum()) / R ** (g.n - 1)
    if V == 0.0 or P == 0.0:
        return {"degenerate": True, "ratio": 0.0 if V == 0.0 else None}
    pts = g.coords()[mask.ravel()]
    vals = u.values.ravel()[mask.ravel()]
    lhs = 0.0
    block = 2048
    for i0 in range(0, len(pts), block):
        p_i = pts[i0:i0 + block]
        v_i = vals[i0:i0 + block]
        d = p_i[:, None, :] - pts[None, :, :]
        r = np.sqrt(np.sum(d * d, axis=2))
        np.fill_diagonal(r[:, i0:i0 + len(p_i)], np.inf)
        lhs += float(np.sum(np.abs(v_i[:, None] - vals[None, :]) * r ** (-(g.n + s))))
    lhs *= hv * hv * R ** (s - g.n)
    return {
        "degenerate": False,
        "lhs": lhs,
        "V": V,
        "P": P,
        "ratio": lhs / (V ** (1.0 - s) * P ** s),
    }
