"""Interaction kernels and the nonlocal operators they generate.

Three kernel families are supported: the reference fractional kernel
(2-s)|z|^{-n-s}, general even kernels pinched between multiples of the
reference one, and the classical second-order stencil as the s = 2 limit.

Two evaluation routes exist for the fractional operator on periodic grids
and are cross-validated against each other: a real-space pair sum over the
lattice (with image folding), and a Fourier multiplier c(n,s)|xi|^s whose
constant is calibrated once from the pair-sum route.  The absolute
normalization of the operator is a convention; `KernelSpec.fractional`
keeps the reference kernel as is, while `KernelSpec.fractional_unit`
rescales it so the calibrated multiplier is exactly |xi|^s, which makes
transition layers O(1) wide and is what the solvers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import fft as sfft

from ._lattice import (
    _xi_squared,
    continuum_symbol_constant,
    get_operator,
    kernel_on_radii,
    symbol_constant,
)
from .errors import ConfigurationError, SingularityError
from .fields import Grid, Periodic, ScalarField, neighbor_legs

__all__ = [
    "KernelSpec",
    "kernel_value",
    "apply_quadrature",
    "apply_spectral",
    "apply_laplacian",
    "operator_consistency",
    "kernel_bounds_audit",
]


@dataclass(frozen=True)
class KernelSpec:
    """An interaction kernel: kind, order s, ellipticity pair, overall scale."""

    kind: str                      # "fractional" | "general" | "classical"
    s: float
    lam: float = 1.0
    Lam: float = 1.0
    scale: float = 1.0
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    normalized_for: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("fractional", "general", "classical"):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "classical":
            if abs(self.s - 2.0) > 1e-12:
                raise ConfigurationError("classical kind means s = 2")
        elif not (0.0 < self.s < 2.0):
            raise ConfigurationError("kernel order must lie in (0, 2)")
        if not (0.0 < self.lam <= self.Lam):
            raise ConfigurationError("ellipticity pair must satisfy 0 < lam <= Lam")
        if self.kind == "general" and self.profile is None:
            raise ConfigurationError("general kernels need a radial profile")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def fractional(s: float) -> "KernelSpec":
        """Reference kernel (2-s)|z|^{-n-s}."""
        return KernelSpec("fractional", float(s))

    @staticmethod
    def fractional_unit(s: float, n: int) -> "KernelSpec":
        """Reference kernel rescaled so the discrete symbol is |xi|^s."""
        c = symbol_constant(n, float(s))
        return KernelSpec("fractional", float(s), scale=1.0 / c, normalized_for=n)

    @staticmethod
    def perimeter(s: float) -> "KernelSpec":
        """Plain |z|^{-n-s}, the perimeter interaction kernel."""
        return KernelSpec("fractional", float(s), scale=1.0 / (2.0 - float(s)))

    @staticmethod
    def general(s: float, profile: Callable, lam: float, Lam: float,
                scale: float = 1.0) -> "KernelSpec":
        return KernelSpec("general", float(s), float(lam), float(Lam),
                          float(scale), profile)

    @staticmethod
    def classical() -> "KernelSpec":
        return KernelSpec("classical", 2.0)

    # -- helpers ---------------------------------------------------------------

    def key(self):
        prof = id(self.profile) if self.profile is not None else None
        return (self.kind, self.s, self.lam, self.Lam, self.scale, prof)

    def check_dimension(self, n: int):
        if self.normalized_for is not None and self.normalized_for != n:
            raise ConfigurationError(
                f"kernel normalized for dimension {self.normalized_for}, grid has {n}")


def kernel_value(spec: KernelSpec, z) -> float:
    """K(z) for z != 0; the fractional kind is exactly scale*(2-s)|z|^{-n-s}.

    The ambient dimension is len(z).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    r = float(np.linalg.norm(z))
    if r == 0.0:
        raise SingularityError("kernel evaluated at z = 0")
    return float(kernel_on_radii(spec, np.array([r]), z.size)[0])


def apply_quadrature(u: ScalarField, spec: KernelSpec) -> ScalarField:
    """Pair-sum evaluation of the nonlocal operator at every node.

    Exterior grids add the closed-form/quadrature tail of the defining
    integral; periodic grids fold the lattice images of the kernel.  The
    diagonal pair contributes nothing, and the symmetric offset table makes
    the principal value a plain second-difference sum.

    With a fixed nonzero exterior the map is affine in the nodal values
    (the exterior contributes a constant data term); it is linear as a map
    of full-space functions, i.e. when exteriors combine alongside.
    """
    if spec.kind == "classical":
        raise ConfigurationError("use apply_laplacian for the classical operator")
    op = get_operator(u.grid, spec)
    return ScalarField(u.grid, op.apply(u.values))


def spectral_multiplier(grid: Grid, s: float) -> np.ndarray:
    """c(n,s)|xi|^s on the DFT modes of a periodic grid."""
    c = symbol_constant(grid.n, s)
    return c * np.sqrt(_xi_squared(grid)) ** s


def apply_spectral(u: ScalarField, s: float) -> ScalarField:
    """Fourier-multiplier route for the fractional operator, periodic grids only.

    The constant in c(n,s)|xi|^s comes from a one-time calibration against
    the pair-sum route, not from a closed form.
    """
    g = u.grid
    if not isinstance(g.boundary, Periodic):
        raise ConfigurationError("spectral route requires a periodic grid")
    mult = spectral_multiplier(g, float(s))
    out = sfft.ifftn(sfft.fftn(u.values) * mult).real
    return ScalarField(g, out)


def apply_laplacian(u: ScalarField) -> ScalarField:
    """Standard second-order stencil of -Laplacian."""
    g = u.grid
    vals = u.values
    out = np.zeros_like(vals)
    for plus, minus in neighbor_legs(u):
        out += 2.0 * vals - plus - minus
    return ScalarField(g, out / g.h ** 2)


def operator_consistency(u: ScalarField, s: float, tolerance: float) -> dict:
    """Relative sup-norm discrepancy between spectral and pair-sum routes.

    The report records the calibration constant so the normalization
    convention is auditable.
    """
    spec = KernelSpec.fractional(float(s))
    via_quad = apply_quadrature(u, spec).values
    via_spec = apply_spectral(u, float(s)).values
    scale = np.max(np.abs(via_quad))
    if scale == 0.0:
        disc = float(np.max(np.abs(via_spec)))
    else:
        disc = float(np.max(np.abs(via_quad - via_spec)) / scale)
    return {
        "s": float(s),
        "discrepancy": disc,
        "tolerance": float(tolerance),
        "passed": bool(disc <= tolerance),
        "calibration_constant": symbol_constant(u.grid.n, float(s)),
        "continuum_constant": continuum_symbol_constant(u.grid.n, float(s)),
    }


def kernel_bounds_audit(spec: KernelSpec, n: int) -> dict:
    """Check the two-sided pinching and the first-derivative bound on samples.

    Uses 61 log-spaced radii in [1e-3, 1e3]; the derivative is a centered
    finite difference, so the bound is tested with a small slack.  `ref` is
    the audit's own reference bound scale*(2-s) r^{-n-s}.
    """
    if spec.kind == "classical":
        raise ConfigurationError("no bounds to audit for the classical kind")
    radii = np.geomspace(1e-3, 1e3, 61)
    ref = spec.scale * (2.0 - spec.s) * radii ** (-(n + spec.s))
    vals = kernel_on_radii(spec, radii, n)
    lower_ok = bool(np.all(vals >= spec.lam * ref * (1.0 - 1e-9)))
    upper_ok = bool(np.all(vals <= spec.Lam * ref * (1.0 + 1e-9)))
    dr = radii * 1e-5
    deriv = (kernel_on_radii(spec, radii + dr, n)
             - kernel_on_radii(spec, radii - dr, n)) / (2.0 * dr)
    deriv_ok = bool(np.all(radii * np.abs(deriv) <= spec.Lam * (n + spec.s) * ref * (1.0 + 1e-6)))
    return {
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
        "derivative_ok": deriv_ok,
        "passed": lower_ok and upper_ok and deriv_ok,
    }
