"""Experiment orchestration: configuration, runs, persistence, reports.

Every experiment writes into its own subdirectory of the output directory:
field files in the text format, traces as CSV, a JSON report whose numbers
all appear in some trace or field file, and simple SVG line plots.  Wall
clock goes to a sidecar timings.txt so that reruns with a fixed seed are
byte-identical in the canonical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

from .energies import Potential, energy_breakdown
from .errors import ConfigurationError, FracacError
from .fields import BallRegion, Grid, ScalarField, make_grid, save_field, embed_profile, rescale_blowdown, ConstantExterior, FieldExterior, evaluate_field
from .kernels import KernelSpec, operator_consistency
from .extension import extend, halfspace_extension, monotonicity_trace
from .scaling import (SLOPE_TOLERANCE, DensityCheckConfig, density_check,
                      blowdown_convergence, energy_growth, flatness_profile,
                      potential_vs_sobolev)
from .solver import solve_layer_1d, residual_field
from .stability import cone_set, cone_sweep, min_rayleigh, radial_bump_vector_field

__all__ = ["RunConfig", "RunReport", "run", "report_merge", "main"]

EXPERIMENTS = ("layer", "op-check", "energy", "scaling", "monotonicity",
               "stability", "density", "blowdown", "cone", "report")

DEFAULTS = {
    "s": 0.5,
    "h": 0.1,
    "box_radius": 30.0,
    "potential": "quartic",
    "epsilon": 1.0,
    "radii": "2,3,4,6,8,12",
    "tol": 1e-8,
    "seed": 0,
    "zoom": 32.0,
    "output_dir": "fracac_out",
}


@dataclass
class RunConfig:
    experiment: str
    params: dict = dfield(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}")
        merged = dict(DEFAULTS)
        merged.update(self.params)
        self.params = merged
        # re-check the grid preconditions shared by most experiments
        if self.experiment != "report":
            Grid(1, self.get("h"), self.get("box_radius"))
            if not (0.0 < self.get("s") < 1.0):
                raise ConfigurationError("s must lie in (0, 1)")
            if self.get("seed", int) < 0:
                raise ConfigurationError("seed must be an integer >= 0")

    def get(self, key, cast=float, default=None):
        """params[key] as `cast`; `default` serves keys without a CLI flag."""
        raw = self.params[key] if default is None else self.params.get(key, default)
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise ConfigurationError(f"{key} = {raw!r} is not a {cast.__name__}") from None

    def radii(self):
        raw = self.params["radii"]
        try:
            radii = [float(v) for v in (raw.split(",") if isinstance(raw, str) else raw)
                     if v != ""]
        except (TypeError, ValueError):
            raise ConfigurationError(f"radii = {raw!r} is not a list of numbers") from None
        if not radii:
            raise ConfigurationError(f"radii = {raw!r} names no radius")
        return radii


@dataclass
class RunReport:
    experiment: str
    passed: bool
    checks: list
    config_echo: dict

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "checks": self.checks,
            "config": {k: repr(v) for k, v in sorted(self.config_echo.items())},
        }


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_fmt)
        fh.write("\n")


def write_svg_line(path: Path, xs, ys, title: str) -> None:
    """A minimal line chart; no plotting dependency."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w0, h0, pad = 480.0, 320.0, 40.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = pad + (xs - x0) / (x1 - x0) * (w0 - 2 * pad)
    py = h0 - pad - (ys - y0) / (y1 - y0) * (h0 - 2 * pad)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w0:.0f}" height="{h0:.0f}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f'<text x="{pad}" y="20" font-size="13">{title}</text>\n'
            f'<polyline fill="none" stroke="black" points="{pts}"/>\n'
            f"</svg>\n")


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------

def _potential(cfg: RunConfig) -> Potential:
    kind = cfg.params["potential"]
    if kind == "quartic":
        return Potential.quartic()
    if kind == "peierls_nabarro":
        return Potential.peierls_nabarro()
    raise ConfigurationError(f"unknown potential {kind!r}")


def _exp_layer(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    box = cfg.get("box_radius")
    h = cfg.get("h")
    tol = cfg.get("tol")
    W = _potential(cfg)
    phi = solve_layer_1d(s, box, h, tol=tol, W=W)
    save_field(phi, out / "profile.txt")
    spec = KernelSpec.fractional_unit(s, 1)
    res = residual_field(phi, spec, W)
    x = phi.grid.axis_coords()
    inner = np.abs(x) <= box / 2.0
    res_sup = float(np.max(np.abs(res[inner])))
    monotone = bool(np.all(np.diff(phi.values) > 0))
    write_svg_line(out / "profile.svg", x, phi.values, f"layer s={s}")
    checks = [
        {"name": "residual_inner_half", "value": res_sup, "tolerance": tol,
         "pass": res_sup <= tol},
        {"name": "monotone", "value": monotone, "pass": monotone},
    ]
    write_csv(out / "profile_trace.csv", ["x", "value"], zip(x, phi.values))
    return RunReport("layer", all(c["pass"] for c in checks), checks, cfg.params)


def _exp_opcheck(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    rng = np.random.default_rng(cfg.get("seed", int))
    g = make_grid(1, np.pi, 2.0 * np.pi / 256)
    x = g.axis_coords()
    vals = np.zeros_like(x)
    for k in range(1, 11):
        a, b = rng.normal(size=2)
        vals += (a * np.cos(k * x) + b * np.sin(k * x)) / k ** 2
    u = ScalarField(g, vals)
    rep = operator_consistency(u, s, tolerance=1e-3)
    write_csv(out / "consistency.csv",
              ["s", "discrepancy", "tolerance", "calibration_constant"],
              [(rep["s"], rep["discrepancy"], rep["tolerance"],
                rep["calibration_constant"])])
    checks = [{"name": "route_agreement", "value": rep["discrepancy"],
               "tolerance": rep["tolerance"], "pass": rep["passed"]}]
    return RunReport("op-check", rep["passed"], checks, cfg.params)


def _exp_energy(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    W = _potential(cfg)
    phi = solve_layer_1d(s, cfg.get("box_radius"), cfg.get("h"), tol=cfg.get("tol"), W=W)
    spec = KernelSpec.fractional_unit(s, 1)
    radii = cfg.radii()
    rows = []
    records = []
    for R in radii:
        br = energy_breakdown(phi, BallRegion((0.0,), R), spec, W, cfg.get("epsilon"))
        rows.append((R, br.sobolev, br.potential))
        records.append(br.record())
    write_csv(out / "energies.csv", ["radius", "sobolev", "potential"], rows)
    write_json(out / "energies.json", {"records": records})
    ok = all(r[1] >= 0 and r[2] >= 0 for r in rows)
    checks = [{"name": "nonnegative_parts", "pass": ok}]
    return RunReport("energy", ok, checks, cfg.params)


def _embedded_zoomed_layer(cfg: RunConfig):
    s = cfg.get("s")
    W = _potential(cfg)
    phi = solve_layer_1d(s, 40.0, 0.05, tol=1e-8, W=W)
    zoomed = rescale_blowdown(phi, cfg.get("zoom"))
    g2 = make_grid(2, 16.0, 0.125)
    return embed_profile(zoomed, (1.0, 0.0), g2), W


def _exp_scaling(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    u2, W = _embedded_zoomed_layer(cfg)
    spec2 = KernelSpec.fractional_unit(s, 2)
    radii = [4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
    checks = []
    for name, growth in energy_growth(u2, radii, spec2, W).items():
        exp = growth.trace
        write_csv(out / f"{name}.csv", ["abscissa", "value"], exp.rows())
        write_svg_line(out / f"{name}.svg", np.log(exp.abscissae),
                       np.log(exp.values), f"log-log {name}")
        checks.append({"name": f"{name}_slope", "value": growth.fit.slope,
                       "expected": growth.target, "tolerance": SLOPE_TOLERANCE,
                       "pass": growth.passed})
    rep = potential_vs_sobolev(u2, [6.0, 8.0, 10.0, 12.0, 14.0], 2.0, spec2, W)
    write_csv(out / "pot_over_sob.csv", ["abscissa", "value"],
              zip(rep["radii"], rep["ratios"]))
    checks.append({"name": "pot_sob_trend", "value": rep["trend_slope"],
                   "expected": 0.0, "tolerance": 0.05,
                   "pass": rep["trend_slope"] <= 0.05})
    return RunReport("scaling", all(c["pass"] for c in checks), checks, cfg.params)


def _exp_monotonicity(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    W = _potential(cfg)
    phi = solve_layer_1d(s, 40.0, 0.05, tol=cfg.get("tol"), W=W)
    U = extend(phi, s, y_max=18.0)
    radii = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    tr = monotonicity_trace(U, radii, W)
    write_csv(out / "monotonicity.csv", ["R", "phi", "error_bar"],
              zip(tr.radii, tr.phi_values, tr.error_bars))
    write_svg_line(out / "monotonicity.svg", tr.radii, tr.phi_values, "phi(R)")
    Uh = halfspace_extension(s, phi.grid, 18.0)
    trh = monotonicity_trace(Uh, radii, W)
    spread = float((trh.phi_values.max() - trh.phi_values.min()) / trh.phi_values.mean())
    write_csv(out / "monotonicity_halfspace.csv", ["R", "phi", "error_bar"],
              zip(trh.radii, trh.phi_values, trh.error_bars))
    checks = [
        {"name": "no_violations", "value": len(tr.violations),
         "pass": len(tr.violations) == 0},
        {"name": "halfspace_constancy", "value": spread, "tolerance": 0.01,
         "pass": spread <= 0.01},
    ]
    return RunReport("monotonicity", all(c["pass"] for c in checks), checks, cfg.params)


def _exp_stability(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    W = _potential(cfg)
    phi = solve_layer_1d(s, 40.0, 0.05, tol=cfg.get("tol"), W=W)
    spec = KernelSpec.fractional_unit(s, 1)
    rep = min_rayleigh(phi, BallRegion((0.0,), 20.0), spec, W)
    save_field(rep.witness, out / "witness.txt")
    x = phi.grid.axis_coords()
    phip = np.gradient(phi.values, x)
    mask = rep.region.mask(phi.grid).ravel()
    v, p = rep.witness.values.ravel()[mask], phip[mask]
    cosine = float(abs(v @ p) / (np.linalg.norm(v) * np.linalg.norm(p)))
    g0 = Grid(1, 0.25, 10.0, ConstantExterior([(0.0, 0.0)]), centered=True)
    u0 = ScalarField(g0, np.zeros(g0.shape))
    rep0 = min_rayleigh(u0, BallRegion((0.0,), 9.0), KernelSpec.fractional_unit(s, 1), W)
    checks = [
        {"name": "layer_min_rayleigh", "value": rep.min_rayleigh,
         "tolerance": 1e-3, "pass": abs(rep.min_rayleigh) <= 1e-3},
        {"name": "witness_alignment", "value": cosine, "expected": 1.0,
         "pass": cosine >= 0.99},
        {"name": "middle_well_unstable", "value": rep0.min_rayleigh,
         "pass": rep0.min_rayleigh <= -0.5},
    ]
    write_json(out / "stability.json", {"checks": checks})
    return RunReport("stability", all(c["pass"] for c in checks), checks, cfg.params)


def _exp_density(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    W = _potential(cfg)
    dconf = DensityCheckConfig(c_bar=0.75, omega0=0.2, R0=4.0)
    phi = solve_layer_1d(s, 40.0, 0.05, tol=cfg.get("tol"), W=W)
    zoo = {"layer_centered": phi}
    g = Grid(1, 0.05, 8.0, ConstantExterior([(-1.0, -1.0)]))
    zoo["constant_lower"] = ScalarField(g, np.full(g.shape, -1.0))
    gs = Grid(1, 0.05, 8.0,
              FieldExterior(lambda p, _f=phi: np.interp((p[:, 0] - 24.0),
                                                        _f.grid.axis_coords(),
                                                        _f.values, left=-1.0, right=1.0)))
    shifted = evaluate_field(phi, (gs.coords() - 24.0)).reshape(gs.shape)
    zoo["layer_translated"] = ScalarField(gs, shifted)
    rows = []
    bad = 0
    for name, u in zoo.items():
        rep = density_check(u, 8.0, dconf)
        rows.append((name, rep["lower_well"]["status"], rep["upper_well"]["status"]))
        bad += int(rep["counterexample"])
    write_csv(out / "density.csv", ["field", "lower_status", "upper_status"], rows)
    checks = [{"name": "no_counterexamples", "value": bad, "pass": bad == 0}]
    return RunReport("density", bad == 0, checks, cfg.params)


def _exp_blowdown(cfg: RunConfig, out: Path) -> RunReport:
    u2, W = _embedded_zoomed_layer(RunConfig(cfg.experiment, {**cfg.params, "zoom": 1.0}))
    res = blowdown_convergence(u2, [2.0, 4.0, 8.0, 16.0], c=0.6)
    write_csv(out / "blowdown.csv", ["R", "l1", "hausdorff"],
              zip(res["radii"], res["l1"], res["hausdorff"]))
    # zero-level trace floors at node quantization; recorded, not asserted
    res0 = blowdown_convergence(u2, [2.0, 4.0, 8.0, 16.0], c=0.0)
    write_csv(out / "blowdown_zero_level.csv", ["R", "l1", "hausdorff"],
              zip(res0["radii"], res0["l1"], res0["hausdorff"]))
    fl = flatness_profile(u2, [4.0, 6.0, 8.0, 12.0, 16.0])
    write_csv(out / "flatness.csv", ["R", "a"], zip(fl["radii"], fl["a"]))
    dec = bool(np.all(np.diff(res["l1"]) < 0) and np.all(np.diff(res["hausdorff"]) < 0))
    fdec = bool(np.all(np.diff(fl["a"]) < 0))
    checks = [
        {"name": "traces_strictly_decreasing", "pass": dec},
        {"name": "flatness_decreasing", "pass": fdec},
    ]
    return RunReport("blowdown", dec and fdec, checks, cfg.params)


def _exp_cone(cfg: RunConfig, out: Path) -> RunReport:
    s = cfg.get("s")
    seed = cfg.get("seed", int)
    n_fields = cfg.get("n_fields", int, default=8)
    if n_fields < 1:
        raise ConfigurationError("n_fields must be at least 1")
    region = BallRegion((0.0, 0.0), 1.0)
    fields = [radial_bump_vector_field(seed * 1000 + k) for k in range(n_fields)]
    sweep = cone_sweep(cone_set("halfplane"), fields, region, (s,), (0.04, 0.08, 0.16))
    rows = [(k, t, qv, eb) for k, q in enumerate(sweep[s])
            for t, qv, eb in zip(q["t"], q["q"], q["error_bar"])]
    worst = min(qv + eb for _, _, qv, eb in rows)
    write_csv(out / "halfplane_quotients.csv", ["field", "t", "q", "error_bar"], rows)
    # exploratory sweep for the cross cone; recorded, not asserted
    cross_fields = [radial_bump_vector_field(seed * 2000 + k)
                    for k in range(max(4, n_fields // 2))]
    cross = cone_sweep(cone_set("cross"), cross_fields, region, (0.5, 0.7, 0.9), (0.08, 0.16))
    cross_rows = [(sv, min(v for q in qs for v in q["q"])) for sv, qs in cross.items()]
    write_csv(out / "cross_cone_sweep.csv", ["s", "min_quotient"], cross_rows)
    ok = worst >= 0.0
    checks = [{"name": "halfplane_nonnegative_within_bars", "value": worst, "pass": ok},
              {"name": "cross_cone_recorded", "value": len(cross_rows), "pass": True,
               "exploratory": True}]
    return RunReport("cone", ok, checks, cfg.params)


RUNNERS = {
    "layer": _exp_layer,
    "op-check": _exp_opcheck,
    "energy": _exp_energy,
    "scaling": _exp_scaling,
    "monotonicity": _exp_monotonicity,
    "stability": _exp_stability,
    "density": _exp_density,
    "blowdown": _exp_blowdown,
    "cone": _exp_cone,
}


def run(cfg: RunConfig) -> RunReport:
    """Execute one experiment; files land in output_dir/<experiment>/."""
    out = Path(cfg.params["output_dir"]) / cfg.experiment
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        report = RUNNERS[cfg.experiment](cfg, out)
    except BaseException:
        for d in made:  # deepest first: leave no empty directory of this run
            if not any(d.iterdir()):
                d.rmdir()
        raise
    # every number surfaced in the JSON report also lives in a CSV trace
    keys = sorted({k for c in report.checks for k in c})
    write_csv(out / "checks.csv", keys,
              [[c.get(k, "") for k in keys] for c in report.checks])
    write_json(out / "report.json", report.to_json())
    with open(out / "timings.txt", "w") as fh:
        fh.write(f"wall_clock_seconds {time.time() - t0:.3f}\n")
    return report


def report_merge(reports) -> dict:
    """Conjunction of per-experiment reports; empty input is vacuously true."""
    seen = set()
    merged = {"experiments": [], "passed": True}
    for rep in reports:
        payload = rep.to_json() if isinstance(rep, RunReport) else rep
        name = payload["experiment"]
        if name in seen:
            raise ConfigurationError(f"duplicate experiment id {name!r}")
        seen.add(name)
        merged["experiments"].append(payload)
        merged["passed"] = merged["passed"] and bool(payload["passed"])
    if not merged["experiments"]:
        merged["warning"] = "no experiments merged; vacuous pass"
    return merged


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            out[key.strip()] = value.strip()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracac",
        description="nonlocal phase-transition laboratory experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="plain key/value config file")
    parser.add_argument("--key", action="append", default=[], metavar="KEY VALUE",
                        nargs=2, help="override a single config key")
    for key in DEFAULTS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key)
    args = parser.parse_args(argv)

    params = {}
    if args.config:
        params.update(_parse_config_file(args.config))
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    for key, value in args.key:
        params[key] = value

    try:
        if args.experiment == "report":
            base = Path(params.get("output_dir", DEFAULTS["output_dir"]))
            if not base.is_dir():
                raise ConfigurationError(f"output_dir {str(base)!r} is not a directory")
            reports = []
            for sub in sorted(base.iterdir()):
                rp = sub / "report.json"
                if rp.exists():
                    with open(rp) as fh:
                        reports.append(json.load(fh))
            merged = report_merge(reports)
            write_json(base / "merged_report.json", merged)
            print(json.dumps(merged, indent=1, sort_keys=True, default=_fmt))
            return 0 if merged["passed"] else 3
        cfg = RunConfig(args.experiment, params)
        report = run(cfg)
        print(json.dumps(report.to_json(), indent=1, sort_keys=True, default=_fmt))
        return 0 if report.passed else 3
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FracacError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
