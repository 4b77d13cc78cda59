"""The benchmark's workloads: seeded pipelines of calls into fracac.

There are four pipelines (layer refinement, extension, scaling, cone) and
two workloads, each running two of them in one child (``WORKLOADS`` at the
end).  Each workload has two halves.  ``inputs(seed, size)`` builds
everything the pipelines need from the seed (this is part of set-up);
``run(inp, tr, chk)``
makes the timed calls through the tracer ``tr``, records correctness checks
in ``chk`` at the acceptance-suite tolerances, and returns the key numbers
whose digest must repeat for a repeated seed.

``size`` is "full" for the benchmark and "small" for the harness self-test,
which only has to exercise every call path in seconds.
"""

import numpy as np

import fracac as fa

S = 0.5                     # fractional order of the layer workloads


class Checks:
    """Named pass/fail records; ``force_fail`` adds one deliberate failure."""

    def __init__(self, force_fail: bool = False):
        self.items = []
        if force_fail:
            self.add("forced_failure", 1.0, False)

    def add(self, name: str, value, ok: bool) -> None:
        self.items.append({"name": name, "value": float(value), "pass": bool(ok)})


def _layer_guess(rng) -> fa.ScalarField:
    """Seeded odd initial profile for the layer Newton solve."""
    g = fa.Grid(1, 0.25, 40.0, fa.ConstantExterior([(-1.0, 1.0)]), centered=True)
    width = rng.uniform(1.5, 3.0)
    return fa.ScalarField(g, np.tanh(g.axis_coords() / width))


def _witness_cosine(phi: fa.ScalarField, rep) -> float:
    x = phi.grid.axis_coords()
    mask = rep.region.mask(phi.grid).ravel()
    v = rep.witness.values.ravel()[mask]
    p = np.gradient(phi.values, x)[mask]
    return float(abs(v @ p) / (np.linalg.norm(v) * np.linalg.norm(p)))


def _hkey(h: float) -> str:
    """Span variant for a grid spacing: 0.05 -> h050, 0.0125 -> h0125."""
    return "h" + f"{h:.4f}".split(".")[1].rstrip("0").ljust(3, "0")


# ---------------------------------------------------------------------------
# extension: layer extension + monotonicity, periodic 2D extension + oracle
# ---------------------------------------------------------------------------

def extension_inputs(rng, full: bool) -> dict:
    nodes = 24 if full else 16
    g2 = fa.make_grid(2, np.pi, 2.0 * np.pi / nodes)
    pts = g2.coords()
    vals = np.zeros(len(pts))
    for kx, ky in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
        a, b = rng.normal(size=2) / (kx * kx + ky * ky)
        ph = kx * pts[:, 0] + ky * pts[:, 1]
        vals += a * np.cos(ph) + b * np.sin(ph)
    return {
        "y_max": 18.0,
        "radii": [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
        "field2d": fa.ScalarField(g2, vals.reshape(g2.shape)),
        "y_max_2d": 3.0,
        "W": fa.Potential.quartic(),
    }


def extension_run(phi: fa.ScalarField, inp: dict, tr, chk: Checks) -> dict:
    W = inp["W"]
    U = tr.call("extension.extend.exterior_1d", fa.extend, phi, S, y_max=inp["y_max"])
    trace = tr.call("extension.monotonicity_trace.layer", fa.monotonicity_trace,
                    U, inp["radii"], W)
    Uh = tr.call("extension.halfspace_extension", fa.halfspace_extension,
                 S, phi.grid, inp["y_max"])
    trace_h = tr.call("extension.monotonicity_trace.halfspace", fa.monotonicity_trace,
                      Uh, inp["radii"], W)
    ph = trace_h.phi_values
    constancy = float((ph.max() - ph.min()) / ph.mean())
    chk.add("monotonicity_violations", len(trace.violations), len(trace.violations) == 0)
    chk.add("halfspace_constancy", constancy, constancy <= 0.01)

    u2 = inp["field2d"]
    U2 = tr.call("extension.extend.periodic_2d", fa.extend, u2, S, y_max=inp["y_max_2d"])
    U2w = tr.call("extension.extend_by_weighted_solve", fa.extend_by_weighted_solve,
                  u2, S, y_max=inp["y_max_2d"])
    sel = U2.y_levels >= 2.0 * u2.grid.h
    span = float(u2.values.max() - u2.values.min())
    gap = float(np.max(np.abs(U2.values[sel] - U2w.values[sel]))) / span
    chk.add("periodic_vs_weighted_solve_gap", gap, gap <= 0.01)
    return {"phi_layer": trace.phi_values, "phi_halfspace": ph, "periodic_gap": gap}


# ---------------------------------------------------------------------------
# energy-2d: the scaling pipeline on one large 2D operator
# ---------------------------------------------------------------------------

def energy_inputs(rng, full: bool) -> dict:
    angle = rng.uniform(0.0, np.pi / 16.0)
    return {
        "guess": _layer_guess(rng),
        "h": 0.05 if full else 0.2,
        "zoom": 32.0,
        "grid": fa.make_grid(2, 16.0, 0.125 if full else 0.25),
        "direction": (float(np.cos(angle)), float(np.sin(angle))),
        "radii": [4.0, 6.0, 8.0, 10.0, 12.0, 14.0],
        "pot_radii": [6.0, 8.0, 10.0, 12.0, 14.0],
        "spec": fa.KernelSpec.fractional_unit(S, 2),
        "W": fa.Potential.quartic(),
    }


def energy_run(inp: dict, tr, chk: Checks) -> dict:
    W, spec, radii = inp["W"], inp["spec"], inp["radii"]
    phi = tr.call(f"solver.solve_layer_1d.{_hkey(inp['h'])}", fa.solve_layer_1d,
                  S, 40.0, inp["h"], tol=1e-8, W=W, seed=inp["guess"])
    zoomed = tr.call("fields.rescale_blowdown", fa.rescale_blowdown, phi, inp["zoom"])
    u2 = tr.call("fields.embed_profile", fa.embed_profile,
                 zoomed, inp["direction"], inp["grid"])
    origin = (0.0, 0.0)

    _, fit_bv = tr.call("scaling.bv_scaling", fa.bv_scaling, u2, radii)
    sob = []
    for k, R in enumerate(radii):
        variant = "cold" if k == 0 else "warm"
        sob.append(tr.call(f"energies.sobolev_energy.{variant}", fa.sobolev_energy,
                           u2, fa.BallRegion(origin, R), spec))
    exp_sob = fa.ScalingExperiment("sobolev", np.asarray(radii), np.asarray(sob))
    fit_sob = tr.call("scaling.fit_loglog", fa.fit_loglog, exp_sob)
    _, fit_full = tr.call("scaling.full_energy_scaling", fa.full_energy_scaling,
                          u2, radii, spec, W)
    pvs = tr.call("scaling.potential_vs_sobolev", fa.potential_vs_sobolev,
                  u2, inp["pot_radii"], 2.0, spec, W)

    for name, fit, want in (("bv_slope", fit_bv, 1.0), ("sobolev_slope", fit_sob, 1.5),
                            ("full_energy_slope", fit_full, 1.5)):
        chk.add(name, fit.slope, abs(fit.slope - want) <= 0.15)
    chk.add("pot_sob_trend", pvs["trend_slope"], pvs["trend_slope"] <= 0.05)
    return {"sobolev": sob, "slopes": [fit_bv.slope, fit_sob.slope, fit_full.slope],
            "pot_sob_ratios": pvs["ratios"]}


# ---------------------------------------------------------------------------
# perimeter-2d: half-plane perimeter stability and the cross-cone sweep
# ---------------------------------------------------------------------------

T_MAX = 0.16                # largest flow time of the perimeter workload


def bump_field(rng, inner: float = 0.05, support: float = 0.95) -> fa.VectorFieldSpec:
    """A smooth seeded bump field supported in the annulus inner < |x| < support.

    The amplitude is capped so that T_MAX times the field's sampled
    Lipschitz constant stays below 1/2: the flow map then stays a
    diffeomorphism at every flow time the workload uses, so no seed makes
    `flow_map` refuse the deformation.
    """
    r0 = rng.uniform(0.25, 0.7)
    width = rng.uniform(0.1, 0.25)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    m = int(rng.integers(0, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    lo, hi = max(inner, r0 - width), min(support, r0 + width)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def unit(pts):
        r = np.linalg.norm(pts, axis=1)
        xi = (r - mid) / half
        amp = np.zeros_like(r)
        ok = np.abs(xi) < 1.0
        amp[ok] = np.exp(1.0 - 1.0 / (1.0 - xi[ok] ** 2))
        amp *= np.cos(m * np.arctan2(pts[:, 1], pts[:, 0]) + phase)
        return np.stack([amp * np.cos(alpha), amp * np.sin(alpha)], axis=1)

    axis = np.linspace(-1.0, 1.0, 201)
    mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = unit(mesh).reshape(axis.size, axis.size, 2)
    jac = np.stack([np.gradient(vals[..., c], axis, axis=a)
                    for c in range(2) for a in range(2)])
    lip = float(np.max(np.sqrt((jac ** 2).sum(axis=0))))
    scale = min(1.0, 0.5 / (T_MAX * lip))
    return fa.VectorFieldSpec(lambda pts: scale * unit(pts), support_radius=support)


def _indicator_pair(h: float, box: float, exterior_fn, inside_fn):
    """The set on the fine grid and its 2x-coarsened copy (for error bars)."""
    ext = fa.FieldExterior(exterior_fn)
    fine = fa.Grid(2, h, box, ext)
    coarse = fa.Grid(2, 2.0 * h, box, ext)
    member = inside_fn(fine.coords()).reshape(fine.shape)
    return fa.IndicatorSet(fine, member), fa.IndicatorSet(coarse, member[::2, ::2])


def perimeter_inputs(rng, full: bool) -> dict:
    h = 1.0 / 32.0 if full else 1.0 / 8.0
    half = _indicator_pair(h, 2.0, lambda p: np.where(p[:, 1] <= 0.0, 1.0, -1.0),
                           lambda p: p[:, 1] <= 0.0)
    cross, _ = _indicator_pair(h, 2.0, lambda p: np.sign(p[:, 0] * p[:, 1] + 1e-300),
                               lambda p: p[:, 0] * p[:, 1] > 0.0)
    n_fields = 3 if full else 2          # the cone experiment uses 8; see README
    return {
        "s": S,
        "half": half,
        "cross": cross,
        "region": fa.BallRegion((0.0, 0.0), 1.0),
        "t": (0.04, 0.08, T_MAX),
        "fields": [bump_field(rng) for _ in range(n_fields)],
        "cross_s": (0.5, 0.7, 0.9),
        "cross_fields": [bump_field(rng) for _ in range(2)],
        "cross_t": (0.08, T_MAX),
    }


def perimeter_run(inp: dict, tr, chk: Checks) -> dict:
    s, region, t_list = inp["s"], inp["region"], inp["t"]

    def perim(ind):
        return tr.call("energies.fractional_perimeter", fa.fractional_perimeter,
                       ind, region, s)

    base = [perim(ind) for ind in inp["half"]]
    quotients = []
    worst = np.inf
    for X in inp["fields"]:
        q = []
        for ind, p0 in zip(inp["half"], base):
            row = []
            for t in t_list:
                pp = perim(tr.call("stability.flow_map", fa.flow_map, ind, X, +t))
                pm = perim(tr.call("stability.flow_map", fa.flow_map, ind, X, -t))
                row.append((pp + pm - 2.0 * p0) / t ** 2)
            q.append(np.array(row))
        q_fine, q_coarse = q
        bar = np.abs(q_fine - q_coarse) + 1e-6 * max(1.0, float(np.max(np.abs(q_fine))))
        worst = min(worst, float(np.min(q_fine + bar)))
        quotients.append(q_fine)
    chk.add("halfplane_worst_q_plus_bar", worst, worst >= 0.0)

    ref = tr.call("stability.perimeter_stability_quotients.halfplane",
                  fa.perimeter_stability_quotients,
                  inp["half"][0], inp["fields"][0], region, s, t_list)
    mismatch = float(np.max(np.abs(np.asarray(ref["q"]) - quotients[0])))
    chk.add("composed_equals_library_quotients", mismatch, mismatch == 0.0)

    sweep = []
    for sv in inp["cross_s"]:
        for X in inp["cross_fields"]:
            q = tr.call("stability.perimeter_stability_quotients.cross",
                        fa.perimeter_stability_quotients,
                        inp["cross"], X, region, sv, inp["cross_t"])
            sweep.extend(q["q"])
    finite = bool(np.all(np.isfinite(sweep)))
    chk.add("cross_sweep_finite", float(finite), finite)
    return {"base": base, "halfplane_q": quotients, "cross_q": sweep}


# ---------------------------------------------------------------------------
# layer-h: h-refinement of the 1D layer (dense Newton / LU solver layer)
# ---------------------------------------------------------------------------

def layer_inputs(rng, full: bool) -> dict:
    return {
        "guess": _layer_guess(rng),
        # h = 0.0125 would take ~8 s a pipeline (dense 6401^2 Jacobians), too
        # long for several fresh-process samples in one run
        "h_list": (0.1, 0.05, 0.025) if full else (0.2, 0.1),
        "box": 40.0,
        "region": fa.BallRegion((0.0,), 20.0),
        "energy_radii": (4.0, 8.0, 16.0),
        "spec": fa.KernelSpec.fractional_unit(S, 1),
        "W": fa.Potential.quartic(),
    }


def layer_run(inp: dict, tr, chk: Checks) -> tuple:
    """Key numbers per h, and the solved layer per h."""
    spec, W, box = inp["spec"], inp["W"], inp["box"]
    out, layers = {}, {}
    for h in inp["h_list"]:
        tag = _hkey(h)
        phi = layers[h] = tr.call(f"solver.solve_layer_1d.{tag}", fa.solve_layer_1d,
                                  S, box, h, tol=1e-10, W=W, seed=inp["guess"])
        x = phi.grid.axis_coords()
        res = tr.call("solver.residual_field", fa.residual_field, phi, spec, W)
        res_sup = float(np.max(np.abs(res[np.abs(x) <= box / 2.0])))
        fit = tr.call("scaling.layer_decay", fa.layer_decay, phi, S)
        rep = tr.call("stability.min_rayleigh", fa.min_rayleigh, phi, inp["region"], spec, W)
        tr.count("stability.min_rayleigh.iterations", rep.iterations)
        tr.count("stability.min_rayleigh.converged", float(rep.converged))
        energies = [tr.call("energies.energy_breakdown", fa.energy_breakdown,
                            phi, fa.BallRegion((0.0,), R), spec, W).total
                    for R in inp["energy_radii"]]
        cosine = _witness_cosine(phi, rep)
        monotone = bool(np.all(np.diff(phi.values) > 0))
        chk.add(f"{tag}.residual_inner_half", res_sup, res_sup <= 1e-8)
        chk.add(f"{tag}.monotone", float(monotone), monotone)
        chk.add(f"{tag}.tail_exponent", fit.slope, abs(fit.slope + 0.5) <= 0.1)
        chk.add(f"{tag}.min_rayleigh", rep.min_rayleigh,
                abs(rep.min_rayleigh) <= 1e-3 and rep.converged)
        chk.add(f"{tag}.witness_cosine", cosine, cosine >= 0.99)
        out[tag] = [res_sup, fit.slope, rep.min_rayleigh, cosine] + energies
    return out, layers


# ---------------------------------------------------------------------------
# the two workloads: each a pair of the pipelines above in one child
# ---------------------------------------------------------------------------

def layer_extension_inputs(seed: int, size: str) -> dict:
    rng = np.random.default_rng(seed)
    full = size == "full"
    return {"layer": layer_inputs(rng, full), "extension": extension_inputs(rng, full),
            "h_extension": 0.05 if full else 0.2}


def layer_extension_run(inp: dict, tr, chk: Checks) -> dict:
    """h-refinement of the layer, then the extension of its h = 0.05 solve."""
    numbers, layers = layer_run(inp["layer"], tr, chk)
    numbers.update(extension_run(layers[inp["h_extension"]], inp["extension"], tr, chk))
    return numbers


def lattice_inputs(seed: int, size: str) -> dict:
    rng = np.random.default_rng(seed)
    full = size == "full"
    return {"energy": energy_inputs(rng, full), "perimeter": perimeter_inputs(rng, full)}


def lattice_run(inp: dict, tr, chk: Checks) -> dict:
    """The scaling pipeline, then the cone pipeline."""
    numbers = energy_run(inp["energy"], tr, chk)
    numbers.update(perimeter_run(inp["perimeter"], tr, chk))
    return numbers


WORKLOADS = {
    "layer-extension": (layer_extension_inputs, layer_extension_run),
    "lattice-2d": (lattice_inputs, lattice_run),
}
