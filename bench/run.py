"""fracac benchmark: time to a verified result, peak RSS and per-layer spans.

One workload for a fixed time:

    python3 bench/run.py --workload layer-extension --seed 1 --seconds 58 --trace 0

Every workload, untraced and then traced, as a table of every metric:

    python3 bench/run.py --all

Each pipeline run is a fresh interpreter (bench/child.py), as a researcher's
experiment is: operator tables, lru caches and the RSS high-water mark all
start empty.  Children run one at a time with every thread pool pinned to
one thread.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, every sample, every span) goes to bench/out/.  The exit code
is 0 only when every correctness check passed.

The host this runs on changes speed by up to 1.6x in phases of seconds to
minutes.  So the timed end-to-end metrics are host-speed adjusted: each
child's wall, CPU and set-up seconds are scaled by PROBE_REF_S over the
mean time of a fixed probe task timed throughout that child's pipeline
(child.py, ``Probe``); a set-up-only child has no pipeline and takes the
run's median probe time.  They read as seconds on a host where the probe
takes PROBE_REF_S.  The raw seconds and the probe time are kept in the
record and printed by ``--all``; the traced run reports them too.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "fracac"
OUT = HERE / "out"

WORKLOADS = ("layer-extension", "lattice-2d")
THREADS = {"FRACAC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PIPELINES = 2       # the determinism check compares two digests
MIN_SETUPS = 3          # set-up is the noisiest metric: never a median of fewer
RUN_LIMIT_S = 170       # a run, hung child included, ends within this
PROBE_REF_S = 1.0e-3    # probe time that adjusted seconds refer to

END_TO_END = {"wall_adj_s": "s", "cpu_adj_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# one span per public call the workloads make, <module>.<function>[.<variant>]
SPANS = (
    "solver.solve_layer_1d.h100",
    "solver.solve_layer_1d.h050",
    "solver.solve_layer_1d.h025",
    "solver.residual_field",
    "scaling.layer_decay",
    "stability.min_rayleigh",
    "energies.energy_breakdown",
    "extension.extend.exterior_1d",
    "extension.monotonicity_trace.layer",
    "extension.halfspace_extension",
    "extension.monotonicity_trace.halfspace",
    "extension.extend.periodic_2d",
    "extension.extend_by_weighted_solve",
    "fields.rescale_blowdown",
    "fields.embed_profile",
    "scaling.bv_scaling",
    "energies.sobolev_energy.cold",
    "energies.sobolev_energy.warm",
    "scaling.fit_loglog",
    "scaling.full_energy_scaling",
    "scaling.potential_vs_sobolev",
    "energies.fractional_perimeter",
    "stability.flow_map",
    "stability.perimeter_stability_quotients.halfplane",
    "stability.perimeter_stability_quotients.cross",
)
SPAN_FIELDS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"),
               "rss_raise_mb": ("MB", "lower")}
PER_LAYER_EXTRA = {
    "stability.min_rayleigh.iterations": ("count", "lower"),
    "stability.min_rayleigh.converged": ("count", "higher"),
}
# medians over the traced run's children, from the samples of measure()
TRACE_SAMPLES = {
    "trace.wall_s": ("wall_s", "s", "lower"),
    "trace.cpu_s": ("cpu_s", "s", "lower"),
    "trace.probe_ms": ("probe_ms", "ms", "lower"),
    "trace.span_coverage": ("span_coverage", "ratio", "higher"),
}


def per_layer_metrics() -> dict:
    """name -> (unit, better) for every metric of a traced run."""
    out = {f"{span}.{field}": spec for span in SPANS for field, spec in SPAN_FIELDS.items()}
    out.update(PER_LAYER_EXTRA)
    out.update({name: (unit, better) for name, (_, unit, better) in TRACE_SAMPLES.items()})
    return out


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    return env


def spawn(workload: str, seed: int, size: str, trace: bool, mode: str,
          deadline: float) -> dict:
    """Run one child to completion; add its set-up time as seen from here."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), size,
           str(int(trace))] + ([mode] if mode else [])
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child still running at the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_done"] - t0
    res["elapsed_s"] = time.monotonic() - t0
    return res


def tree_sha256(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(child: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), **child["env"], "commit": commit,
            "src_sha256": tree_sha256(SRC.glob("*.py")),
            "bench_sha256": tree_sha256(HERE.glob("*.py"))}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", force_fail: bool = False) -> dict:
    """Fresh-process pipeline runs for about `seconds`, then set-up-only
    runs until MIN_SETUPS set-up samples exist; returns the full record."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    mode = "force-fail" if force_fail else ""
    pipes = []
    while True:
        pipes.append(spawn(workload, seed, size, trace, mode, deadline))
        if len(pipes) < MIN_PIPELINES:
            continue
        setup = statistics.median(p["setup_s"] for p in pipes)
        next_run = statistics.median(p["elapsed_s"] for p in pipes)
        still_needed = max(0, MIN_SETUPS - len(pipes) - 1) * setup
        if time.monotonic() - start + next_run + still_needed > seconds:
            break
    setups = list(pipes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, size, trace, "setup-only", deadline))

    checks = [dict(c, run=i) for i, p in enumerate(pipes) for c in p["checks"]]
    digests = sorted({p["digest"] for p in pipes})
    checks.append({"name": "digest_repeats", "value": float(len(digests)),
                   "pass": len(digests) == 1, "run": None})
    samples = {name: [p[name] for p in pipes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["probe_ms"] = [1e3 * p["probe_s"] for p in pipes]
    for name in ("wall", "cpu"):
        samples[f"{name}_adj_s"] = [p[f"{name}_s"] * PROBE_REF_S / p["probe_s"] for p in pipes]
    run_probe_s = statistics.median(p["probe_s"] for p in pipes)
    samples["setup_raw_s"] = [p["setup_s"] for p in setups]
    samples["setup_s"] = [p["setup_s"] * PROBE_REF_S / p.get("probe_s", run_probe_s)
                          for p in setups]
    if trace:
        samples["span_coverage"] = [p["span_coverage"] for p in pipes]
        metrics = {name: {"value": statistics.median(p["layers"].get(name, 0.0) for p in pipes),
                          "unit": unit}
                   for name, (unit, _) in per_layer_metrics().items()
                   if name not in TRACE_SAMPLES}
        metrics.update({name: {"value": statistics.median(samples[key]), "unit": unit}
                        for name, (key, unit, _) in TRACE_SAMPLES.items()})
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "env": environment(pipes[0]), "samples": samples,
        "digests": digests, "checks": checks,
        "attempted": len(checks), "failed": sum(not c["pass"] for c in checks),
        "metrics": metrics,
    }
    if trace:
        record["spans"] = [sp for p in pipes for sp in p["spans"]]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"runs={len(rec['samples']['wall_s'])} setups={len(rec['samples']['setup_s'])} "
          f"checks_failed={rec['failed']}/{rec['attempted']}")
    print("# env " + json.dumps(rec["env"], sort_keys=True))
    for c in rec["checks"]:
        if not c["pass"]:
            print(f"# FAILED check {c['name']} = {c['value']!r} (run {c['run']})")


def summary(seed: int, seconds: float, size: str) -> int:
    """Every workload untraced then traced; one table of named metrics."""
    rows = []
    failed = 0
    for w in WORKLOADS:
        plain = measure(w, seed, seconds, False, size)
        traced = measure(w, seed, seconds, True, size)
        failed += plain["failed"] + traced["failed"]
        n = len(plain["samples"]["wall_s"])
        for name, m in plain["metrics"].items():
            k = len(plain["samples"][name])
            rows.append((w, name, f"{m['value']:.4f}", m["unit"], f"median of {k}"))
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("setup_raw_s", "s"),
                           ("probe_ms", "ms")):
            k = len(plain["samples"][name])
            rows.append((w, name, f"{statistics.median(plain['samples'][name]):.4f}", unit,
                         f"median of {k}, not adjusted"))
        rows.append((w, "checks_failed", f"{plain['failed'] / plain['attempted']:.4f}",
                     "ratio", f"{plain['failed']} of {plain['attempted']} checks"))
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    - statistics.median(plain["samples"]["wall_s"]))
        rows.append((w, "tracing_overhead_s", f"{overhead:+.4f}", "s",
                     f"traced - untraced wall_s, medians of {len(traced['samples']['wall_s'])}/{n}"))
        cov = traced["metrics"]["trace.span_coverage"]["value"]
        rows.append((w, "span_coverage", f"{cov:.4f}", "ratio", "top-level busy_s / wall_s"))
        for name, m in traced["metrics"].items():
            if name.endswith(".busy_s") and m["value"] > 0.0:
                rows.append((w, name, f"{m['value']:.4f}", m["unit"], "traced median"))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for r in rows:
        print("  ".join(col.ljust(wd) for col, wd in zip(r, widths)))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced sizes for the harness self-test")
    ap.add_argument("--force-fail", action="store_true",
                    help="add one deliberately failed check (harness self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").exists():
        print(f"fracac sources not found under {SRC.parent}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return summary(args.seed, args.seconds, args.size)
        if args.workload is None:
            ap.error("--workload or --all is required")
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.size, args.force_fail)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    print_record(rec)
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0 if rec["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
