"""Runner orchestration: configs, exit codes, reports, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fracac import Grid, RunConfig, RunReport, report_merge, run
from fracac.errors import ConfigurationError


def cli(*args):
    return subprocess.run([sys.executable, "-m", "fracac.cli", *args],
                          capture_output=True, text=True)


def test_cli_module_starts_when_runtime_warnings_are_errors():
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-m", "fracac.cli", "--help"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "usage: fracac" in out.stdout


def test_config_validation_rejects_bad_grid():
    with pytest.raises(ConfigurationError):
        RunConfig("layer", {"h": 0.3, "box_radius": 1.0})


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigurationError):
        RunConfig("frobnicate", {})


def test_cli_malformed_config_exits_2(tmp_path):
    out = cli("layer", "--h", "0.3", "--box-radius", "1.0",
              "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "box_radius/h" in out.stderr


@pytest.mark.parametrize("flag, value", [("--h", "0"), ("--s", "abc")])
def test_cli_bad_number_exits_2(flag, value, tmp_path):
    out = cli("layer", flag, value, "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert "configuration error" in out.stderr and "Traceback" not in out.stderr


def test_cli_bad_key_without_flag_exits_2(tmp_path):
    """n_fields has no CLI flag; a non-integer is a configuration error."""
    out = cli("cone", "--key", "n_fields", "abc", "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert "n_fields" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("experiment", ["op-check", "cone"])
def test_cli_negative_seed_exits_2(experiment, tmp_path):
    """A negative seed would reach numpy's generator and crash it."""
    out = cli(experiment, "--seed", "-1", "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert "seed" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "x").exists()


def test_config_rejects_negative_seed():
    with pytest.raises(ConfigurationError, match="seed"):
        RunConfig("layer", {"seed": -1})


def test_cli_cone_without_fields_exits_2(tmp_path):
    """n_fields 0 would check no field and report a worst quotient of inf."""
    out = cli("cone", "--key", "n_fields", "0", "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert "n_fields" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("radii", ["2,abc", ","])
def test_cli_bad_radii_exit_2(radii, tmp_path):
    """--radii is parsed inside the runner: a non-number and a list naming no
    radius (which would pass with an empty energies.csv) are both refused."""
    out = cli("energy", "--radii", radii, "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert "radii" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "x").exists()


def test_cli_report_on_missing_directory_exits_2(tmp_path):
    out = cli("report", "--output-dir", str(tmp_path / "missing"))
    assert out.returncode == 2, out.stderr
    assert "output_dir" in out.stderr and "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_config_error_in_runner_leaves_no_directory(tmp_path):
    """--tol is read inside the runner, after run() made the output directory."""
    out = cli("layer", "--tol", "abc", "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2, out.stderr
    assert not (tmp_path / "x" / "layer").exists()
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("h, box", [(0.0, 1.0), (-0.1, 1.0), (0.1, float("inf"))])
def test_grid_rejects_bad_spacing_before_dividing(h, box):
    with pytest.raises(ConfigurationError):
        Grid(1, h, box)


def test_cli_has_no_dimension_option(tmp_path):
    """Every experiment fixes its own dimension; --n is refused, not ignored."""
    out = cli("layer", "--n", "2", "--output-dir", str(tmp_path / "x"))
    assert out.returncode == 2
    assert not (tmp_path / "x").exists()


def test_cli_layer_run_and_outputs(tmp_path):
    out = cli("layer", "--s", "0.5", "--box-radius", "20", "--h", "0.2",
              "--tol", "1e-8", "--output-dir", str(tmp_path / "o"))
    assert out.returncode == 0
    base = tmp_path / "o" / "layer"
    for name in ("profile.txt", "profile_trace.csv", "report.json",
                 "checks.csv", "profile.svg", "timings.txt"):
        assert (base / name).exists()
    rep = json.loads((base / "report.json").read_text())
    assert rep["passed"] is True


def test_cli_opcheck(tmp_path):
    out = cli("op-check", "--s", "0.7", "--output-dir", str(tmp_path / "o"))
    assert out.returncode == 0


def test_cli_config_file_roundtrip(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("s 0.5\nbox_radius 20\nh 0.2\ntol 1e-8\n")
    out = cli("layer", "--config", str(cfgfile),
              "--output-dir", str(tmp_path / "o"))
    assert out.returncode == 0


def test_report_merge_pass_fail_and_empty():
    a = RunReport("layer", True, [{"name": "x", "pass": True}], {})
    b = RunReport("op-check", False, [{"name": "y", "pass": False}], {})
    merged = report_merge([a])
    assert merged["passed"]
    merged2 = report_merge([a, b])
    assert not merged2["passed"]
    empty = report_merge([])
    assert empty["passed"] and "warning" in empty


def test_report_merge_rejects_duplicate_ids():
    a = RunReport("layer", True, [], {})
    with pytest.raises(ConfigurationError):
        report_merge([a, a])


def test_cli_report_aggregates(tmp_path):
    odir = str(tmp_path / "o")
    assert cli("layer", "--s", "0.5", "--box-radius", "20", "--h", "0.2",
               "--tol", "1e-8", "--output-dir", odir).returncode == 0
    out = cli("report", "--output-dir", odir)
    assert out.returncode == 0
    merged = json.loads((Path(odir) / "merged_report.json").read_text())
    assert merged["passed"] is True


def test_density_run_api(tmp_path):
    cfg = RunConfig("density", {"output_dir": str(tmp_path / "o"), "h": 0.1})
    rep = run(cfg)
    assert rep.passed


def test_json_numbers_all_appear_in_csv(tmp_path):
    cfg = RunConfig("density", {"output_dir": str(tmp_path / "o"), "h": 0.1})
    run(cfg)
    base = tmp_path / "o" / "density"
    rep = json.loads((base / "report.json").read_text())
    csv_text = "".join(p.read_text() for p in base.glob("*.csv"))

    def numbers(obj):
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield obj
        elif isinstance(obj, dict):
            for v in obj.values():
                yield from numbers(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from numbers(v)

    for num in numbers(rep["checks"]):
        assert repr(float(num)) in csv_text or str(num) in csv_text


def test_fitted_slope_reproducible_from_serialized_trace(tmp_path):
    """Slopes in the report are recomputable bit-for-bit from the CSV."""
    import numpy as np
    from fracac import ScalingExperiment, fit_loglog
    cfg = RunConfig("scaling", {"output_dir": str(tmp_path / "o"), "seed": 0})
    rep = run(cfg)
    base = tmp_path / "o" / "scaling"
    for check in rep.checks:
        name = check["name"].replace("_slope", "")
        csv_path = base / f"{name}.csv"
        if not csv_path.exists():
            continue
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        exp = ScalingExperiment(name, rows[:, 0], rows[:, 1])
        refit = fit_loglog(exp)
        assert refit.slope == check["value"]


@pytest.mark.parametrize("experiment,outputs", [
    ("monotonicity", {"checks.csv", "report.json", "monotonicity.csv",
                      "monotonicity.svg", "monotonicity_halfspace.csv"}),
    ("stability", {"checks.csv", "report.json", "stability.json", "witness.txt"}),
    ("energy", {"checks.csv", "report.json", "energies.csv", "energies.json"}),
], ids=["monotonicity", "stability", "energy"])
def test_cli_byte_identical_on_rerun(experiment, outputs, tmp_path):
    out = tmp_path / "o"
    runs = []
    for _ in range(2):
        assert cli(experiment, "--output-dir", str(out)).returncode == 0
        runs.append({p.name: p.read_bytes() for p in (out / experiment).iterdir()
                     if p.name != "timings.txt"})
    assert runs[0] == runs[1] and set(runs[0]) == outputs
    if experiment == "energy":
        header = runs[0]["energies.csv"].decode().splitlines()[0]
        assert header == "radius,sobolev,potential"


def test_cone_run_flows_once_for_all_orders_and_keeps_the_per_order_fold(monkeypatch,
                                                                          tmp_path):
    """With 2 fields, `cone` flows each deformed set once for all three cross
    orders, and its cross sweep is the fold of the per-order composition of
    flow_map and fractional_perimeter, one order and field at a time."""
    import numpy as np
    from conftest import composed_quotients
    from fracac import BallRegion, stability
    calls, fm = [], stability.flow_map
    monkeypatch.setattr(stability, "flow_map", lambda *a: calls.append(1) or fm(*a))
    run(RunConfig("cone", {"output_dir": str(tmp_path / "o"), "n_fields": 2}))
    # (fine, coarse) x (+t, -t) x flow times, per half-plane and per cross field
    assert len(calls) == 2 * 2 * 3 * 2 + 2 * 2 * 2 * 4
    cross, region = stability.cone_set("cross"), BallRegion((0.0, 0.0), 1.0)
    fields = [stability.radial_bump_vector_field(k) for k in range(4)]
    rows = ["s,min_quotient"]
    for sv in (0.5, 0.7, 0.9):
        qmin = np.inf
        for X in fields:
            qmin = min(qmin, min(composed_quotients(cross, X, region, sv, (0.08, 0.16))["q"]))
        rows.append(f"{sv!r},{qmin!r}")
    assert (tmp_path / "o" / "cone" / "cross_cone_sweep.csv").read_text().splitlines() == rows
