"""Runner orchestration: configs, exit codes, reports, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fracac import RunConfig, RunReport, report_merge, run
from fracac.errors import ConfigurationError


def cli(*args):
    return subprocess.run([sys.executable, "-m", "fracac.cli", *args],
                          capture_output=True, text=True)


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
        exp = ScalingExperiment(name, rows[:, 0], rows[:, 1], rows[:, 2])
        refit = fit_loglog(exp)
        assert refit.slope == check["value"]


def test_cli_monotonicity_byte_identical_on_rerun(tmp_path):
    out = tmp_path / "o"
    runs = []
    for _ in range(2):
        assert cli("monotonicity", "--output-dir", str(out)).returncode == 0
        runs.append({p.name: p.read_bytes() for p in (out / "monotonicity").iterdir()
                     if p.name != "timings.txt"})
    assert runs[0] == runs[1] and len(runs[0]) >= 5
