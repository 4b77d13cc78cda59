"""Harness self-test at reduced sizes (under a minute on 2 cores).

    python3 bench/selftest.py

Checks, through the command line exactly as the benchmark is run:
- every workload runs traced at the small size, and each end-to-end and
  per-layer metric named in BENCHMARK.json is emitted with its unit;
- a deliberately failed check is counted in ``failed`` and makes the
  command exit non-zero;
- in a directory holding only BENCHMARK.json and bench/, the command exits
  non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--size", "small", "--seconds", "1"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def expect(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def check_metrics(result: dict, wanted: list, label: str, failures: list) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly correct/attempted/failed/metrics", failures)
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    expect(not missing, f"{label}: every metric emitted (missing: {missing})", failures)
    units = [m["name"] for m in wanted if m["name"] in result["metrics"]
             and result["metrics"][m["name"]]["unit"] != m["unit"]]
    expect(not units, f"{label}: units match BENCHMARK.json (wrong: {units})", failures)


def main() -> int:
    failures = []
    names = [w["name"] for w in SPEC["workloads"]]
    with ThreadPoolExecutor(2) as pool:     # two children at a time on 2 cores
        runs = list(pool.map(lambda n: bench(["--workload", n, "--seed", "1", "--trace", "1"]),
                             names))
    for name, (rc, res, err) in zip(names, runs):
        expect(rc == 0 and res is not None and res["correct"],
               f"{name} traced: exit 0, correct ({err.strip()[-300:]})", failures)
        if res is not None:
            check_metrics(res, SPEC["per_layer"], f"{name} traced", failures)

    rc, res, err = bench(["--workload", "layer-extension", "--seed", "2", "--trace", "0"])
    expect(rc == 0 and res is not None, "layer-extension untraced: exit 0", failures)
    if res is not None:
        check_metrics(res, SPEC["end_to_end"], "layer-extension untraced", failures)
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               "end-to-end metrics are all positive", failures)

    rc, res, _ = bench(["--workload", "layer-extension", "--seed", "2", "--force-fail"])
    expect(rc != 0, "forced failure: non-zero exit", failures)
    expect(res is not None and not res["correct"] and res["failed"] >= 1
           and res["attempted"] > res["failed"],
           f"forced failure: counted in failed ({res and res['failed']} of "
           f"{res and res['attempted']})", failures)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in HERE.glob("*.py"):
        shutil.copy(p, bare / "bench")
    rc, res, _ = bench(["--workload", "layer-extension", "--seed", "1"], cwd=bare)
    expect(rc != 0 and res is None, "without the sources: non-zero exit, no result", failures)
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
