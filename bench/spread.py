"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/spread.py --seeds 10 [--workload lattice-2d ...] [--write FILE]

For each workload this makes one untraced benchmark run per seed
(1..N) and prints, per metric, the median of the run values and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric's bound in BENCHMARK.json must sit well above its spread.
``--write`` stores the values, medians and spreads with the environment.
"""

import argparse
import json
import statistics
import sys

import run


def spread(values) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--write", help="JSON file for the values, medians and spreads")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {"seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    failed = 0
    for w in args.workload or run.WORKLOADS:
        recs = [run.measure(w, seed, args.seconds, False) for seed in out["seeds"]]
        failed += sum(r["failed"] for r in recs)
        out["env"] = recs[0]["env"]
        rows = out["workloads"][w] = {}
        for name in run.END_TO_END:
            vals = [r["metrics"][name]["value"] for r in recs]
            med, spr = spread(vals)
            rows[name] = {"median": med, "spread": spr, "values": vals}
            print(f"{w:13s} {name:12s} median {med:10.4f}  spread {spr:6.2%}  "
                  f"bound {bounds[name]:.0%}  runs {len(vals)}", flush=True)
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
