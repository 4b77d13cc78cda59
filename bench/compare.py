"""Compare two benchmark results side by side.

    python3 bench/compare.py BEFORE.json AFTER.json

Either file may be one run's record (bench/out/<workload>-seed<n>-trace<t>.json)
or a spread file written by ``bench/spread.py --write``.  Every environment
entry that differs is listed first, since numbers from another machine,
library build or thread setting are not comparable; then each metric on
both sides with the relative change.
"""

import json
import sys


def load(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    if "workloads" in doc:          # spread file: medians over seeds
        values = {(w, m): row["median"]
                  for w, rows in doc["workloads"].items() for m, row in rows.items()}
    else:
        values = {(doc["workload"], m): v["value"] for m, v in doc["metrics"].items()}
    return doc["env"], values


def flat(env: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in env.items():
        if isinstance(v, dict):
            out.update(flat(v, f"{prefix}{k}."))
        else:
            out[prefix + k] = v
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    env_a, val_a = load(argv[1])
    env_b, val_b = load(argv[2])
    fa, fb = flat(env_a), flat(env_b)
    diffs = [k for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]
    print(f"environment: {len(diffs)} difference(s)")
    for k in diffs:
        print(f"  MISMATCH {k}: {fa.get(k)!r} -> {fb.get(k)!r}")
    for key in sorted(set(val_a) | set(val_b)):
        a, b = val_a.get(key), val_b.get(key)
        rel = f"{(b - a) / a:+.2%}" if a and b is not None else "n/a"
        print(f"  {key[0]:13s} {key[1]:55s} {a!s:>22} -> {b!s:<22} {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
