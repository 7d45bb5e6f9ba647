"""Run every workload, untraced and traced, and print one summary table.

    python3 perfbench/trajectory.py --seed 0 --seconds 30 --write perfbench/trajectory/BENCH_00_seed.json

Each workload is measured by `run.py` exactly as a single benchmark run
would be. With `--write`, the reports are also saved as one point of the
benchmark trajectory: a later change appends its own `BENCH_*.json`
measured the same way, so the numbers line up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    path = os.path.join(run.OUT_DIR, workload, "report.json")
    with open(path) as fh:
        details = json.load(fh)
    details["exit_code"] = proc.returncode
    return details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--write", help="save the reports to this JSON file")
    args = parser.parse_args()

    point = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in run.WORKLOADS:
        untraced = measure(name, args.seed, args.seconds, 0)
        traced = measure(name, args.seed, args.seconds, 1)
        point["environment"] = untraced["environment"]
        point["workloads"][name] = {"untraced": untraced, "traced": traced}

    names = list(run.END_TO_END) + ["failed_frac"]
    print()
    print(f"{'workload':18s}" + "".join(f"{n:>14s}" for n in names))
    print(f"{'':18s}" + "".join(f"{u:>14s}" for u in run.END_TO_END.values())
          + f"{'(attempted)':>14s}")
    ok = True
    for name, runs in point["workloads"].items():
        u = runs["untraced"]
        e2e = u.get("end_to_end", {})
        cells = [f"{e2e[n]:14.5g}" if n in e2e else f"{'-':>14s}" for n in run.END_TO_END]
        cells.append(f"{u['failed_frac']:8.3f} ({u['attempted']})")
        print(f"{name:18s}" + "".join(cells))
        t = runs["traced"]
        print(f"{'':18s}dominant layer {t.get('dominant')}, "
              f"trace.coverage {t.get('per_layer', {}).get('trace.coverage', 0):.4f}, "
              f"trace.overhead_s {t.get('per_layer', {}).get('trace.overhead_s', 0):.4f}")
        ok = ok and u["exit_code"] == 0 and t["exit_code"] == 0 and not u["failed"] \
            and not t["failed"]
    if args.write:
        os.makedirs(os.path.dirname(os.path.abspath(args.write)), exist_ok=True)
        with open(args.write, "w") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
