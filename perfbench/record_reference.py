"""Record the imaging workloads' reference outputs into reference.json.

    python3 perfbench/record_reference.py --seeds 0-20

For every seed the reference keeps the printed final SNR and a
fingerprint of the recovered image (`analysis.fingerprint`), which later
runs of that seed must reproduce to REL_TOL. For seeds outside the range
the first seed's SNR and block means serve instead, within TOL_FACTOR
times the largest move that the other recorded seeds make away from
them. Run it from the root of a checkout, on the commit whose outputs
are the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys

import analysis
import run

GRID = 16
TOL_FACTOR = 4.0
# Relative to the pixel sum; far above the 1e-15 noise that reordering
# floating-point work leaves after the fixed iteration counts.
REL_TOL = 1e-9


def measure(root: str, w, seed: int, run_dir: str):
    child = run.run_child(root, w, seed, seed, False, run_dir, timeout=run.RUN_DEADLINE_S)
    if child.rc != 0:
        raise SystemExit(f"{w.name} seed {seed}: exit code {child.rc}\n{child.stderr}")
    snr = float(re.search(r"final snr_db: (\S+)", child.stdout).group(1))
    image = analysis.read_dpdf(os.path.join(child.out_dir, "recovered.dpdf"))
    shutil.rmtree(child.out_dir)
    return snr, image


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20", help="FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    root = os.getcwd()
    run_dir = os.path.join(root, run.OUT_DIR, "reference")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    reference = {"first_seed": first, "tol_factor": TOL_FACTOR}
    for w in run.WORKLOADS.values():
        if w.kind != "imaging":
            continue
        seeds = {}
        for seed in range(first, last + 1):
            snr, image = measure(root, w, seed, run_dir)
            seeds[str(seed)] = {"snr_db": snr, "image": analysis.fingerprint(image),
                                "block_means": analysis.block_means(image, GRID)}
        base = seeds[str(first)]
        others = [seeds[str(s)] for s in range(first + 1, last + 1)]
        snr_dev = max(abs(o["snr_db"] - base["snr_db"]) for o in others)
        block_dev = max(abs(a - b) for o in others
                        for a, b in zip(o["block_means"], base["block_means"]))
        print(f"{w.name}: snr {base['snr_db']} dB; largest move over seeds "
              f"{first + 1}-{last}: snr {snr_dev:.3g} dB, block mean {block_dev:.3g}",
              file=sys.stderr)
        reference[w.name] = {
            "snr_db": base["snr_db"],
            "snr_tol_db": float(f"{TOL_FACTOR * snr_dev:.2g}"),
            "grid": GRID,
            "block_tol": float(f"{TOL_FACTOR * block_dev:.2g}"),
            "block_means": base["block_means"],
            "rel_tol": REL_TOL,
            "seeds": {s: {"snr_db": v["snr_db"], "image": v["image"]}
                      for s, v in seeds.items()},
        }
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
