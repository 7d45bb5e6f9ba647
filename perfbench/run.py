"""End-to-end benchmark of the dpdsolve CLI, with an optional traced run.

    python3 perfbench/run.py --workload gauss-ldpd-512 --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Each measured run is a fresh
single-threaded child process (BLAS pinned to one thread in the child's
environment) that executes `dpdsolve.cli.main` once, and children run
one at a time: a closed loop with one client, because this is a batch
solver. An untraced run first starts SETUP_CHILDREN children that stop
when the first solver run starts, so that `setup_s` is a median over
several set-ups; then full children are started until `--seconds` is
used up, at least two per run. Every child's outputs are checked (see
`check_child`); a child that fails a check is counted in `failed` and
never retried.

With `--trace 0` the last line carries the end-to-end metrics named in
BENCHMARK.json, medians over the children (iteration times pooled over
them); `iter_ms_p90`, a tail percentile of the pooled intervals, is
printed above it with the others but is not one of those metrics,
because on a shared host it mostly measures the host's slow spells.
With `--trace 1` untraced and traced children alternate and the last
line carries the per-layer metrics of the traced ones; the full
per-layer table, which also has the layers a workload never calls, is
printed above it.

The seed goes to the program only as the CLI's `--seed`: the noise for
the imaging workloads, the dense instance for synth-dense-400.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
MIN_CHILDREN = 2
SETUP_CHILDREN = 4
# A run ends within 180 s: no child starts after LAUNCH_DEADLINE_S, and a
# child still running at RUN_DEADLINE_S is stopped and counted as failed.
LAUNCH_DEADLINE_S = 100.0
RUN_DEADLINE_S = 165.0
RATES_TIMEOUT_S = 30.0
OUT_DIR = ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def image_bytes(pixels: int, real: int, complex_: int) -> int:
    """Bytes of `real` float64 and `complex_` complex128 image-sized arrays."""
    return pixels * (8 * real + 16 * complex_)


@dataclass(frozen=True)
class Workload:
    """One CLI command at a fixed size.

    `working_set_bytes` counts the arrays one iteration reads or writes:
    the solver state, the problem data and the largest per-call
    temporaries, as listed next to each workload.
    """

    name: str
    cli: tuple
    kind: str  # "imaging" or "synth"
    iters: int
    working_set_bytes: int


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # ldpd state 3 primal + 5 dual (2 images each) + data; spectrum and the
    # gradient's two complex transforms.
    Workload("gauss-ldpd-512", ("deblur-gauss", "--size", "512"), "imaging", 200,
             image_bytes(512 * 512, 3 + 5 * 2 + 1, 1 + 2)),
    # edpd state 2 primal + 4 dual (2 images each) + data; spectrum and the
    # exact prox's three complex transforms.
    Workload("gauss-edpd-256", ("deblur-gauss", "--size", "256", "--solver", "edpd"),
             "imaging", 200, image_bytes(256 * 256, 2 + 4 * 2 + 1, 1 + 3)),
    # edpd state 2 primal + 4 dual (3 images each) + tilt + the stacked
    # operator's output; spectrum and one complex transform.
    Workload("sp-edpd-256", ("deblur-sp", "--size", "256"), "imaging", 150,
             image_bytes(256 * 256, 2 + 4 * 3 + 1 + 3, 1 + 1)),
    # A (300x400) plus C, H and the system matrix the dense prox rebuilds
    # on every call (400x400 each).
    Workload("synth-dense-400", ("synth-bench", "--dims", "400,300"), "synth", 500,
             8 * (300 * 400 + 3 * 400 * 400)),
)}

SYNTH_TAGS = (
    "ldpd-weakly-convex", "ldpd-strongly-convex-dual",
    "ldpd-strongly-convex-primal", "ldpd-single-step",
    "edpd-strongly-convex-primal", "edpd-strongly-convex-dual",
    "edpd-weakly-convex",
)

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s",
    "iter_ms_p50": "ms", "iter_ms_p90": "ms", "peak_rss_mb": "MB",
}


def load_benchmark_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPD_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Child:
    index: int
    traced: bool
    out_dir: str
    rc: int = -1
    stdout: str = ""
    stderr: str = ""
    record: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digest: str = ""
    setup_only: bool = False


def run_child(root: str, w: Workload, seed: int, index: int, traced: bool,
              run_dir: str, timeout: float, setup_only: bool = False) -> Child:
    out_dir = os.path.join(run_dir, f"child{index}")
    os.makedirs(out_dir)
    record_path = os.path.join(run_dir, f"child{index}.json")
    mode = "setup" if setup_only else "1" if traced else "0"
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           os.path.join(root, "src"), record_path, mode, "--",
           *w.cli, "--seed", str(seed), "--out-dir", out_dir]
    child = Child(index, traced, out_dir, setup_only=setup_only)
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
        child.rc, child.stdout, child.stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        child.problems.append(f"stopped after {timeout:.0f} s")
        return child
    if os.path.exists(record_path):
        with open(record_path) as fh:
            child.record = json.load(fh)
        os.remove(record_path)
    return child


def check_child(w: Workload, child: Child, seed: int, reference: dict,
                root: str) -> list:
    """Reasons the child's run is wrong; empty when it passes.

    Every workload must exit 0 and leave its timing record; a
    set-up-only child has nothing else to check. Imaging
    workloads must match the reference final SNR and recovered image
    (see `analysis.image_problems`). synth-dense-400 must keep
    gap <= bound at every iteration of every regime and pass
    `rates --from-dir` on its own histories.
    """
    problems = list(child.problems)
    if child.rc != 0:
        problems.append(f"exit code {child.rc}: {child.stderr.strip()[-300:]}")
        return problems
    if not child.record.get("runs"):
        problems.append("no timing record")
        return problems
    if child.setup_only:
        return problems
    if w.kind == "imaging":
        found = re.search(r"final snr_db: (\S+)", child.stdout)
        try:
            image = analysis.read_dpdf(os.path.join(child.out_dir, "recovered.dpdf"))
        except (OSError, ValueError) as exc:
            problems.append(f"recovered.dpdf: {exc}")
        else:
            if found is None:
                problems.append("no final snr_db line")
            else:
                problems += analysis.image_problems(reference[w.name], seed,
                                                    float(found.group(1)), image)
    else:
        problems += analysis.check_bound_histories(
            child.out_dir, SYNTH_TAGS, w.iters, horizon_tags=("ldpd-weakly-convex",))
        try:
            rates = subprocess.run(
                [sys.executable, "-m", "dpdsolve.cli", "rates", "--from-dir",
                 child.out_dir],
                cwd=root, env=dict(child_env(), PYTHONPATH=os.path.join(root, "src")),
                capture_output=True, text=True, timeout=RATES_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"rates --from-dir ran over {RATES_TIMEOUT_S:g} s")
        else:
            if rates.returncode != 0:
                problems.append(f"rates --from-dir exit code {rates.returncode}")
    return problems


def child_timings(record: dict) -> dict:
    """End-to-end timings of one child, and its per-iteration intervals."""
    runs = record["runs"]
    intervals = []
    for (start, _), calls in zip(runs, record["observer_calls"]):
        prev = start
        for t in calls:
            intervals.append((t - prev) * 1e3)
            prev = t
    return {
        "wall_s": record["t_end"] - record["t_main"],
        "setup_s": runs[0][0] - record["t_start"],
        "solve_s": sum(end - start for start, end in runs),
        "peak_rss_mb": record["maxrss_kib"] * 1024 / 1e6,
        "iter_ms": intervals,
    }


def end_to_end_metrics(timings: list, setups: list) -> dict:
    """Medians over the full children, iteration percentiles over their
    pooled intervals; `setup_s` also over the set-up-only children's
    `setups`."""
    values = {name: analysis.median([t[name] for t in timings])
              for name in ("wall_s", "solve_s", "peak_rss_mb")}
    values["setup_s"] = analysis.median([t["setup_s"] for t in timings] + setups)
    pooled = [x for t in timings for x in t["iter_ms"]]
    values["iter_ms_p50"] = analysis.median(pooled)
    values["iter_ms_p90"] = analysis.tail_percentile(pooled, 90.0)
    return values


def traced_metrics(traced: list, untraced_timings: list) -> dict:
    """Per-layer medians over the traced children, plus the overhead."""
    per_child = []
    for child in traced:
        rec = child.record
        per_child.append(analysis.layer_metrics(rec["spans"], rec["counts"],
                                                rec["t_main"], rec["t_end"]))
    out = {k: analysis.median([m[k] for m in per_child]) for k in per_child[0]}
    traced_solve = analysis.median([child_timings(c.record)["solve_s"] for c in traced])
    untraced_solve = analysis.median([t["solve_s"] for t in untraced_timings])
    out["trace.overhead_s"] = traced_solve - untraced_solve
    return out


def run_workload(root: str, w: Workload, seed: int, seconds: float, trace: bool):
    """Run and check children until `seconds` is used up; return them."""
    reference = load_reference()
    compileall.compile_dir(os.path.join(root, "src", "dpdsolve"), quiet=1)
    run_dir = os.path.join(root, OUT_DIR, w.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    children, durations = [], []
    t0 = time.perf_counter()
    for _ in range(0 if trace else SETUP_CHILDREN):
        child = run_child(root, w, seed, len(children), False, run_dir,
                          timeout=RUN_DEADLINE_S - (time.perf_counter() - t0),
                          setup_only=True)
        child.problems = check_child(w, child, seed, reference, root)
        shutil.rmtree(child.out_dir, ignore_errors=True)
        children.append(child)
    while True:
        elapsed = time.perf_counter() - t0
        if len(durations) >= MIN_CHILDREN and (
                elapsed + analysis.median(durations) > seconds
                or elapsed > LAUNCH_DEADLINE_S):
            break
        traced = trace and len(children) % 2 == 1
        child = run_child(root, w, seed, len(children), traced, run_dir,
                          timeout=RUN_DEADLINE_S - elapsed)
        durations.append(time.perf_counter() - t0 - elapsed)
        child.problems = check_child(w, child, seed, reference, root)
        if not child.problems:
            child.digest = analysis.outputs_digest(child.out_dir)
        shutil.rmtree(child.out_dir, ignore_errors=True)
        children.append(child)

    # Every child ran the same inputs, so every output must be identical.
    digests = [c.digest for c in children if c.digest]
    for c in children:
        if c.digest and c.digest != digests[0]:
            c.problems.append("outputs differ from the run's first child")
    return children, time.perf_counter() - t0


def report(w: Workload, seed: int, children: list, elapsed: float, trace: bool,
           env: dict, spec: dict):
    """Report lines, the result object (None without a passing child) and
    the details kept in report.json."""
    failed = [c for c in children if c.problems]
    ok = [c for c in children if not c.problems]
    untraced = [child_timings(c.record) for c in ok
                if not c.traced and not c.setup_only]
    traced = [c for c in ok if c.traced]
    setups = [child_timings(c.record)["setup_s"] for c in ok if c.setup_only]
    details = {"workload": w.name, "cli": list(w.cli), "seed": seed,
               "environment": env, "working_set_bytes": w.working_set_bytes,
               "attempted": len(children), "failed": len(failed),
               "failed_frac": len(failed) / len(children),
               "problems": {c.index: c.problems for c in failed}}
    lines = [
        f"workload {w.name}: dpdsolve {' '.join(w.cli)} --seed {seed}",
        "why: " + next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
        "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        f"working set: {details['working_set_bytes']} bytes",
        f"children: {len(children)} attempted, {len(failed)} failed, "
        f"failed_frac {details['failed_frac']:.3f}, {elapsed:.1f} s",
    ]
    lines += [f"  child {c.index} FAILED: {'; '.join(c.problems)}" for c in failed]
    if not untraced or (trace and not traced):
        return lines, None, details

    e2e = end_to_end_metrics(untraced, setups)
    iters = len(untraced[0]["iter_ms"])
    details["end_to_end"] = e2e
    details["samples"] = {"children": len(untraced), "iterations": iters,
                          "set_ups": len(untraced) + len(setups)}
    details["children"] = [{k: v for k, v in t.items() if k != "iter_ms"}
                           for t in untraced]
    details["setup_only_s"] = setups
    for name, unit in END_TO_END.items():
        pooled = f"{iters} iterations x {len(untraced)} children"
        n = {"iter_ms_p50": pooled, "iter_ms_p90": pooled,
             "setup_s": len(untraced) + len(setups)}.get(name, len(untraced))
        lines.append(f"  {name:14s} {e2e[name]:12.6g} {unit:3s} (n={n})")
    values, wanted = e2e, spec["end_to_end"]
    if trace:
        values = traced_metrics(traced, untraced)
        wanted = spec["per_layer"]
        details["per_layer"] = values
        details["dominant"] = analysis.dominant_layer(traced[0].record["spans"])
        lines.append(f"traced children: {len(traced)}; dominant layer under the "
                     f"solver: {details['dominant']}")
        lines += [f"  {name:28s} {value:14.6g}" for name, value in values.items()]
    result = {"correct": not failed, "attempted": len(children),
              "failed": len(failed),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    return lines, result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpdsolve", "cli.py")):
        print("error: run from the root of a dpdsolve checkout (no src/dpdsolve)",
              file=sys.stderr)
        return 2
    spec = load_benchmark_spec(root)
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    children, elapsed = run_workload(root, w, args.seed, args.seconds, trace)
    lines, result, details = report(w, args.seed, children, elapsed, trace,
                                    environment(), spec)
    with open(os.path.join(root, OUT_DIR, w.name, "report.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    print("\n".join(lines))
    if result is None:
        print("error: no child passed its checks; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
