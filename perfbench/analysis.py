"""Pure functions behind the benchmark: statistics, span arithmetic,
per-layer metrics and the output checks. Nothing here starts a process."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import struct

import numpy as np

# A reported percentile must leave at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# Bound slack the CLI itself uses for "gap <= bound" (diagnostics.BOUND_SLACK).
BOUND_SLACK = 1e-9


def median(values) -> float:
    return float(np.median(values))


def samples_beyond(n: int, p: float) -> float:
    """How many of n samples lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def tail_percentile(values, p: float) -> float:
    """The p-th percentile, refused when fewer than MIN_TAIL_SAMPLES
    samples lie beyond it."""
    if samples_beyond(len(values), p) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} of {len(values)} samples leaves fewer than "
            f"{MIN_TAIL_SAMPLES} beyond it"
        )
    return float(np.percentile(values, p))


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans):
    kids = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    return kids


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    kids = children_of(spans)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = union_length([(spans[k][1], spans[k][2]) for k in kids[i]],
                               start, end)
        out.append((end - start) - covered)
    return out


def has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


class SpanTable:
    """Calls, inclusive and self time per span name."""

    def __init__(self, spans):
        self.calls, self.incl, self.own = {}, {}, {}
        for i, ((name, start, end, _), own) in enumerate(zip(spans, self_times(spans))):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.own[name] = self.own.get(name, 0.0) + own
            if not has_ancestor(spans, i, name):
                self.incl[name] = self.incl.get(name, 0.0) + (end - start)

    def n(self, *names) -> int:
        return sum(self.calls.get(x, 0) for x in names)

    def s(self, *names) -> float:
        return sum(self.incl.get(x, 0.0) for x in names)

    def self_s_of(self, *names) -> float:
        return sum(self.own.get(x, 0.0) for x in names)


def layer_metrics(spans, counts, t_main: float, t_end: float) -> dict:
    """Every per-layer metric of one traced run, by its published name."""
    t = SpanTable(spans)
    dense = [i for i, sp in enumerate(spans)
             if sp[0] == "numpy.linalg.solve" and has_ancestor(spans, i, "model.f_prox")]
    top = [(sp[1], sp[2]) for sp in spans if sp[3] < 0]
    m = {
        "linops.A.apply.calls": t.n("linops.A.apply"),
        "linops.A.apply.s": t.s("linops.A.apply"),
        "linops.A.adjoint.calls": t.n("linops.A.adjoint"),
        "linops.A.adjoint.s": t.s("linops.A.adjoint"),
        "linops.conv.calls": t.n("linops.conv.apply", "linops.conv.adjoint"),
        "linops.conv.s": t.s("linops.conv.apply", "linops.conv.adjoint"),
        "linops.fft.calls": counts.get("fft.calls", 0),
        "linops.fft.points": counts.get("fft.points", 0),
        "bench.dense_solve.calls": len(dense),
        "bench.dense_solve.s": sum(spans[i][2] - spans[i][1] for i in dense),
        "bench.instances.s": t.s("bench.instances"),
        "solver.iters": t.n("solver.step"),
        "solver.self_s": t.self_s_of("solver.run", "solver.step", "solver.init"),
        "solver.schedule.calls": t.n("solver.schedule"),
        "solver.schedule.s": t.s("solver.schedule"),
        "solver.consts.calls": t.n("solver.consts"),
        "diagnostics.csv.bytes": counts.get("diagnostics.csv.bytes", 0),
        "diagnostics.csv.s": t.s("diagnostics.csv"),
        "imaging.scene.s": t.s("imaging.scene"),
        "imaging.build.s": t.s("imaging.build"),
        "imaging.io.bytes": counts.get("imaging.io.bytes", 0),
        "imaging.io.s": t.s("imaging.io"),
        "trace.coverage": union_length(top, t_main, t_end) / (t_end - t_main),
    }
    for layer in ("prox.ball2", "prox.box", "prox.quadratic",
                  "model.f_grad", "model.f_prox", "model.f_value",
                  "model.g_prox", "model.g_value",
                  "diagnostics.observer", "diagnostics.gap", "diagnostics.bound"):
        m[f"{layer}.calls"] = t.n(layer)
        m[f"{layer}.s"] = t.s(layer)
    return m


# Descend into a child layer only when it holds at least this share of
# its parent's time; otherwise the parent is the dominant layer.
DOMINANT_SHARE = 0.8


def dominant_layer(spans) -> str:
    """The layer holding most of the time under the solver's steps.

    Starting from the calls each `solver.step` makes (apply and adjoint of
    the coupling operator taken together as `linops.A.*`), take the
    largest; while one of its own children holds DOMINANT_SHARE of it,
    move down to that child.
    """
    kids = children_of(spans)

    def group(i):
        name = spans[i][0]
        if name.startswith("linops.A."):
            return "linops.A.*"
        if name == "numpy.linalg.solve" and has_ancestor(spans, i, "model.f_prox"):
            return "bench.dense_solve"
        return name

    level = [i for i, sp in enumerate(spans) if sp[0] == "solver.step"]
    label = None
    while level:
        totals = {}
        for i in level:
            for k in kids[i]:
                g = group(k)
                totals[g] = totals.get(g, 0.0) + spans[k][2] - spans[k][1]
        if not totals:
            break
        best = max(totals, key=totals.get)
        level_total = sum(spans[i][2] - spans[i][1] for i in level)
        if label is not None and totals[best] < DOMINANT_SHARE * level_total:
            break
        label = best
        level = [k for i in level for k in kids[i] if group(k) == best]
    return label or "none"


# ---------------------------------------------------------------- outputs


def read_dpdf(path):
    """The m-by-n image of a DPDF file, as a matrix."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"DPDF" or len(blob) < 12:
        raise ValueError(f"{path} is not a DPDF file")
    m, n = struct.unpack("<II", blob[4:12])
    if len(blob) != 12 + 8 * m * n:
        raise ValueError(f"{path} has a truncated payload")
    return np.frombuffer(blob[12:], dtype="<f8").reshape((m, n), order="F")


def block_means(image, grid: int) -> list:
    """Means of a grid-by-grid tiling of the image, row-block by row-block."""
    m, n = image.shape
    if m % grid or n % grid:
        raise ValueError(f"{m}x{n} image does not tile into {grid}x{grid} blocks")
    blocks = image.reshape(grid, m // grid, grid, n // grid).mean(axis=(1, 3))
    return blocks.ravel().tolist()


FINGERPRINT_PATTERNS = 4
# The CLI prints the final SNR with four decimals.
SNR_PRINT_TOL = 1.5e-4


def fingerprint(image) -> list:
    """Pixel sum, sum of squares and sums against fixed random sign
    patterns: a few numbers that move with any pixel of the image."""
    x = image.ravel(order="F")
    out = [float(x.sum()), float(x @ x)]
    for k in range(FINGERPRINT_PATTERNS):
        signs = np.random.default_rng(k).integers(0, 2, x.size) * 2.0 - 1.0
        out.append(float(signs @ x))
    return out


def image_problems(ref: dict, seed: int, snr_db: float, image) -> list:
    """How a recovered image misses its reference.

    A seed recorded in `ref["seeds"]` must reproduce its printed SNR and
    its image fingerprint to `ref["rel_tol"]` times the pixel sum. Any
    other seed must land within the cross-seed tolerances of the first
    seed's SNR and block means.
    """
    expected = ref["seeds"].get(str(seed))
    if expected is not None:
        problems = []
        if abs(snr_db - expected["snr_db"]) > SNR_PRINT_TOL:
            problems.append(f"final snr_db {snr_db} differs from {expected['snr_db']}")
        tol = ref["rel_tol"] * abs(expected["image"][0])
        problems += [f"image fingerprint[{i}] {a!r} differs from {b!r}"
                     for i, (a, b) in enumerate(zip(fingerprint(image),
                                                    expected["image"]))
                     if abs(a - b) > tol]
        return problems
    problems = []
    if abs(snr_db - ref["snr_db"]) > ref["snr_tol_db"]:
        problems.append(f"final snr_db {snr_db} is not within {ref['snr_tol_db']} "
                        f"of {ref['snr_db']}")
    worst = max(abs(a - b) for a, b in zip(block_means(image, ref["grid"]),
                                            ref["block_means"]))
    if worst > ref["block_tol"]:
        problems.append(f"block means differ by {worst:.3g} > {ref['block_tol']}")
    return problems


def history_without_timing(path) -> bytes:
    """A history CSV's bytes with the wall_ms column removed."""
    with open(path, newline="") as fh:
        text = fh.read()
    out, drop = io.StringIO(), None
    for line in text.splitlines():
        if line.startswith("#"):
            out.write(line + "\n")
            continue
        cells = next(csv.reader([line]))
        if drop is None and "wall_ms" in cells:
            drop = cells.index("wall_ms")
        if drop is not None:
            del cells[drop]
        out.write(",".join(cells) + "\n")
    return out.getvalue().encode()


def outputs_digest(out_dir: str) -> str:
    """SHA-256 over every file a run wrote, history CSVs without timing."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            blob = history_without_timing(path)
        else:
            with open(path, "rb") as fh:
                blob = fh.read()
        h.update(name.encode() + b"\0" + hashlib.sha256(blob).digest())
    return h.hexdigest()


def check_bound_histories(out_dir: str, tags, iters: int, horizon_tags=()):
    """Problems with the synth-bench histories: every iteration recorded
    with a gap, a bound on every row (only the last for horizon-tuned
    regimes), and gap <= bound + BOUND_SLACK wherever a bound exists."""
    problems = []
    for tag in tags:
        path = os.path.join(out_dir, f"{tag}.csv")
        try:
            with open(path, newline="") as fh:
                rows = [r for r in csv.DictReader(
                    ln for ln in fh if not ln.startswith("#"))]
        except OSError as exc:
            problems.append(f"{tag}: {exc}")
            continue
        if [int(r["t"]) for r in rows] != list(range(1, iters + 1)):
            problems.append(f"{tag}: expected iterations 1..{iters}")
            continue
        for r in rows:
            t = int(r["t"])
            want_bound = tag not in horizon_tags or t == iters
            if r["gap"] == "" or (want_bound and r["bound"] == ""):
                problems.append(f"{tag}: missing gap or bound at t={t}")
                break
            if r["bound"] != "" and float(r["gap"]) > float(r["bound"]) + BOUND_SLACK:
                problems.append(f"{tag}: gap exceeds bound at t={t}")
                break
    return problems
