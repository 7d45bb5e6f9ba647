"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import json
import os
import struct
import subprocess
import sys

import pytest

import analysis
import run


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("solver.run", 0.0, 10.0),
        span("solver.step", 1.0, 4.0, 0),
        span("model.f_grad", 1.5, 3.5, 1),
        span("solver.step", 5.0, 8.0, 0),
    ]
    assert analysis.self_times(spans) == pytest.approx([4.0, 1.0, 2.0, 3.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 12.0, 0)]
    # The children cover [1, 10] of the parent: 9 s, not 4 + 9.
    assert analysis.self_times(spans)[0] == pytest.approx(1.0)


def test_inclusive_time_does_not_double_count_recursion():
    spans = [span("f", 0.0, 4.0), span("f", 1.0, 2.0, 0), span("g", 5.0, 6.0)]
    table = analysis.SpanTable(spans)
    assert table.n("f") == 2
    assert table.s("f") == pytest.approx(4.0)
    assert table.s("f", "g") == pytest.approx(5.0)


def test_layer_metrics_from_hand_built_trace():
    spans = [
        span("bench.instances", 0.0, 1.0),
        span("numpy.linalg.solve", 0.2, 0.4, 0),
        span("solver.run", 1.0, 9.0),
        span("solver.step", 1.0, 5.0, 2),
        span("model.f_prox", 1.5, 4.5, 3),
        span("numpy.linalg.solve", 2.0, 4.0, 4),
        span("diagnostics.observer", 5.0, 6.0, 2),
        span("diagnostics.csv", 9.5, 10.0),
    ]
    m = analysis.layer_metrics(spans, {"fft.calls": 0}, 0.0, 10.0)
    assert m["bench.dense_solve.calls"] == 1
    assert m["bench.dense_solve.s"] == pytest.approx(2.0)
    assert m["bench.instances.s"] == pytest.approx(1.0)
    # run self 8 - 4 - 1 = 3, step self 4 - 3 = 1.
    assert m["solver.self_s"] == pytest.approx(4.0)
    assert m["solver.iters"] == 1
    assert m["model.f_prox.s"] == pytest.approx(3.0)
    assert m["trace.coverage"] == pytest.approx(9.5 / 10.0)


def test_dominant_layer_descends_into_a_child_holding_most_time():
    spans = [
        span("solver.step", 0.0, 10.0),
        span("model.f_prox", 0.0, 7.0, 0),
        span("numpy.linalg.solve", 0.5, 6.5, 1),
        span("linops.A.apply", 7.0, 8.5, 0),
        span("linops.A.adjoint", 8.5, 10.0, 0),
    ]
    assert analysis.dominant_layer(spans) == "bench.dense_solve"
    spans[2] = span("numpy.linalg.solve", 0.5, 3.0, 1)
    assert analysis.dominant_layer(spans) == "model.f_prox"
    spans[1] = span("model.f_prox", 0.0, 2.0, 0)
    spans[2] = span("numpy.linalg.solve", 0.5, 1.0, 1)
    spans[3] = span("linops.A.apply", 2.0, 6.0, 0)
    spans[4] = span("linops.A.adjoint", 6.0, 10.0, 0)
    assert analysis.dominant_layer(spans) == "linops.A.*"


def test_percentile_needs_ten_samples_beyond_it():
    assert analysis.samples_beyond(150, 90.0) == pytest.approx(15.0)
    assert analysis.tail_percentile(list(range(100)), 90.0) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        analysis.tail_percentile(list(range(99)), 90.0)
    with pytest.raises(ValueError):
        analysis.tail_percentile(list(range(150)), 99.0)
    # The shortest workload run (150 iterations) supports p90.
    assert min(w.iters for w in run.WORKLOADS.values()) >= 100


def test_end_to_end_pools_iterations_and_counts_set_up_only_children():
    fast = [10.0 + 0.01 * i for i in range(200)]
    slow = [3 * x for x in fast]
    timing = {"wall_s": 2.0, "setup_s": 0.1, "solve_s": 2.0, "peak_rss_mb": 50.0}
    timings = [dict(timing, iter_ms=fast), dict(timing, iter_ms=slow)]
    e2e = run.end_to_end_metrics(timings, setups=[0.3, 0.3, 0.3])
    assert e2e["iter_ms_p50"] == pytest.approx(analysis.median(fast + slow))
    assert e2e["iter_ms_p90"] == pytest.approx(analysis.tail_percentile(fast + slow, 90.0))
    assert e2e["setup_s"] == pytest.approx(0.3)
    assert e2e["solve_s"] == pytest.approx(2.0)


def test_setup_only_child_stops_at_the_first_run(tmp_path):
    record_path = tmp_path / "record.json"
    cmd = [sys.executable, os.path.join(run.HERE, "child.py"),
           os.path.join(run.HERE, os.pardir, "src"), str(record_path), "setup", "--",
           "deblur-gauss", "--size", "32", "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record_path.read_text())
    (start, end), = rec["runs"]
    assert start == end and rec["observer_calls"] == [[]]
    assert run.child_timings(rec)["setup_s"] > 0


@pytest.mark.parametrize("solver", ["ldpd", "edpd"])
def test_traced_child_wraps_the_coupling_operator(tmp_path, solver):
    # A small real run: every step applies A and its adjoint once, even
    # though the operator's class methods are not wrapped themselves.
    iters = 12
    record_path = tmp_path / "record.json"
    cmd = [sys.executable, os.path.join(run.HERE, "child.py"),
           os.path.join(run.HERE, os.pardir, "src"), str(record_path), "1", "--",
           "deblur-gauss", "--size", "32", "--iters", str(iters), "--solver", solver,
           "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record_path.read_text())
    m = analysis.layer_metrics(rec["spans"], rec["counts"], rec["t_main"], rec["t_end"])
    assert m["solver.iters"] == iters
    assert m["linops.A.apply.calls"] == iters
    assert m["linops.A.adjoint.calls"] == iters
    assert m["linops.A.apply.s"] > 0 and m["linops.A.adjoint.s"] > 0


def write_dpdf(path, m, n, data):
    with open(path, "wb") as fh:
        fh.write(b"DPDF" + struct.pack("<II", m, n) + struct.pack(f"<{m * n}d", *data))


def imaging_case(tmp_path, grid=4, m=8, n=8):
    """A fake imaging run whose outputs match a made-up reference."""
    bm, bn = m // grid, n // grid
    means = [0.1 * (i % 7) for i in range(grid * grid)]
    data = [means[(i // bm) * grid + j // bn] for j in range(n) for i in range(m)]
    out = tmp_path / "child0"
    out.mkdir()
    write_dpdf(out / "recovered.dpdf", m, n, data)
    (out / "history.csv").write_text("t,gap,snr_db,wall_ms\n1,,30.0,12.5\n")
    w = run.WORKLOADS["gauss-edpd-256"]
    image = analysis.read_dpdf(out / "recovered.dpdf")
    reference = {w.name: {"snr_db": 30.0, "snr_tol_db": 0.5, "grid": grid,
                          "block_tol": 1e-3, "block_means": means, "rel_tol": 1e-9,
                          "seeds": {"5": {"snr_db": 30.1,
                                          "image": analysis.fingerprint(image)}}}}
    child = run.Child(0, False, str(out), rc=0, stdout="final snr_db: 30.1000\n",
                      record={"runs": [[0.0, 1.0]]})
    return w, child, reference, data


@pytest.mark.parametrize("seed", [5, 6])
def test_gate_accepts_matching_outputs(tmp_path, seed):
    w, child, reference, _ = imaging_case(tmp_path)
    assert run.check_child(w, child, seed, reference, str(tmp_path)) == []


def test_gate_rejects_nonzero_exit(tmp_path):
    w, child, reference, _ = imaging_case(tmp_path)
    child.rc = 4
    problems = run.check_child(w, child, 5, reference, str(tmp_path))
    assert problems and "exit code 4" in problems[0]


def test_gate_rejects_perturbed_dpdf(tmp_path):
    w, child, reference, data = imaging_case(tmp_path)
    before = analysis.outputs_digest(child.out_dir)
    data[0] += 0.05
    write_dpdf(os.path.join(child.out_dir, "recovered.dpdf"), 8, 8, data)
    assert analysis.outputs_digest(child.out_dir) != before
    # Away from the recorded seeds the block means catch it ...
    problems = run.check_child(w, child, 6, reference, str(tmp_path))
    assert any("block means" in p for p in problems)
    # ... and on a recorded seed so does a change far below the block tolerance.
    data[0] += 1e-6 - 0.05
    write_dpdf(os.path.join(child.out_dir, "recovered.dpdf"), 8, 8, data)
    assert run.check_child(w, child, 6, reference, str(tmp_path)) == []
    problems = run.check_child(w, child, 5, reference, str(tmp_path))
    assert any("fingerprint" in p for p in problems)


@pytest.mark.parametrize("seed, snr", [(6, "28.0000"), (5, "30.1002")])
def test_gate_rejects_snr_outside_tolerance(tmp_path, seed, snr):
    w, child, reference, _ = imaging_case(tmp_path)
    child.stdout = f"final snr_db: {snr}\n"
    problems = run.check_child(w, child, seed, reference, str(tmp_path))
    assert any("snr_db" in p for p in problems)


def test_digest_ignores_only_the_timing_column(tmp_path):
    w, child, reference, _ = imaging_case(tmp_path)
    history = os.path.join(child.out_dir, "history.csv")
    before = analysis.outputs_digest(child.out_dir)
    with open(history, "w") as fh:
        fh.write("t,gap,snr_db,wall_ms\n1,,30.0,99.0\n")
    assert analysis.outputs_digest(child.out_dir) == before
    with open(history, "w") as fh:
        fh.write("t,gap,snr_db,wall_ms\n1,,30.00000001,12.5\n")
    assert analysis.outputs_digest(child.out_dir) != before


def test_bound_histories_reject_a_gap_above_its_bound(tmp_path):
    header = "t,gap,bound,snr_db,dist_dual,theta,alpha,tau,eta,wall_ms\n"
    (tmp_path / "ok.csv").write_text(header + "1,0.5,1.0,,,,,,,\n2,0.2,0.5,,,,,,,\n")
    (tmp_path / "bad.csv").write_text(header + "1,0.5,1.0,,,,,,,\n2,0.6,0.5,,,,,,,\n")
    (tmp_path / "horizon.csv").write_text(header + "1,0.5,,,,,,,,\n2,0.2,0.5,,,,,,,\n")
    assert analysis.check_bound_histories(str(tmp_path), ["ok", "horizon"], 2,
                                          horizon_tags=("horizon",)) == []
    problems = analysis.check_bound_histories(str(tmp_path), ["bad"], 2)
    assert problems == ["bad: gap exceeds bound at t=2"]
    assert analysis.check_bound_histories(str(tmp_path), ["ok"], 3)


def test_benchmark_json_names_the_metrics_the_runs_produce():
    with open(os.path.join(run.HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounded = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # iter_ms_p90 is printed but has no bound (see run.py).
    assert bounded == {k: v for k, v in run.END_TO_END.items() if k != "iter_ms_p90"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    produced = set(analysis.layer_metrics([], {}, 0.0, 1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
