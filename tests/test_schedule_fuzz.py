"""Schedule fuzzing of ldpd's gradient worker.

The worker may run f.grad (and the forming of its point) while the
calling thread runs A.adjoint, A.apply, g.prox, the fused dual step and
the observer (`solver.Workspace`). Here f.grad and the calls of the
calling thread sleep a random 0-200 us before or after each call, drawn
from a seeded stream, so that the two threads interleave differently on
every run. Whatever the interleaving, a threaded `deblur-gauss --size 64`
must write the bytes of an in-line run made in the same process, both
when g.prox, A.apply and A.adjoint are jittered (which replaces them, so
the run takes the generic dual step) and when the fused dual step that
`solver.fused_tv_dual_step` selects is jittered instead. So must a threaded
`synth-bench --dims 20,15` whose `HistoryRecorder.__call__` sleeps as
well, and whose recorder evaluates its gaps mid-run from the `snap.x`
and `snap.y` it holds.
"""

import contextlib
import functools
import io
import random
import threading
import time

import pytest

from dpdsolve import cli, diagnostics, solver

SEEDS = range(5)
ARGV = ["deblur-gauss", "--size", "64"]
SYNTH_ARGV = ["synth-bench", "--dims", "20,15", "--iters", "40"]


def _jittered(fn, rng, threads):
    """fn, sleeping a random 0-200 us before or after each call, and
    noting the calling thread in `threads`."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        threads.add(threading.get_ident())
        before = rng.random() < 0.5
        pause = rng.uniform(0.0, 200e-6)
        if before:
            time.sleep(pause)
        result = fn(*args, **kwargs)
        if not before:
            time.sleep(pause)
        return result

    return call


def _jitter(problem, rng, grad_threads):
    """Jitter the problem's f.grad, g.prox, A.apply and A.adjoint."""
    problem.f.grad = _jittered(problem.f.grad, rng, grad_threads)
    problem.g.prox = _jittered(problem.g.prox, rng, set())
    problem.A.apply = _jittered(problem.A.apply, rng, set())
    problem.A.adjoint = _jittered(problem.A.adjoint, rng, set())


def _jitter_fused(monkeypatch, select, problem, rng, grad_threads, fused_threads):
    """Jitter the problem's f.grad and the fused dual step that `select`,
    the solver's own selector, makes for it."""
    problem.f.grad = _jittered(problem.f.grad, rng, grad_threads)

    def jittered_select(p):
        step = select(p)
        assert step is not None
        return _jittered(step, rng, fused_threads)

    monkeypatch.setattr(solver, "fused_tv_dual_step", jittered_select)


def _run(tmp_path, name, argv=ARGV) -> dict:
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out-dir", str(out)]) == cli.EXIT_OK
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def _assert_jittered_runs_write_the_in_line_bytes(tmp_path, monkeypatch, dual):
    in_line = _run(tmp_path, "in-line")
    build, select = cli.build_gaussian_problem, solver.fused_tv_dual_step
    grad_threads, fused_threads = set(), set()

    def jittered_problem(spec):
        problem = build(spec)
        rng = random.Random(seed)
        if dual == "fused":
            _jitter_fused(monkeypatch, select, problem, rng, grad_threads, fused_threads)
        else:
            _jitter(problem, rng, grad_threads)
        return problem

    monkeypatch.setattr(cli, "build_gaussian_problem", jittered_problem)
    monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    for seed in SEEDS:
        assert _run(tmp_path, f"{dual}-{seed}") == in_line, seed
    # the gradients ran on the worker as well as on the calling thread,
    # and the fused step, when jittered, ran on the calling thread alone
    assert len(grad_threads) >= 2
    assert fused_threads == ({threading.get_ident()} if dual == "fused" else set())


def test_jittered_threaded_runs_write_the_in_line_bytes(tmp_path, monkeypatch):
    _assert_jittered_runs_write_the_in_line_bytes(tmp_path, monkeypatch, "generic")


def test_jittered_threaded_fused_runs_write_the_in_line_bytes(tmp_path, monkeypatch):
    _assert_jittered_runs_write_the_in_line_bytes(tmp_path, monkeypatch, "fused")


def test_jittered_threaded_synth_runs_write_the_in_line_bytes(tmp_path, monkeypatch):
    in_line = _run(tmp_path, "in-line", SYNTH_ARGV)
    rng = random.Random(0)
    grad_threads = set()

    def jittered(build):
        def built(*args, **kwargs):
            instance = build(*args, **kwargs)
            _jitter(instance.problem, rng, grad_threads)
            return instance

        return built

    # the strong instance comes from its public builder, the weak and the
    # capped one from their shared draw
    for name in ("make_quadratic_saddle", "_saddle_instance"):
        monkeypatch.setattr(cli, name, jittered(getattr(cli, name)))
    monkeypatch.setattr(diagnostics.HistoryRecorder, "__call__", _jittered(
        diagnostics.HistoryRecorder.__call__, rng, set()))
    # Four 20 + 15 pairs: the recorder evaluates a batch of gaps every
    # fourth call, while the worker takes the next gradient.
    monkeypatch.setattr(diagnostics, "GAP_BATCH_BYTES", 4 * 35 * 8)
    monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    jittered_run = _run(tmp_path, "jittered", SYNTH_ARGV)
    assert len(jittered_run) == 7 and jittered_run == in_line
    assert len(grad_threads) >= 2
