"""Schedule fuzzing of ldpd's gradient worker.

The worker may run f.grad (and the forming of its point) while the
calling thread runs A.adjoint, A.apply, g.prox and the observer
(`solver.Workspace`). Here each of f.grad, g.prox, A.apply and A.adjoint
sleeps a random 0-200 us before or after its call, drawn from a seeded
stream, so that the two threads interleave differently on every run.
Whatever the interleaving, a threaded `deblur-gauss --size 64` must write
the bytes of an in-line run made in the same process.
"""

import contextlib
import functools
import io
import random
import threading
import time

import pytest

from dpdsolve import cli, solver

SEEDS = range(5)
ARGV = ["deblur-gauss", "--size", "64"]


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


def _run(tmp_path, name) -> dict:
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*ARGV, "--out-dir", str(out)]) == cli.EXIT_OK
    return {f: (out / f).read_bytes() for f in ("recovered.dpdf", "history.csv")}


def test_jittered_threaded_runs_write_the_in_line_bytes(tmp_path, monkeypatch):
    in_line = _run(tmp_path, "in-line")
    build = cli.build_gaussian_problem
    grad_threads = set()

    def jittered_problem(spec):
        problem = build(spec)
        rng = random.Random(seed)
        problem.f.grad = _jittered(problem.f.grad, rng, grad_threads)
        problem.g.prox = _jittered(problem.g.prox, rng, set())
        problem.A.apply = _jittered(problem.A.apply, rng, set())
        problem.A.adjoint = _jittered(problem.A.adjoint, rng, set())
        return problem

    monkeypatch.setattr(cli, "build_gaussian_problem", jittered_problem)
    monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    for seed in SEEDS:
        assert _run(tmp_path, f"seed-{seed}") == in_line, seed
    # the gradients ran on the worker as well as on the calling thread
    assert len(grad_threads) >= 2
