"""Per-iteration allocation budget of the imaging runs, by tracemalloc.

A run owns its iterates and spare buffers, and the operators and
oracles write into them, so after the first iterations have made those
buffers (and each thread's transform scratch) an iteration allocates
nothing image-sized that it frees again, except in the observer: the
snapshot's fresh primal aggregate and the recorder's SNR difference.
Each iteration's peak above the level it ends at must therefore stay
within two primal-size arrays plus 64 KiB for the block temporaries and
small objects. Every 64 x 64 run below exceeds that budget when the
operator and oracle outputs are fresh arrays.
"""

import tracemalloc

import numpy as np
import pytest

from dpdsolve import solver
from dpdsolve.diagnostics import HistoryRecorder
from dpdsolve.edpd import EdpdRegime, run_edpd
from dpdsolve.imaging import (
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    add_gaussian_noise,
    add_salt_pepper,
    build_gaussian_problem,
    build_saltpepper_problem,
    continuation_mu_g,
    make_phantom,
)
from dpdsolve.ldpd import LdpdRegime, run_ldpd
from dpdsolve.linops import ImageGrid, make_average_kernel, make_convolution_operator, make_motion_kernel

SIZE = 64
ITERS = 12
BUDGET = 2 * SIZE * SIZE * 8 + 64 * 1024


def _gaussian(clean):
    kernel = make_motion_kernel(9, 30.0)
    blurred = make_convolution_operator(kernel, SIZE, SIZE).apply(clean.data)
    observed = add_gaussian_noise(ImageGrid(SIZE, SIZE, blurred), 3e-3, 0)
    return build_gaussian_problem(GaussianDeblurSpec(observed, kernel, mu=3000.0,
                                                     mu_g=0.01))


def _saltpepper(clean):
    kernel = make_average_kernel(5)
    blurred = make_convolution_operator(kernel, SIZE, SIZE).apply(clean.data)
    observed = add_salt_pepper(ImageGrid(SIZE, SIZE, blurred), 0.2, 0)
    return build_saltpepper_problem(SaltPepperDeblurSpec(observed, kernel, alpha=4.0,
                                                         mu_g0=0.03, halve_every=5))


def _excess_per_iteration(run):
    """Run `run(observer)` under tracemalloc. Entry t of the result is the
    peak between the observer calls of iterations t - 1 and t (the
    recorder's work for t - 1 and step t) above the level at the second
    call."""
    excess = {}
    clean = make_phantom(SIZE, SIZE)

    def build_observer(problem):
        recorder = HistoryRecorder(x_true=clean)

        def observer(snap):
            current, peak = tracemalloc.get_traced_memory()
            excess[snap.t] = peak - current
            tracemalloc.reset_peak()
            recorder(snap)

        return observer

    tracemalloc.start()
    try:
        run(clean, build_observer)
    finally:
        tracemalloc.stop()
    return excess


def _ldpd(clean, build_observer):
    problem = _gaussian(clean)
    run_ldpd(problem, LdpdRegime("strongly-convex-dual"), np.zeros(problem.primal_dim),
             np.zeros(problem.dual_dim), ITERS, build_observer(problem))


def _gauss_edpd(clean, build_observer):
    problem = _gaussian(clean)
    run_edpd(problem, EdpdRegime("strongly-convex-dual"), np.zeros(problem.primal_dim),
             np.zeros(problem.dual_dim), ITERS, build_observer(problem))


def _sp_edpd(clean, build_observer):
    problem = _saltpepper(clean)
    run_edpd(problem, EdpdRegime("strongly-convex-dual"), np.zeros(problem.primal_dim),
             np.zeros(problem.dual_dim), ITERS, build_observer(problem),
             mu_g=lambda t: continuation_mu_g(t, 0.03, 5))


@pytest.mark.parametrize("name,run,threaded", [
    ("ldpd in line", _ldpd, False),
    ("ldpd threaded", _ldpd, True),
    ("gauss edpd", _gauss_edpd, False),
    ("sp edpd", _sp_edpd, False),
])
def test_iterations_allocate_within_the_budget(monkeypatch, name, run, threaded):
    if threaded:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    excess = _excess_per_iteration(run)
    assert sorted(excess) == list(range(1, ITERS + 1))
    over = {t: e for t, e in excess.items() if t > 2 and e > BUDGET}
    assert not over, f"{name}: peak above the iteration's end level {over} > {BUDGET}"
