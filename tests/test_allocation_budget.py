"""Per-iteration allocation budget of the imaging runs, by tracemalloc.

A run owns its iterates and spare buffers, and the operators and
oracles write into them, so after the first iterations have made those
buffers (and each thread's transform scratch) an iteration allocates
nothing image-sized that it frees again. The observer below, a
`HistoryRecorder` with a ground truth, forms the aggregate and its SNR
error in a buffer of its own and allocates nothing image-sized either.
Each iteration's peak above the level it ends at must stay within two
primal-size arrays plus 64 KiB for the block temporaries and small
objects, the budget set when the recorder still allocated the aggregate
and the error afresh. Every 64 x 64 run below exceeds that budget when
the operator and oracle outputs are fresh arrays.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from dpdsolve import solver
from dpdsolve.diagnostics import HistoryRecorder, snr_db
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
                                                         mu_g0=0.03))


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


RUNS = [
    ("ldpd in line", _ldpd, False),
    ("ldpd threaded", _ldpd, True),
    ("gauss edpd", _gauss_edpd, False),
    ("sp edpd", _sp_edpd, False),
]


@pytest.mark.parametrize("name,run,threaded", RUNS)
def test_iterations_allocate_within_the_budget(monkeypatch, name, run, threaded):
    if threaded:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    excess = _excess_per_iteration(run)
    assert sorted(excess) == list(range(1, ITERS + 1))
    over = {t: e for t, e in excess.items() if t > 2 and e > BUDGET}
    assert not over, f"{name}: peak above the iteration's end level {over} > {BUDGET}"


@pytest.mark.parametrize("name,run,threaded", [
    ("ldpd threaded", _ldpd, True),
    ("sp edpd", _sp_edpd, False),
])
def test_a_run_frees_its_buffers_before_it_forms_its_result(monkeypatch, name, run,
                                                            threaded):
    # After the last observer call the run drops its workspace and then
    # forms the two aggregates it returns, so its spare buffers and the
    # aggregates are never held at once and the level does not rise
    # beyond small objects. Nothing refers back to the workspace, so it
    # is gone when the run returns, without a garbage-collector pass.
    if threaded:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    levels, workspaces = [], []

    def build_observer(problem):
        def observer(snap):
            if snap.t == ITERS:
                workspaces.append(weakref.ref(snap.state.work))
                tracemalloc.reset_peak()
                levels.append(tracemalloc.get_traced_memory()[0])

        return observer

    tracemalloc.start()
    try:
        run(make_phantom(SIZE, SIZE), build_observer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - levels[0] <= 4096, name
    assert workspaces[0]() is None, name


@pytest.mark.parametrize("name,run,threaded", RUNS)
def test_the_recorder_writes_the_snr_error_into_a_buffer_of_its_own(
        monkeypatch, name, run, threaded):
    # Each recorder call allocates less than one primal array; its SNR
    # equals snr_db(snap.x, truth) bit for bit; and an observer that
    # keeps snap.x after the recorder has run gets a fresh array each time.
    if threaded:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    clean = make_phantom(SIZE, SIZE)
    peaks, expected, kept, copies, recorders = [], [], [], [], []

    def build_observer(problem):
        recorder = HistoryRecorder(x_true=clean)
        recorders.append(recorder)

        def observer(snap):
            # on a threaded run the worker is taking the next gradient
            # now; let it finish, so that the peak is the recorder's
            pending = snap.state.work._grad_ahead
            if pending is not None:
                pending.result()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            recorder(snap)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            kept.append(snap.x)
            copies.append(snap.x.copy())
            expected.append(snr_db(snap.x, clean))

        return observer

    tracemalloc.start()
    try:
        run(clean, build_observer)
    finally:
        tracemalloc.stop()
    primal_bytes = SIZE * SIZE * 8
    assert len(peaks) == ITERS
    assert max(peaks[1:]) < primal_bytes, (name, peaks)
    got = [rec.snr_db for rec in recorders[0].records]
    assert np.array(got).tobytes() == np.array(expected).tobytes(), name
    assert len({id(x) for x in kept}) == ITERS
    for i, x in enumerate(kept):
        assert np.array_equal(x, copies[i])
        assert not np.shares_memory(x, recorders[0]._error)
        assert not any(np.shares_memory(x, y) for y in kept[i + 1:])
