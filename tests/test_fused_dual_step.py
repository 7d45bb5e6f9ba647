"""The fused TV dual half-step against the generic one, bit for bit.

A run whose A is the package's difference operator and whose g.prox is
`prox_smoothed_tv_dual` takes its dual half-step through
`solver.fused_tv_dual_step`, which forms D x, the TV dual prox, the
extrapolation, the dual aggregate and the next D* yhat in one pass over
blocks of image columns. The same problem with a pass-through g.prox
takes the generic path: `A.apply`, `g.prox`, the extrapolation and the
aggregate as whole-array calls, and `A.adjoint` at the start of the next
step. Every iterate, aggregate and extrapolated point must agree bit for
bit, signed zeros included, for ldpd in line and threaded and for edpd,
on grids whose column count leaves a partial last block, on 1-row and
1-column grids and on a grid of one block; and a point that makes the
dual iterate not finite must raise the same DivergenceError at the same
iteration on both paths. A problem whose operator methods or prox have
been replaced, on the instance or on the operator's class, or whose
operator is a subclass, takes the generic path with the replacement.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest

from dpdsolve import cli, linops, solver
from dpdsolve.edpd import EdpdRegime, run_edpd
from dpdsolve.errors import DivergenceError
from dpdsolve.imaging import GaussianDeblurSpec, build_gaussian_problem
from dpdsolve.ldpd import STRONGLY_CONVEX_DUAL, LdpdRegime, run_ldpd
from dpdsolve.linops import ImageGrid, make_average_kernel, make_difference_operator
from dpdsolve.model import DualProxOracle, PrimalOracle, SaddleProblem
from dpdsolve.prox import prox_smoothed_tv_dual

ITERS = 8


def _pass_through_prox(z, tau, mu_g, out=None):
    return prox_smoothed_tv_dual(z, tau, mu_g, out=out)


def _generic(problem):
    """`problem` with a pass-through g.prox, which takes the generic path
    with the calls of the fused one."""
    generic = dataclasses.replace(problem, g=dataclasses.replace(problem.g,
                                                                 prox=_pass_through_prox))
    assert solver.Workspace(problem).fused_dual is not None
    assert solver.Workspace(generic).fused_dual is None
    return generic


def _gaussian_problem(m, n, mu_g=0.05, seed=0):
    rng = np.random.default_rng(seed)
    kernel = make_average_kernel(3 if min(m, n) >= 3 else 1)
    spec = GaussianDeblurSpec(ImageGrid(m, n, rng.uniform(0.0, 1.0, m * n)), kernel,
                              mu=50.0, mu_g=mu_g)
    return build_gaussian_problem(spec)


def _problems(m, n, mu_g=0.05, seed=0):
    """A Gaussian problem on an m x n grid, which fuses its dual
    half-step, and the same problem on the generic path."""
    fused = _gaussian_problem(m, n, mu_g, seed)
    return fused, _generic(fused)


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


RUNS = {
    "ldpd in line": (run_ldpd, LdpdRegime(STRONGLY_CONVEX_DUAL), False),
    "ldpd threaded": (run_ldpd, LdpdRegime(STRONGLY_CONVEX_DUAL), True),
    "edpd": (run_edpd, EdpdRegime(STRONGLY_CONVEX_DUAL), False),
}


def _trajectory(monkeypatch, name, problem, x1, y1, iters=ITERS, check=None):
    """Every iteration's state arrays and aggregates, and the exception
    the run ends with (None when it completes); `check`, when given, is
    called with each iteration's snapshot."""
    run, regime, threaded = RUNS[name]
    if threaded:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    seen = []

    def observer(snap):
        if check is not None:
            check(snap)
        s = snap.state
        seen.append((snap.t, s.x.copy(), s.y.copy(), s.yhat.copy(),
                     s.agg_num_x.copy(), s.agg_num_y.copy(), snap.x, snap.y))

    try:
        result = run(problem, regime, x1, y1, iters, observer=observer)
    except DivergenceError as exc:
        return seen, (type(exc), str(exc))
    seen.append((result.x, result.y))
    return seen, None


def _assert_same_trajectories(got, want):
    """Two `_trajectory` results agree bit for bit; their common end."""
    (got, got_end), (want, want_end) = got, want
    assert got_end == want_end
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w, strict=True):
            if isinstance(a, np.ndarray):
                _assert_bitwise(a, b)
            else:
                assert a == b
    return got_end


def _assert_same_runs(monkeypatch, name, m, n, x1=None, y1=None, **kwargs):
    fused, generic = _problems(m, n, **kwargs)
    x1 = np.zeros(m * n) if x1 is None else x1
    y1 = np.zeros(2 * m * n) if y1 is None else y1
    return _assert_same_trajectories(_trajectory(monkeypatch, name, fused, x1, y1),
                                     _trajectory(monkeypatch, name, generic, x1, y1))


@pytest.mark.parametrize("name", RUNS)
@pytest.mark.parametrize("m,n,block", [
    (16, 12, linops.BLOCK),  # one block
    (5, 9, 3),               # two columns a block: 9 = 2 + 2 + 2 + 2 + 1
    (7, 1, 2),               # one column
    (1, 11, 1),              # one row, four columns a block: 11 = 4 + 4 + 3
    (1, 1, 1),
])
def test_fused_runs_match_the_generic_runs_bit_for_bit(monkeypatch, name, m, n, block):
    with mock.patch.object(linops, "BLOCK", block):
        assert _assert_same_runs(monkeypatch, name, m, n) is None


def test_a_grid_above_one_default_block_has_a_partial_last_block(monkeypatch):
    # 64 rows make blocks of FUSED_BLOCKS * BLOCK // 64 whole columns; 600
    # columns leave a partial last block at the default block size
    m, n = 64, 600
    width = solver.FUSED_BLOCKS * linops.BLOCK // m
    assert n > width and n % width
    assert _assert_same_runs(monkeypatch, "ldpd threaded", m, n) is None


@pytest.mark.parametrize("name", RUNS)
def test_overflowing_pair_norms_take_the_same_path(monkeypatch, name):
    # pixels of +-1e200 make differences whose squared norms overflow, so
    # the hypot branch of the disk projection runs on both paths
    m, n = 6, 5
    x1 = np.where(np.arange(m * n) % 3 == 0, 1e200, -1e200)
    with mock.patch.object(linops, "BLOCK", 2):
        assert _assert_same_runs(monkeypatch, name, m, n, x1=x1) is None


@pytest.mark.parametrize("name", RUNS)
def test_a_dual_divergence_ends_both_paths_at_the_same_iteration(monkeypatch, name):
    # mu_g = 1e-300 makes the dual step tau about 1e300, so tau D x
    # overflows once the differences of x reach 1e9: the disk projection
    # divides an infinity by an infinite norm and the dual iterate holds
    # a nan
    m, n = 6, 5
    x1 = np.where(np.arange(m * n) % 2 == 0, 1e9, -1e9)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        end = _assert_same_runs(monkeypatch, name, m, n, x1=x1, mu_g=1e-300)
    assert end is not None and end[1].startswith("dual iterate")


def _one_dual_step(problem, x, y, yhat):
    """dual_step on a state at (x, y, yhat), as the second iteration of
    a run; the state, and the coupling term the next step would use."""
    state = solver.init_state(x, y)
    state.yhat[...] = yhat
    state.agg_num_y[...] = np.linspace(-1.0, 1.0, y.size)
    state.t, state.agg_den = 2, 1.0
    work = solver.Workspace(problem)
    try:
        solver.dual_step(state, work, 0.7, 0.4, 0.05, 2.0)
    except DivergenceError as exc:
        return str(exc), None, None
    return None, state, work.coupling(state)


@pytest.mark.parametrize("kind", ["finite", "1e200", "inf", "-inf", "nan"])
def test_one_dual_step_at_extreme_points(kind):
    m, n = 6, 7
    fused, generic = _problems(m, n)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(m * n)
    y = rng.uniform(-1.0, 1.0, 2 * m * n)
    yhat = rng.uniform(-1.0, 1.0, 2 * m * n)
    if kind != "finite":
        x[[4, 17, 30]] = float(kind)
    with mock.patch.object(linops, "BLOCK", 3), np.errstate(invalid="ignore"):
        got = _one_dual_step(fused, x, y, yhat)
        want = _one_dual_step(generic, x, y, yhat)
    assert got[0] == want[0]
    if kind in ("inf", "-inf", "nan"):
        assert got[0] == "dual iterate 2 is not finite"
        return
    for field in ("x", "y", "yhat", "agg_num_x", "agg_num_y"):
        _assert_bitwise(getattr(got[1], field), getattr(want[1], field))
    _assert_bitwise(got[2], want[2])


def _counted(fn, calls):
    def call(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return call


def _halved_prox(z, tau, mu_g, out=None):
    return 0.5 * prox_smoothed_tv_dual(z, tau, mu_g)


def _generic_trajectory(monkeypatch, name, problem, *call_lists):
    """`_trajectory` of `problem` on a 6 x 7 grid from zero, checking
    that the run takes the generic path and that each of `call_lists`
    grows in every iteration."""
    last = [0] * len(call_lists)

    def check(snap):
        assert snap.state.work.fused_dual is None
        now = [len(calls) for calls in call_lists]
        assert all(b > a for a, b in zip(last, now)), (snap.t, last, now)
        last[:] = now

    return _trajectory(monkeypatch, name, problem, np.zeros(42), np.zeros(84), check=check)


@pytest.mark.parametrize("what", ["g.prox", "A.apply", "A.adjoint", "g", "A"])
def test_a_replaced_operator_or_prox_takes_the_generic_path(monkeypatch, what):
    # The fused step stands for D and the TV dual prox as the package
    # defines them. Replacing one of them, on the problem's objects or
    # through dataclasses.replace, makes the run call the replacement in
    # every iteration, and the run equals the generic one with the same
    # replacement.
    runs = []
    for problem in _problems(6, 7):
        calls = []
        if what == "g.prox":
            problem.g.prox = _counted(_halved_prox, calls)
        elif what in ("A.apply", "A.adjoint"):
            name = what[2:]
            setattr(problem.A, name, _counted(getattr(problem.A, name), calls))
        elif what == "g":
            problem = dataclasses.replace(problem, g=dataclasses.replace(
                problem.g, prox=_counted(_halved_prox, calls)))
        else:
            A = linops.DifferenceOperator2D(6, 7)
            A.apply = _counted(A.apply, calls)
            problem = dataclasses.replace(problem, A=A)
        runs.append(_generic_trajectory(monkeypatch, "ldpd in line", problem, calls))
    assert _assert_same_trajectories(*runs) is None


def _hand_built_problem(m, n, seed=1):
    """0.5 ||x - b||^2 against the smoothed TV dual, assembled from the
    public difference operator and TV dual prox, with no builder."""
    b = np.random.default_rng(seed).uniform(0.0, 1.0, m * n)

    def f_grad(x, out=None):
        return np.subtract(x, b, out=out)

    def f_prox(z, step, out=None):
        return np.divide(np.add(z, step * b, out=out), 1.0 + step, out=out)

    f = PrimalOracle(value=lambda x: 0.5 * float((x - b) @ (x - b)), grad=f_grad,
                     prox=f_prox, lipschitz_L_f=1.0, mu_f=1.0)
    g = DualProxOracle(prox=prox_smoothed_tv_dual, value=lambda y: 0.025 * float(y @ y),
                       mu_g=0.05)
    return SaddleProblem(f=f, g=g, A=make_difference_operator(m, n), primal_dim=m * n,
                         dual_dim=2 * m * n)


@pytest.mark.parametrize("name", RUNS)
def test_a_hand_built_tv_problem_fuses_and_matches_the_generic_path(monkeypatch, name):
    m, n = 5, 9
    fused = _hand_built_problem(m, n)
    generic = _generic(fused)
    x1, y1 = np.zeros(m * n), np.zeros(2 * m * n)
    with mock.patch.object(linops, "BLOCK", 3):
        got = _trajectory(monkeypatch, name, fused, x1, y1)
        want = _trajectory(monkeypatch, name, generic, x1, y1)
    assert _assert_same_trajectories(got, want) is None


@pytest.mark.parametrize("name", RUNS)
def test_a_class_patch_made_before_the_build_takes_the_generic_path(monkeypatch, name):
    # A patch of DifferenceOperator2D.apply on the class, made before the
    # problem is built, is called in every iteration, and the run keeps
    # the fused run's bits, as the patch calls the method it replaces.
    want = _trajectory(monkeypatch, name, _gaussian_problem(6, 7), np.zeros(42),
                       np.zeros(84))
    calls = []
    monkeypatch.setattr(linops.DifferenceOperator2D, "apply",
                        _counted(linops.DifferenceOperator2D.apply, calls))
    got = _generic_trajectory(monkeypatch, name, _gaussian_problem(6, 7), calls)
    assert _assert_same_trajectories(got, want) is None


class _CountingDifferences(linops.DifferenceOperator2D):
    def __init__(self, m, n, applies, adjoints):
        super().__init__(m, n)
        self.applies, self.adjoints = applies, adjoints

    def apply(self, x, out=None):
        self.applies.append(1)
        return super().apply(x, out=out)

    def adjoint(self, y, out=None):
        self.adjoints.append(1)
        return super().adjoint(y, out=out)


@pytest.mark.parametrize("name", RUNS)
def test_a_subclass_of_the_difference_operator_takes_the_generic_path(monkeypatch, name):
    # The subclass's own apply and adjoint are each called in every
    # iteration, and the run keeps the fused run's bits.
    fused = _gaussian_problem(6, 7)
    want = _trajectory(monkeypatch, name, fused, np.zeros(42), np.zeros(84))
    applies, adjoints = [], []
    problem = dataclasses.replace(fused, A=_CountingDifferences(6, 7, applies, adjoints))
    got = _generic_trajectory(monkeypatch, name, problem, applies, adjoints)
    assert _assert_same_trajectories(got, want) is None


@pytest.mark.parametrize("solver_name", ["ldpd", "edpd"])
def test_deblur_gauss_runs_take_the_fused_pass(tmp_path, monkeypatch, solver_name):
    # The workspace of a deblur-gauss run selects the fused pass for
    # build_gaussian_problem's problem, under either solver.
    select = solver.fused_tv_dual_step
    selected = []

    def spy(problem):
        step = select(problem)
        selected.append(step is not None)
        return step

    monkeypatch.setattr(solver, "fused_tv_dual_step", spy)
    argv = ["deblur-gauss", "--size", "32", "--iters", "3", "--solver", solver_name,
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert selected == [True]
