import concurrent.futures
import dataclasses
import sys
import threading

import numpy as np
import pytest
from conftest import explicit_anchor_ldpd

from dpdsolve import edpd, ldpd, solver
from dpdsolve.bench import make_quadratic_saddle
from dpdsolve.errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
)
from dpdsolve.ldpd import (
    SINGLE_STEP,
    STRONGLY_CONVEX_DUAL,
    STRONGLY_CONVEX_PRIMAL,
    WEAKLY_CONVEX,
    LdpdParams,
    LdpdRegime,
    aggregate_closed_form,
    init_ldpd_state,
    ldpd_schedule,
    ldpd_step,
    run_ldpd,
    scp_shift,
)
from dpdsolve.diagnostics import GapReference, HistoryRecorder
from dpdsolve.imaging import GaussianDeblurSpec, build_gaussian_problem, make_phantom
from dpdsolve.linops import MatrixOperator, make_motion_kernel
from dpdsolve.model import (
    DualProxOracle,
    PrimalOracle,
    SaddleProblem,
    SolverConsts,
)


def test_schedule_weakly_convex_first_step():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    p = ldpd_schedule(LdpdRegime(WEAKLY_CONVEX, horizon=100), 1, consts)
    assert p.theta == 1.0
    assert p.alpha == 0.0
    assert p.tau == pytest.approx(0.01, rel=1e-15)
    assert p.eta == pytest.approx(1.0 / 102.0, rel=1e-15)


def test_schedule_strongly_convex_dual_values():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.01, norm_A=1.0)
    regime = LdpdRegime(STRONGLY_CONVEX_DUAL)
    p1 = ldpd_schedule(regime, 1, consts)
    assert p1.tau == pytest.approx(300.0, rel=1e-15)
    assert p1.eta == pytest.approx(1.0 / 302.0, rel=1e-15)
    p10 = ldpd_schedule(regime, 10, consts)
    assert p10.theta == pytest.approx(2.0 / 11.0, rel=1e-15)
    assert p10.alpha == pytest.approx(0.9, rel=1e-15)
    assert p10.tau == pytest.approx(30.0, rel=1e-15)


def test_schedule_strongly_convex_primal_values():
    consts = SolverConsts(L_f=3.0, mu_f=1.0, mu_g=0.0, norm_A=1.0)
    assert scp_shift(consts) == 4
    p = ldpd_schedule(LdpdRegime(STRONGLY_CONVEX_PRIMAL), 1, consts)
    assert p.theta == 1.0
    assert p.alpha == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert p.tau == pytest.approx(1.0, rel=1e-15)
    assert p.eta == pytest.approx(0.25, rel=1e-15)


def test_schedule_single_step_values():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.0, norm_A=2.0)
    p = ldpd_schedule(LdpdRegime(SINGLE_STEP, tau=2.0), 5, consts)
    assert p.theta == 1.0 and p.alpha == 1.0
    assert p.tau == 2.0
    assert p.eta == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_schedule_rejects_bad_inputs():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    with pytest.raises(ConfigurationError):
        ldpd_schedule(LdpdRegime(STRONGLY_CONVEX_DUAL), 1, consts)
    with pytest.raises(ConfigurationError):
        ldpd_schedule(LdpdRegime(STRONGLY_CONVEX_PRIMAL), 1, consts)
    with pytest.raises(ContractViolationError):
        ldpd_schedule(LdpdRegime(WEAKLY_CONVEX, horizon=10), 0, consts)
    with pytest.raises(ConfigurationError):
        LdpdRegime(WEAKLY_CONVEX)
    with pytest.raises(ConfigurationError):
        LdpdRegime(SINGLE_STEP)
    with pytest.raises(ConfigurationError):
        LdpdRegime("made-up")


def _zero_coupling_problem(n_primal=2, n_dual=3):
    # L_f = 0 and A = 0: every eta but the strongly convex primal one
    # divides by 2 L_f + (something) ||A||^2 = 0
    f = PrimalOracle(value=lambda x: 0.0, grad=lambda x: np.zeros_like(x))
    g = DualProxOracle(prox=lambda z, step, mu_g: z / (1.0 + step * mu_g),
                       value=lambda y: 0.5 * float(y @ y), mu_g=1.0)
    return SaddleProblem(f=f, g=g, A=MatrixOperator(np.zeros((n_dual, n_primal))),
                         primal_dim=n_primal, dual_dim=n_dual)


@pytest.mark.parametrize("regime", [
    LdpdRegime(WEAKLY_CONVEX, horizon=5),
    LdpdRegime(STRONGLY_CONVEX_DUAL),
    LdpdRegime(SINGLE_STEP, tau=1.0),
], ids=["weakly-convex", "strongly-convex-dual", "single-step"])
def test_a_zero_L_f_and_a_zero_coupling_are_refused_before_any_iteration(regime):
    # these used to end in a bare ZeroDivisionError
    problem = _zero_coupling_problem()
    consts = SolverConsts.from_problem(problem)
    assert consts.L_f == 0.0 and consts.norm_A == 0.0
    with pytest.raises(ConfigurationError, match="divide by zero at iteration 1"):
        ldpd_schedule(regime, 1, consts)
    seen = []
    with pytest.raises(ConfigurationError, match="divide by zero at iteration 1"):
        run_ldpd(problem, regime, np.ones(2), np.ones(3), 5, observer=seen.append)
    assert seen == []


def test_step_sizes_whose_denominator_underflows_are_refused_before_any_iteration():
    # ||A||^2 underflows to zero although ||A|| does not
    problem = _zero_coupling_problem()
    problem.A.norm_bound = 1e-200
    consts = SolverConsts.from_problem(problem)
    with pytest.raises(ConfigurationError, match="divide by zero at iteration 3"):
        ldpd_schedule(LdpdRegime(SINGLE_STEP, tau=1.0), 3, consts)
    with pytest.raises(ConfigurationError, match="divide by zero at iteration 3"):
        edpd.edpd_schedule(edpd.EdpdRegime(edpd.WEAKLY_CONVEX, tau=1.0), 3, consts)
    seen = []
    with pytest.raises(ConfigurationError, match="divide by zero at iteration 1"):
        run_ldpd(problem, LdpdRegime(SINGLE_STEP, tau=1.0), np.ones(2), np.ones(3), 5,
                 observer=seen.append)
    assert seen == []


def test_weakly_convex_schedule_admissibility_over_horizon():
    for L, nA, N in [(1.0, 1.0, 1000), (5.0, 3.0, 10000)]:
        consts = SolverConsts(L_f=L, mu_f=0.0, mu_g=0.0, norm_A=nA)
        regime = LdpdRegime(WEAKLY_CONVEX, horizon=N)
        prev = None
        for t in range(1, N + 1):
            p = ldpd_schedule(regime, t, consts)
            assert 1.0 / p.eta >= 2.0 * L / (t + 1.0) + nA**2 * p.tau - 1e-9
            if prev is not None:
                assert t * p.tau >= (t - 1) * prev.tau - 1e-12
            prev = p


def test_strongly_convex_dual_schedule_admissibility():
    L, nA, mu_g = 2.0, 1.5, 0.05
    consts = SolverConsts(L_f=L, mu_f=0.0, mu_g=mu_g, norm_A=nA)
    regime = LdpdRegime(STRONGLY_CONVEX_DUAL)
    for t in range(1, 10001):
        p = ldpd_schedule(regime, t, consts)
        p_next = ldpd_schedule(regime, t + 1, consts)
        assert 1.0 / p.eta >= 2.0 * L / (t + 1.0) + nA**2 * p.tau - 1e-9
        assert (t + 1) * p_next.tau >= t * p.tau - 1e-9
        # the dual strong convexity must pay for the shrinking dual step
        lhs = t / p.tau + t * mu_g
        rhs = (t + 1) / p_next.tau
        assert lhs >= rhs - 1e-9 * rhs


def test_strongly_convex_primal_schedule_admissibility():
    for L, mu_f, nA in [(3.0, 1.0, 1.0), (80.0, 1.2, 7.0)]:
        consts = SolverConsts(L_f=L, mu_f=mu_f, mu_g=0.0, norm_A=nA)
        t0 = scp_shift(consts)
        tau = mu_f / (2.0 * nA**2)
        assert 2.0 * tau * nA**2 - mu_f <= 1e-12 * mu_f
        assert t0 >= 2.0 * (L - mu_f) / mu_f - 1e-12
        for t in (1, 2, 10, 1000):
            p = ldpd_schedule(LdpdRegime(STRONGLY_CONVEX_PRIMAL), t, consts)
            assert p.eta == pytest.approx(1.0 / (L + (t + 1) * tau * nA**2))


def _reference_trajectory(problem, regime, x1, y1, iters):
    """Straight-line transcription of the recursion with the dual
    extrapolation done eagerly at the end of each iteration and the
    gradient blend anchored at the t-weighted aggregate."""
    consts = SolverConsts.from_problem(problem)
    x = np.asarray(x1, dtype=float).copy()
    y = np.asarray(y1, dtype=float).copy()
    yhat = y.copy()
    agg_num, agg_den = np.zeros_like(x), 0.0
    states = []
    for t in range(1, iters + 1):
        p = ldpd_schedule(regime, t, consts)
        xhat = x
        if p.theta != 1.0 and agg_den > 0.0:
            xhat = (1.0 - p.theta) * (agg_num / agg_den) + p.theta * x
        x = x - p.eta * (problem.f.grad(xhat) + problem.A.adjoint(yhat))
        # weights t; the theta = 1 schedule never reads the anchor
        agg_num = agg_num + float(t) * x
        agg_den += float(t)
        y_new = problem.g.prox(y + p.tau * problem.A.apply(x), p.tau,
                               consts.mu_g)
        p_next = ldpd_schedule(regime, t + 1, consts)
        yhat = y_new + p_next.alpha * (y_new - y)
        y = y_new
        states.append((x.copy(), y.copy(), yhat.copy()))
    return states


@pytest.mark.parametrize("variant", [STRONGLY_CONVEX_DUAL, SINGLE_STEP])
def test_step_matches_reference_transcription_bitwise(variant):
    inst = make_quadratic_saddle(8, 5, seed=21, mu_g=0.4, lam=1.0)
    if variant == SINGLE_STEP:
        regime = LdpdRegime(SINGLE_STEP, tau=0.25)
    else:
        regime = LdpdRegime(variant)
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal(8)
    y1 = rng.standard_normal(5)
    expected = _reference_trajectory(inst.problem, regime, x1, y1, 5)
    seen = []
    run_ldpd(inst.problem, regime, x1, y1, 5,
             observer=lambda s: seen.append(
                 (s.state.x.copy(), s.state.y.copy(), s.state.yhat.copy())))
    assert len(seen) == len(expected) == 5
    for (x, y, yhat), (ex, ey, eyhat) in zip(seen, expected):
        assert np.array_equal(x, ex)
        assert np.array_equal(y, ey)
        assert np.array_equal(yhat, eyhat)


def test_first_iteration_extrapolation_is_inert():
    # the first gradient step sees the dual start itself, whatever the
    # schedule's alpha says
    problem = make_quadratic_saddle(6, 4, seed=3, mu_g=0.5, lam=1.0).problem
    state = init_ldpd_state(np.zeros(6), np.ones(4))
    np.testing.assert_array_equal(state.yhat, np.ones(4))
    params = LdpdParams(theta=1.0, alpha=0.83, tau=0.1, eta=0.01)
    new = ldpd_step(state, problem, params, 0.83, problem.g.mu_g, 1.0)
    expected = -0.01 * (problem.f.grad(np.zeros(6))
                        + problem.A.adjoint(np.ones(4)))
    np.testing.assert_array_equal(new.x, expected)


def test_step_with_identity_blend_contracts_decoupled_problem():
    # A = 0 and f = 0: the primal never moves and the quadratic dual
    # shrinks by 1/(1+tau) every iteration
    f = PrimalOracle(value=lambda x: 0.0, grad=lambda x: np.zeros_like(x))
    g = DualProxOracle(prox=lambda z, step, mu_g: z / (1.0 + step * mu_g),
                       value=lambda y: 0.5 * float(y @ y), mu_g=1.0)
    problem = SaddleProblem(f=f, g=g, A=MatrixOperator(np.zeros((3, 2))),
                            primal_dim=2, dual_dim=3)
    params = LdpdParams(theta=1.0, alpha=1.0, tau=1.0, eta=0.5)
    state = init_ldpd_state(np.array([1.0, -2.0]), np.array([8.0, -4.0, 2.0]))
    for _ in range(20):
        state = ldpd_step(state, problem, params, params.alpha, 1.0, 1.0)
    np.testing.assert_array_equal(state.x, [1.0, -2.0])
    np.testing.assert_allclose(state.y, np.array([8.0, -4.0, 2.0]) / 2.0**20)


def test_step_reports_divergence_with_iterate_index():
    f = PrimalOracle(value=lambda x: 0.0, grad=lambda x: np.full_like(x, 1e308))
    g = DualProxOracle(prox=lambda z, step, mu_g: z, value=lambda y: 0.0)
    problem = SaddleProblem(f=f, g=g, A=MatrixOperator(np.zeros((2, 2))),
                            primal_dim=2, dual_dim=2)
    state = init_ldpd_state(np.zeros(2), np.zeros(2))
    params = LdpdParams(theta=1.0, alpha=0.0, tau=1.0, eta=1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="iterate 2"):
            ldpd_step(state, problem, params, params.alpha, 0.0, 1.0)


def test_aggregate_closed_form_values():
    xs = [np.array([1.0, 0.0]), np.array([0.0, 3.0])]
    np.testing.assert_array_equal(aggregate_closed_form(xs[:1], [2.0]), xs[0])
    np.testing.assert_allclose(aggregate_closed_form(xs, [1.0, 1.0]), [0.5, 1.5])
    np.testing.assert_allclose(aggregate_closed_form(xs, [1.0, 2.0]),
                               [1.0 / 3.0, 2.0])
    with pytest.raises(ContractViolationError):
        aggregate_closed_form(xs, [1.0])
    with pytest.raises(ContractViolationError):
        aggregate_closed_form(xs, [1.0, 0.0])
    with pytest.raises(ContractViolationError):
        aggregate_closed_form([], [])


@pytest.mark.parametrize("variant", [WEAKLY_CONVEX, STRONGLY_CONVEX_DUAL])
def test_blended_averages_match_closed_form_weights(variant):
    inst = make_quadratic_saddle(10, 7, seed=11, mu_g=0.3, lam=1.0)
    iters = 50
    regime = LdpdRegime(variant, horizon=iters) if variant == WEAKLY_CONVEX \
        else LdpdRegime(variant)
    # the paper's blend anchor xbar is the t-weighted average of the
    # primal iterates, so the solver anchors its blend at that aggregate;
    # the dual carries no blend, only its aggregate
    paper = explicit_anchor_ldpd(inst.problem, regime, np.zeros(10),
                                 np.zeros(7), iters)
    seen = []
    run_ldpd(inst.problem, regime, np.zeros(10), np.zeros(7), iters,
             observer=lambda s: seen.append((s.state.x.copy(),
                                             s.state.y.copy(),
                                             s.x.copy(), s.y.copy())))
    assert len(seen) == len(paper) == iters

    def close(got, ref):
        return np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))

    xs = [x for x, _, _, _ in paper]
    ys = [y for _, _, y, _ in paper]
    for k in range(1, iters + 1):
        weights = np.arange(1, k + 1, dtype=float)
        ref_x, ref_xbar, ref_y, _ = paper[k - 1]
        x, y, agg_x, agg_y = seen[k - 1]
        assert close(ref_xbar, aggregate_closed_form(xs[:k], weights))
        assert close(x, ref_x) and close(y, ref_y)
        assert close(agg_x, ref_xbar)
        assert close(agg_y, aggregate_closed_form(ys[:k], weights))


def test_strongly_convex_primal_output_uses_shifted_weights():
    inst = make_quadratic_saddle(9, 6, seed=13, mu_g=0.5, lam=2.0)
    t0 = scp_shift(SolverConsts.from_problem(inst.problem))
    xs = []
    result = run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_PRIMAL),
                      np.zeros(9), np.zeros(6), 30,
                      observer=lambda s: xs.append(s.state.x.copy()))
    weights = np.array([t + t0 + 1 for t in range(1, 31)], dtype=float)
    np.testing.assert_allclose(result.x, aggregate_closed_form(xs, weights),
                               rtol=1e-12)


def test_single_step_output_is_plain_average():
    inst = make_quadratic_saddle(9, 6, seed=13, mu_g=0.5, lam=2.0)
    xs = []
    result = run_ldpd(inst.problem, LdpdRegime(SINGLE_STEP, tau=0.2),
                      np.zeros(9), np.zeros(6), 25,
                      observer=lambda s: xs.append(s.state.x.copy()))
    np.testing.assert_allclose(result.x, np.mean(xs, axis=0), rtol=1e-12)


def test_run_validations():
    inst = make_quadratic_saddle(6, 4, seed=7)
    with pytest.raises(ConfigurationError):
        run_ldpd(inst.problem, LdpdRegime(WEAKLY_CONVEX, horizon=10),
                 np.zeros(6), np.zeros(4), 5)
    with pytest.raises(ContractViolationError):
        run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(5), np.zeros(4), 5)
    f_prox_only = PrimalOracle(value=lambda x: 0.0, prox=lambda z, step: z)
    problem = SaddleProblem(f=f_prox_only, g=inst.problem.g, A=inst.problem.A,
                            primal_dim=6, dual_dim=4)
    with pytest.raises(ConfigurationError):
        run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(6), np.zeros(4), 5)


def test_run_is_deterministic():
    inst = make_quadratic_saddle(8, 5, seed=17, mu_g=0.2, lam=1.0)
    a = run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(8), np.zeros(5), 40)
    b = run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(8), np.zeros(5), 40)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.state.x, b.state.x)


def test_observer_sees_every_iteration_in_order():
    inst = make_quadratic_saddle(6, 4, seed=19)
    ts = []
    run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
             np.zeros(6), np.zeros(4), 12, observer=lambda s: ts.append(s.t))
    assert ts == list(range(1, 13))


def test_schedule_is_validated_before_the_first_iteration():
    inst = make_quadratic_saddle(6, 4, seed=7)
    f = PrimalOracle(value=inst.problem.f.value, grad=inst.problem.f.grad,
                     lipschitz_L_f=float("inf"))
    problem = SaddleProblem(f=f, g=inst.problem.g, A=inst.problem.A,
                            primal_dim=6, dual_dim=4)
    steps = []
    with pytest.raises(ConfigurationError, match="eta = 0.0 at iteration 1 "):
        run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(6), np.zeros(4), 5,
                 observer=lambda s: steps.append(s.t))
    assert steps == []


# The overlapped path: with the gate at 0 every problem takes its next
# gradient on the worker thread, so these small instances exercise it.
ALL_VARIANTS = [WEAKLY_CONVEX, STRONGLY_CONVEX_DUAL, STRONGLY_CONVEX_PRIMAL,
                SINGLE_STEP]


@pytest.fixture
def threaded(monkeypatch):
    monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)


def _regime(variant, iters):
    if variant == WEAKLY_CONVEX:
        return LdpdRegime(WEAKLY_CONVEX, horizon=iters)
    if variant == SINGLE_STEP:
        return LdpdRegime(SINGLE_STEP, tau=0.25)
    return LdpdRegime(variant)


def _counting_grad(problem, fail_at=None, wait_at=None, event=None):
    """Replace problem.f.grad by a wrapper that counts its calls; at call
    `fail_at` it raises, and at call `wait_at` it first waits for
    `event`."""
    grad, calls = problem.f.grad, []

    def counted(x):
        calls.append(threading.current_thread().name)
        if len(calls) == fail_at:
            raise FloatingPointError(f"gradient call {fail_at}")
        if len(calls) == wait_at:
            assert event.wait(timeout=30)
        return grad(x)

    problem.f.grad = counted
    return calls


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_threaded_run_matches_reference_transcription_bitwise(threaded, variant):
    inst = make_quadratic_saddle(8, 5, seed=21, mu_g=0.4, lam=1.0)
    iters = 12
    regime = _regime(variant, iters)
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal(8)
    y1 = rng.standard_normal(5)
    expected = _reference_trajectory(inst.problem, regime, x1, y1, iters)
    calls = _counting_grad(inst.problem)
    start = threading.active_count()
    seen, running = [], []

    def observer(s):
        seen.append((s.state.x.copy(), s.state.y.copy(), s.state.yhat.copy()))
        running.append(threading.active_count())

    run_ldpd(inst.problem, regime, x1, y1, iters, observer=observer)
    assert len(seen) == iters
    for (x, y, yhat), (ex, ey, eyhat) in zip(seen, expected):
        assert np.array_equal(x, ex)
        assert np.array_equal(y, ey)
        assert np.array_equal(yhat, eyhat)
    # the first gradient is taken on the spot, every later one on the
    # worker, which is joined when the run returns
    assert len(calls) == iters
    assert calls[0] == threading.current_thread().name
    assert all(name != calls[0] for name in calls[1:])
    assert running == [start + 1] * iters
    assert threading.active_count() == start


@pytest.mark.parametrize("gated", [True, False])
def test_grad_is_called_exactly_iters_times(monkeypatch, gated):
    if gated:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    inst = make_quadratic_saddle(8, 5, seed=23, mu_g=0.4, lam=1.0)
    calls = _counting_grad(inst.problem)
    steps = []
    step = ldpd.ldpd_step
    monkeypatch.setattr(ldpd, "ldpd_step", lambda *a: steps.append(1) or step(*a))
    result = run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                      np.zeros(8), np.zeros(5), 17)
    assert len(calls) == 17
    # the step is still looked up by its module name once per iteration
    assert len(steps) == 17
    assert result.state.work is None


def _serial_and_threaded(monkeypatch, make_problem, iters):
    """Run the same failing problem in line and threaded; return each
    run's exception and observer call count."""
    outcomes = []
    start = threading.active_count()
    for gate in (solver.GRAD_AHEAD_MIN_PRIMAL_DIM, 0):
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", gate)
        problem = make_problem()
        observed = []
        with pytest.raises(Exception) as info:
            run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL), np.zeros(8),
                     np.zeros(5), iters, observer=lambda s: observed.append(s.t))
        assert threading.active_count() == start
        outcomes.append((type(info.value), str(info.value), observed))
    return outcomes


@pytest.mark.parametrize("k", [1, 2, 6])
def test_grad_error_surfaces_at_the_serial_iteration(monkeypatch, k):
    def make_problem():
        problem = make_quadratic_saddle(8, 5, seed=25, mu_g=0.4, lam=1.0).problem
        _counting_grad(problem, fail_at=k)
        return problem

    serial, threaded_run = _serial_and_threaded(monkeypatch, make_problem, 10)
    assert serial == threaded_run
    assert serial == (FloatingPointError, f"gradient call {k}",
                      list(range(1, k)))


@pytest.mark.parametrize("k", [1, 4])
def test_dual_divergence_with_a_gradient_pending_surfaces_unchanged(monkeypatch, k):
    def make_problem():
        problem = make_quadratic_saddle(8, 5, seed=27, mu_g=0.4, lam=1.0).problem
        prox, calls = problem.g.prox, []

        def failing(z, step, mu_g):
            calls.append(1)
            y = prox(z, step, mu_g)
            return np.full_like(y, np.nan) if len(calls) == k else y

        problem.g.prox = failing
        return problem

    serial, threaded_run = _serial_and_threaded(monkeypatch, make_problem, 10)
    assert serial == threaded_run
    assert serial == (DivergenceError, f"dual iterate {k + 1} is not finite",
                      list(range(1, k)))


def _counting_adjoint(problem, fail_at=None):
    """Replace problem.A.adjoint by a wrapper that counts its calls and,
    at call `fail_at`, raises."""
    adjoint, calls = problem.A.adjoint, []

    def counted(y, out=None):
        calls.append(threading.current_thread().name)
        if len(calls) == fail_at:
            raise FloatingPointError(f"adjoint call {fail_at}")
        return adjoint(y, out=out)

    problem.A.adjoint = counted
    return calls


@pytest.mark.parametrize("gated", [True, False])
def test_adjoint_is_called_exactly_iters_times(monkeypatch, gated):
    if gated:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    inst = make_quadratic_saddle(8, 5, seed=23, mu_g=0.4, lam=1.0)
    adjoints = _counting_adjoint(inst.problem)
    grads = _counting_grad(inst.problem)
    result = run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                      np.zeros(8), np.zeros(5), 17)
    # nothing is requested for an iteration after the last, and A* yhat
    # runs on the thread that called the step whether or not the run
    # has a worker
    assert len(adjoints) == len(grads) == 17
    assert set(adjoints) == {threading.current_thread().name}
    assert result.state.work is None


@pytest.mark.parametrize("k", [1, 2, 6])
def test_adjoint_error_surfaces_at_the_serial_iteration(monkeypatch, k):
    def make_problem():
        problem = make_quadratic_saddle(8, 5, seed=25, mu_g=0.4, lam=1.0).problem
        _counting_adjoint(problem, fail_at=k)
        return problem

    serial, threaded_run = _serial_and_threaded(monkeypatch, make_problem, 10)
    assert serial == threaded_run
    assert serial == (FloatingPointError, f"adjoint call {k}",
                      list(range(1, k)))


def test_an_observer_error_with_the_gradient_pending(threaded):
    # Iteration 4's gradient, the fourth call, runs on the worker while
    # iteration 3's dual half and observer run; it waits until that
    # observer has started, so it is still pending when the observer
    # raises.
    inst = make_quadratic_saddle(8, 5, seed=31, mu_g=0.4, lam=1.0)
    observing = threading.Event()
    calls = _counting_grad(inst.problem, wait_at=4, event=observing)
    start = threading.active_count()

    def observer(s):
        if s.t == 3:
            observing.set()
            raise KeyError("observer failed")

    with pytest.raises(KeyError, match="observer failed"):
        run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL), np.zeros(8),
                 np.zeros(5), 10, observer=observer)
    assert len(calls) == 4
    assert calls[3] != threading.current_thread().name
    assert threading.active_count() == start


@pytest.mark.parametrize("gated", [True, False])
@pytest.mark.parametrize("half", ["primal", "dual"])
def test_a_stored_snapshot_after_a_divergence(monkeypatch, gated, half):
    # Iteration 4 fails. A primal failure leaves the aggregates of
    # iteration 3 as they were, so its snapshot still reads them; a dual
    # failure has already added x_5 to the primal aggregate, so a first
    # read then raises instead of mixing two iterations.
    if gated:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    inst = make_quadratic_saddle(8, 5, seed=27, mu_g=0.4, lam=1.0)
    problem, regime = inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL)
    expected = run_ldpd(problem, regime, np.zeros(8), np.zeros(5), 3)
    oracle = problem.f if half == "primal" else problem.g
    name = "grad" if half == "primal" else "prox"
    inner, calls = getattr(oracle, name), []

    def failing(*args):
        calls.append(1)
        out = inner(*args)
        return np.full_like(out, np.nan) if len(calls) == 4 else out

    setattr(oracle, name, failing)
    snaps = []
    with pytest.raises(DivergenceError, match=f"{half} iterate 5 is not finite"):
        run_ldpd(problem, regime, np.zeros(8), np.zeros(5), 10,
                 observer=snaps.append)
    assert [s.t for s in snaps] == [1, 2, 3]
    assert snaps[-1].state.work is None
    if half == "primal":
        assert np.array_equal(snaps[-1].x, expected.x)
        assert np.array_equal(snaps[-1].y, expected.y)
    else:
        with pytest.raises(ContractViolationError, match="iteration 3"):
            snaps[-1].x
        with pytest.raises(ContractViolationError, match="iteration 3"):
            snaps[-1].y


def test_problem_below_the_gate_starts_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a run below the gate started a worker")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    inst = make_quadratic_saddle(8, 5, seed=29, mu_g=0.4, lam=1.0)
    assert inst.problem.primal_dim < solver.GRAD_AHEAD_MIN_PRIMAL_DIM
    calls = _counting_grad(inst.problem)
    start = threading.active_count()
    running = []
    run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL), np.zeros(8),
             np.zeros(5), 9, observer=lambda s: running.append(threading.active_count()))
    assert running == [start] * 9
    assert calls == [threading.current_thread().name] * 9


def test_threaded_imaging_run_is_bitwise_the_inline_run(monkeypatch):
    spec = GaussianDeblurSpec(observed=make_phantom(16, 12),
                              kernel=make_motion_kernel(5, 30.0), mu=300.0,
                              mu_g=0.01)
    results = []
    for gate in (solver.GRAD_AHEAD_MIN_PRIMAL_DIM, 0):
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", gate)
        problem = build_gaussian_problem(spec)
        aggregates = []
        result = run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                          np.zeros(problem.primal_dim), np.zeros(problem.dual_dim),
                          25, observer=lambda s: aggregates.append(s.x))
        results.append((result.x, result.y, aggregates))
    (x0, y0, agg0), (x1, y1, agg1) = results
    assert np.array_equal(x0, x1) and np.array_equal(y0, y1)
    assert all(np.array_equal(a, b) for a, b in zip(agg0, agg1, strict=True))


def test_threaded_gaussian_run_with_a_gap_reference_records_the_inline_history(
        monkeypatch):
    # With a GapReference the recorder evaluates f.value, one K.apply, on
    # the main thread while the worker takes the next gradient with
    # K.gram, each in its own thread's transform scratch.
    clean = make_phantom(16, 12)
    spec = GaussianDeblurSpec(observed=clean, kernel=make_motion_kernel(5, 30.0),
                              mu=300.0, mu_g=0.01)
    histories, threads = [], []
    for gate in (solver.GRAD_AHEAD_MIN_PRIMAL_DIM, 0):
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", gate)
        problem = build_gaussian_problem(spec)
        names = {"grad": [], "value": []}
        grad, value = problem.f.grad, problem.f.value

        def traced_grad(x, out=None):
            names["grad"].append(threading.current_thread().name)
            return grad(x, out=out)

        def traced_value(x):
            names["value"].append(threading.current_thread().name)
            return value(x)

        problem.f.grad, problem.f.value = traced_grad, traced_value
        ref = GapReference(clean.data, np.zeros(problem.dual_dim))
        recorder = HistoryRecorder(problem=problem, ref=ref, x_true=clean)
        run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(problem.primal_dim), np.zeros(problem.dual_dim), 25,
                 observer=recorder)
        histories.append([dataclasses.astuple(r) for r in recorder.records])
        threads.append(names)
    assert histories[0] == histories[1]
    assert all(r[1] is not None for r in histories[1])
    main = threading.current_thread().name
    inline, threaded_run = threads
    assert set(inline["grad"]) == set(inline["value"]) == {main}
    assert set(threaded_run["value"]) == {main}
    assert main not in threaded_run["grad"][1:]


def test_concurrent_threaded_runs_on_one_problem_agree(monkeypatch):
    # Three runs share one imaging problem, each with its own gradient
    # worker: six threads on a two-core host, switching every 10 us. Any
    # scratch shared between the oracle closures, or between a run and
    # its worker, would show as a result that differs from the lone run.
    monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    problem = build_gaussian_problem(GaussianDeblurSpec(
        observed=make_phantom(16, 12), kernel=make_motion_kernel(5, 30.0),
        mu=300.0, mu_g=0.01))

    def solve():
        return run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                        np.zeros(problem.primal_dim),
                        np.zeros(problem.dual_dim), 30).x

    expected = solve()
    results = [None] * 3

    def worker(i):
        results[i] = solve()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None and np.array_equal(r, expected) for r in results)
