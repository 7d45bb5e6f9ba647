import numpy as np
import pytest

from dpdsolve.bench import make_quadratic_saddle
from dpdsolve.edpd import (
    STRONGLY_CONVEX_DUAL,
    STRONGLY_CONVEX_PRIMAL,
    WEAKLY_CONVEX,
    EdpdParams,
    EdpdRegime,
    edpd_schedule,
    edpd_step,
    init_edpd_state,
    run_edpd,
)
from dpdsolve.errors import ConfigurationError, ContractViolationError
from dpdsolve.ldpd import aggregate_closed_form
from dpdsolve.linops import MatrixOperator
from dpdsolve.model import (
    DualProxOracle,
    PrimalOracle,
    SaddleProblem,
    SolverConsts,
)


def test_schedule_strongly_convex_primal_values():
    consts = SolverConsts(L_f=0.0, mu_f=2.0, mu_g=0.0, norm_A=1.0)
    regime = EdpdRegime(STRONGLY_CONVEX_PRIMAL)
    p1 = edpd_schedule(regime, 1, consts)
    assert p1.tau == pytest.approx(2.0, rel=1e-15)
    assert p1.eta == pytest.approx(0.5, rel=1e-15)
    assert p1.alpha == pytest.approx(0.75, rel=1e-15)
    p2 = edpd_schedule(regime, 2, consts)
    assert p2.tau == pytest.approx(3.0, rel=1e-15)
    assert p2.eta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p2.alpha == pytest.approx(0.8, rel=1e-15)


def test_schedule_strongly_convex_dual_values():
    consts = SolverConsts(L_f=0.0, mu_f=0.0, mu_g=0.03, norm_A=1.0)
    p1 = edpd_schedule(EdpdRegime(STRONGLY_CONVEX_DUAL), 1, consts)
    tau = 2.5 / 0.03
    assert p1.tau == pytest.approx(tau / 2.0, rel=1e-15)
    assert p1.eta == pytest.approx(2.0 / tau, rel=1e-15)
    assert p1.alpha == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_schedule_weakly_convex_values():
    consts = SolverConsts(L_f=0.0, mu_f=0.0, mu_g=0.0, norm_A=2.0)
    p = edpd_schedule(EdpdRegime(WEAKLY_CONVEX, tau=1.0), 9, consts)
    assert p.alpha == 1.0
    assert p.tau == 1.0
    assert p.eta == pytest.approx(0.25, rel=1e-15)


def test_schedule_rejects_bad_inputs():
    consts = SolverConsts(L_f=0.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    with pytest.raises(ConfigurationError):
        edpd_schedule(EdpdRegime(STRONGLY_CONVEX_PRIMAL), 1, consts)
    with pytest.raises(ConfigurationError):
        edpd_schedule(EdpdRegime(STRONGLY_CONVEX_DUAL), 1, consts)
    with pytest.raises(ConfigurationError):
        EdpdRegime(WEAKLY_CONVEX)
    with pytest.raises(ConfigurationError):
        EdpdRegime("nonsense")
    with pytest.raises(ContractViolationError):
        edpd_schedule(EdpdRegime(WEAKLY_CONVEX, tau=1.0), 0, consts)
    zero_A = SolverConsts(L_f=0.0, mu_f=1.0, mu_g=1.0, norm_A=0.0)
    for regime in (EdpdRegime(STRONGLY_CONVEX_PRIMAL),
                   EdpdRegime(STRONGLY_CONVEX_DUAL),
                   EdpdRegime(WEAKLY_CONVEX, tau=1.0)):
        with pytest.raises(ConfigurationError):
            edpd_schedule(regime, 1, zero_A)


def test_strongly_convex_primal_schedule_admissibility():
    for mu_f, nA in [(2.0, 1.0), (0.7, 3.0)]:
        consts = SolverConsts(L_f=0.0, mu_f=mu_f, mu_g=0.0, norm_A=nA)
        tau = mu_f / (2.0 * nA**2)
        assert mu_f / 2.0 >= tau * nA**2 - 1e-12 * mu_f
        for t in range(1, 10001):
            p = edpd_schedule(EdpdRegime(STRONGLY_CONVEX_PRIMAL), t, consts)
            assert p.eta * p.tau * nA**2 == pytest.approx(1.0, rel=1e-12)
            assert 0.0 < p.alpha < 1.0


def test_strongly_convex_dual_schedule_admissibility():
    mu_g, nA = 0.05, 1.5
    consts = SolverConsts(L_f=0.0, mu_f=0.0, mu_g=mu_g, norm_A=nA)
    regime = EdpdRegime(STRONGLY_CONVEX_DUAL)
    for t in range(1, 10001):
        p = edpd_schedule(regime, t, consts)
        p_next = edpd_schedule(regime, t + 1, consts)
        # the dual strong convexity must pay for the shrinking dual step
        lhs = (t + 1) / p.tau + (t + 1) * mu_g
        rhs = (t + 2) / p_next.tau
        assert lhs >= rhs - 1e-9 * rhs
        assert p.eta * p.tau * nA**2 == pytest.approx(1.0, rel=1e-12)


def _reference_trajectory(problem, regime, x1, y1, iters):
    """Straight-line transcription of the recursion."""
    consts = SolverConsts.from_problem(problem)
    x = np.asarray(x1, dtype=float).copy()
    y = np.asarray(y1, dtype=float).copy()
    yhat = y.copy()
    states = []
    for t in range(1, iters + 1):
        p = edpd_schedule(regime, t, consts)
        x = problem.f.prox(x - p.eta * problem.A.adjoint(yhat), p.eta)
        y_new = problem.g.prox(y + p.tau * problem.A.apply(x), p.tau,
                               consts.mu_g)
        yhat = y_new + p.alpha * (y_new - y)
        y = y_new
        states.append((x.copy(), y.copy(), yhat.copy()))
    return states


@pytest.mark.parametrize("variant,kw", [
    (STRONGLY_CONVEX_PRIMAL, {}),
    (STRONGLY_CONVEX_DUAL, {}),
    (WEAKLY_CONVEX, {"tau": 0.5}),
])
def test_step_matches_reference_transcription_bitwise(variant, kw):
    inst = make_quadratic_saddle(8, 5, seed=29, mu_g=0.4, lam=1.0)
    regime = EdpdRegime(variant, **kw)
    rng = np.random.default_rng(4)
    x1 = rng.standard_normal(8)
    y1 = rng.standard_normal(5)
    expected = _reference_trajectory(inst.problem, regime, x1, y1, 5)
    seen = []
    run_edpd(inst.problem, regime, x1, y1, 5,
             observer=lambda s: seen.append(
                 (s.state.x.copy(), s.state.y.copy(), s.state.yhat.copy())))
    for (x, y, yhat), (ex, ey, eyhat) in zip(seen, expected):
        assert np.array_equal(x, ex)
        assert np.array_equal(y, ey)
        assert np.array_equal(yhat, eyhat)


def _decoupled_problem():
    f = PrimalOracle(value=lambda x: 0.0, prox=lambda z, step: z.copy())
    g = DualProxOracle(prox=lambda z, step, mu_g: z / (1.0 + step * mu_g),
                       value=lambda y: 0.5 * float(y @ y), mu_g=1.0)
    return SaddleProblem(f=f, g=g, A=MatrixOperator(np.zeros((3, 2))),
                         primal_dim=2, dual_dim=3)


def test_step_on_decoupled_problem():
    problem = _decoupled_problem()
    params = EdpdParams(alpha=1.0, tau=1.0, eta=0.5)
    state = init_edpd_state(np.array([2.0, -1.0]), np.array([8.0, -4.0, 2.0]))
    for _ in range(10):
        state = edpd_step(state, problem, params, params.alpha, 1.0, 1.0)
    np.testing.assert_array_equal(state.x, [2.0, -1.0])
    np.testing.assert_allclose(state.y, np.array([8.0, -4.0, 2.0]) / 2.0**10)


def test_step_with_zero_alpha_leaves_yhat_at_current_dual():
    problem = _decoupled_problem()
    params = EdpdParams(alpha=0.0, tau=1.0, eta=0.5)
    state = init_edpd_state(np.zeros(2), np.array([4.0, 4.0, 4.0]))
    new = edpd_step(state, problem, params, params.alpha, 1.0, 1.0)
    np.testing.assert_array_equal(new.yhat, new.y)
    np.testing.assert_array_equal(new.y, [2.0, 2.0, 2.0])


def test_step_requires_a_prox_capable_primal_oracle():
    inst = make_quadratic_saddle(6, 4, seed=31)
    f_grad_only = PrimalOracle(value=inst.problem.f.value,
                               grad=inst.problem.f.grad,
                               lipschitz_L_f=inst.problem.f.lipschitz_L_f)
    problem = SaddleProblem(f=f_grad_only, g=inst.problem.g, A=inst.problem.A,
                            primal_dim=6, dual_dim=4)
    with pytest.raises(ConfigurationError):
        run_edpd(problem, EdpdRegime(WEAKLY_CONVEX, tau=1.0),
                 np.zeros(6), np.zeros(4), 3)


@pytest.mark.parametrize("variant,kw,weight", [
    (STRONGLY_CONVEX_PRIMAL, {}, lambda t: t + 2.0),
    (STRONGLY_CONVEX_DUAL, {}, lambda t: t + 1.0),
    (WEAKLY_CONVEX, {"tau": 0.5}, lambda t: 1.0),
])
def test_aggregates_match_closed_form_weights(variant, kw, weight):
    inst = make_quadratic_saddle(10, 7, seed=37, mu_g=0.3, lam=1.0)
    regime = EdpdRegime(variant, **kw)
    xs, ys, aggs = [], [], []
    run_edpd(inst.problem, regime, np.zeros(10), np.zeros(7), 40,
             observer=lambda s: (xs.append(s.state.x.copy()),
                                 ys.append(s.state.y.copy()),
                                 aggs.append((s.x.copy(), s.y.copy()))))
    for k in (1, 7, 40):
        weights = [weight(t) for t in range(1, k + 1)]
        np.testing.assert_allclose(aggs[k - 1][0],
                                   aggregate_closed_form(xs[:k], weights),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(aggs[k - 1][1],
                                   aggregate_closed_form(ys[:k], weights),
                                   rtol=1e-12, atol=1e-15)


def test_run_is_deterministic():
    inst = make_quadratic_saddle(8, 5, seed=41, mu_g=0.2, lam=1.0)
    a = run_edpd(inst.problem, EdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(8), np.zeros(5), 60)
    b = run_edpd(inst.problem, EdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(8), np.zeros(5), 60)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_continuation_schedule_sets_each_iterations_dual_weight():
    inst = make_quadratic_saddle(6, 4, seed=43, mu_g=0.5, lam=1.0)
    problem = inst.problem
    seen, prox_weights = [], []

    def mu_g(t):
        seen.append(t)
        return 0.5 / t

    prox = problem.g.prox

    def recording_prox(z, step, weight):
        prox_weights.append(weight)
        return prox(z, step, weight)

    problem.g.prox = recording_prox
    result = run_edpd(problem, EdpdRegime(STRONGLY_CONVEX_DUAL),
                      np.zeros(6), np.zeros(4), 5, mu_g=mu_g)
    assert seen == [1, 2, 3, 4, 5]
    assert prox_weights == [0.5 / t for t in range(1, 6)]
    for t, p in enumerate(result.params_history, start=1):
        assert p.tau == 2.5 / mu_g(t) / (t + 1)
    assert problem.g.mu_g == 0.5


def test_schedule_is_validated_before_the_first_iteration():
    inst = make_quadratic_saddle(6, 4, seed=43, mu_g=0.5, lam=1.0)
    steps = []
    # the halving weight drives eta = (t + 1) mu_g / (2.5 ||A||^2) to zero
    # at t = 1020; the run must refuse up front, not diverge there
    with pytest.raises(ConfigurationError, match="eta .* iteration 1020"):
        run_edpd(inst.problem, EdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(6), np.zeros(4), 2000,
                 observer=lambda s: steps.append(s.t),
                 mu_g=lambda t: 0.5 * 2.0 ** (1 - t))
    assert steps == []
    # a squared operator norm past the float range is a bad configuration
    huge = SaddleProblem(f=inst.problem.f, g=inst.problem.g,
                         A=MatrixOperator(np.full((4, 6), 1e300)),
                         primal_dim=6, dual_dim=4)
    with pytest.raises(ConfigurationError, match="overflow"):
        run_edpd(huge, EdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(6), np.zeros(4), 3)


def test_run_validates_shapes_and_iters():
    inst = make_quadratic_saddle(6, 4, seed=47)
    with pytest.raises(ContractViolationError):
        run_edpd(inst.problem, EdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(4), np.zeros(4), 3)
    with pytest.raises(ConfigurationError):
        run_edpd(inst.problem, EdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(6), np.zeros(4), 0)
