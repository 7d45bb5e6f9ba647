import numpy as np
import pytest

from dpdsolve.bench import make_quadratic_saddle
from dpdsolve.errors import (
    ConfigurationError,
    ContractViolationError,
    UnsupportedPointError,
)
from dpdsolve.linops import MatrixOperator
from dpdsolve.model import (
    DualProxOracle,
    PrimalOracle,
    SaddleProblem,
    SolverConsts,
    kkt_residual,
    lagrangian,
)


def _zero_f():
    return PrimalOracle(value=lambda x: 0.0,
                        grad=lambda x: np.zeros_like(x))


def _zero_g():
    return DualProxOracle(prox=lambda z, step, mu_g: z, value=lambda y: 0.0,
                          grad=lambda y: np.zeros_like(y))


def test_lagrangian_pure_coupling():
    problem = SaddleProblem(f=_zero_f(), g=_zero_g(), A=MatrixOperator(np.eye(2)),
                            primal_dim=2, dual_dim=2)
    assert lagrangian(problem, [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_lagrangian_quadratics_cancel():
    f = PrimalOracle(value=lambda x: 0.5 * float(x @ x),
                     grad=lambda x: x)
    g = DualProxOracle(prox=lambda z, step, mu_g: z,
                       value=lambda y: 0.5 * float(y @ y),
                       grad=lambda y: y)
    problem = SaddleProblem(f=f, g=g, A=MatrixOperator(np.zeros((2, 2))),
                            primal_dim=2, dual_dim=2)
    v = np.array([0.7, -0.3])
    assert lagrangian(problem, v, v) == 0.0


def test_lagrangian_is_minus_inf_outside_dual_domain():
    g = DualProxOracle(
        prox=lambda z, step, mu_g: np.clip(z, -1.0, 1.0),
        value=lambda y: 0.0 if np.max(np.abs(y)) <= 1.0 else float("inf"),
    )
    f = PrimalOracle(value=lambda x: 0.5 * float((x - 1.0) @ (x - 1.0)),
                     grad=lambda x: x - 1.0)
    problem = SaddleProblem(f=f, g=g, A=MatrixOperator(np.eye(1)),
                            primal_dim=1, dual_dim=1)
    assert lagrangian(problem, [0.0], [2.0]) == -np.inf


def test_lagrangian_rejects_bad_shapes():
    problem = SaddleProblem(f=_zero_f(), g=_zero_g(), A=MatrixOperator(np.eye(2)),
                            primal_dim=2, dual_dim=2)
    with pytest.raises(ContractViolationError):
        lagrangian(problem, [1.0], [1.0, 2.0])
    with pytest.raises(ContractViolationError):
        lagrangian(problem, [1.0, 2.0], [1.0, 2.0, 3.0])


def test_kkt_residual_decoupled_quadratics():
    f = PrimalOracle(value=lambda x: 0.5 * float(x @ x),
                     grad=lambda x: x)
    g = DualProxOracle(prox=lambda z, step, mu_g: z,
                       value=lambda y: 0.5 * float(y @ y),
                       grad=lambda y: y)
    problem = SaddleProblem(f=f, g=g, A=MatrixOperator(np.zeros((1, 1))),
                            primal_dim=1, dual_dim=1)
    assert kkt_residual(problem, [0.0], [0.0]) == 0.0
    assert kkt_residual(problem, [1.0], [0.0]) == 1.0


def test_kkt_residual_vanishes_at_certified_saddle():
    inst = make_quadratic_saddle(12, 8, seed=5)
    assert kkt_residual(inst.problem, inst.x_star, inst.y_star) <= 1e-8


def test_kkt_residual_requires_gradients():
    f_prox_only = PrimalOracle(value=lambda x: 0.0, prox=lambda z, step: z)
    problem = SaddleProblem(f=f_prox_only, g=_zero_g(), A=MatrixOperator(np.eye(1)),
                            primal_dim=1, dual_dim=1)
    with pytest.raises(ContractViolationError):
        kkt_residual(problem, [0.0], [0.0])
    g_no_grad = DualProxOracle(prox=lambda z, step, mu_g: z, value=lambda y: 0.0)
    problem2 = SaddleProblem(f=_zero_f(), g=g_no_grad, A=MatrixOperator(np.eye(1)),
                             primal_dim=1, dual_dim=1)
    with pytest.raises(UnsupportedPointError):
        kkt_residual(problem2, [0.0], [0.0])


def test_primal_oracle_validation():
    with pytest.raises(ConfigurationError, match="grad or a prox"):
        PrimalOracle(value=lambda x: 0.0)
    with pytest.raises(ConfigurationError):
        PrimalOracle(value=lambda x: 0.0, grad=lambda x: x, mu_f=-1.0)
    with pytest.raises(ConfigurationError):
        PrimalOracle(value=lambda x: 0.0, prox=lambda z, step: z,
                     lipschitz_L_f=-1.0)


def test_dual_oracle_validation():
    with pytest.raises(ConfigurationError):
        DualProxOracle(prox=lambda z, step, mu_g: z, value=lambda y: 0.0, mu_g=-0.1)


def test_problem_dimension_check():
    with pytest.raises(ContractViolationError):
        SaddleProblem(f=_zero_f(), g=_zero_g(), A=MatrixOperator(np.eye(3)),
                      primal_dim=2, dual_dim=3)


def test_solver_consts_reads_problem_fields():
    inst = make_quadratic_saddle(10, 6, seed=1, mu_g=0.25, lam=2.0)
    consts = SolverConsts.from_problem(inst.problem)
    assert consts.L_f == inst.problem.f.lipschitz_L_f
    assert consts.mu_f == inst.problem.f.mu_f
    assert consts.mu_g == 0.25
    assert consts.norm_A == inst.problem.A.norm_bound


def test_declared_smoothness_constants_hold_on_samples():
    inst = make_quadratic_saddle(10, 6, seed=3, mu_g=0.5, lam=1.0)
    f = inst.problem.f
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        lhs = np.linalg.norm(f.grad(a) - f.grad(b))
        assert lhs <= f.lipschitz_L_f * np.linalg.norm(a - b) + 1e-9
        gap = (f.value(b) - f.value(a) - float(f.grad(a) @ (b - a))
               - 0.5 * f.mu_f * float((b - a) @ (b - a)))
        assert gap >= -1e-9
