import warnings

import numpy as np
import pytest

from dpdsolve import bench
from dpdsolve.bench import make_ball_capped_saddle, make_quadratic_saddle
from dpdsolve.errors import ConfigurationError, NumericalFailureError
from dpdsolve.model import SolverConsts, kkt_residual


def test_certified_solution_satisfies_stationarity():
    for kwargs in (
        dict(n_primal=20, n_dual=15, seed=42, mu_g=0.5, lam=1.0),
        dict(n_primal=20, n_dual=15, seed=42, mu_g=0.5, lam=0.0, c_rows=12),
    ):
        inst = make_quadratic_saddle(**kwargs)
        assert kkt_residual(inst.problem, inst.x_star, inst.y_star) <= 1e-8


def test_wide_c_with_no_ridge_has_exactly_zero_mu_f():
    inst = make_quadratic_saddle(20, 15, seed=42, mu_g=0.5, lam=0.0, c_rows=12)
    assert inst.problem.f.mu_f == 0.0
    assert inst.problem.f.lipschitz_L_f > 0.0


def test_square_c_with_ridge_is_strongly_convex():
    inst = make_quadratic_saddle(20, 15, seed=42, mu_g=0.5, lam=1.0)
    assert inst.problem.f.mu_f >= 1.0
    consts = SolverConsts.from_problem(inst.problem)
    assert consts.L_f >= consts.mu_f
    assert consts.norm_A > 0.0


def test_initial_distances():
    inst = make_quadratic_saddle(6, 4, seed=1)
    dx2, dy2 = inst.initial_distances()
    assert dx2 == pytest.approx(float(inst.x_star @ inst.x_star))
    assert dy2 == pytest.approx(float(inst.y_star @ inst.y_star))
    dx2b, dy2b = inst.initial_distances(inst.x_star, inst.y_star)
    assert dx2b == 0.0 and dy2b == 0.0


def test_same_seed_reproduces_the_instance():
    a = make_quadratic_saddle(9, 6, seed=123)
    b = make_quadratic_saddle(9, 6, seed=123)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.problem.A.matrix, b.problem.A.matrix)
    assert np.array_equal(a.x_star, b.x_star)
    c = make_quadratic_saddle(9, 6, seed=124)
    assert not np.array_equal(a.C, c.C)


def test_inactive_ball_leaves_the_solution_alone():
    plain = make_quadratic_saddle(8, 5, seed=2)
    r = float(np.linalg.norm(plain.y_star)) * 2.0
    balled = make_quadratic_saddle(8, 5, seed=2, ball_radius=r)
    assert np.array_equal(balled.x_star, plain.x_star)
    assert kkt_residual(balled.problem, balled.x_star, balled.y_star) <= 1e-8
    # prox output stays strictly inside, so the indicator never binds
    z = balled.y_star * 1.5
    out = balled.problem.g.prox(z, 0.1, balled.problem.g.mu_g)
    assert np.linalg.norm(out) <= r


def test_ball_radius_must_clear_the_solution():
    plain = make_quadratic_saddle(8, 5, seed=2)
    r = float(np.linalg.norm(plain.y_star)) * 0.5
    with pytest.raises(ConfigurationError):
        make_quadratic_saddle(8, 5, seed=2, ball_radius=r)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        make_quadratic_saddle(6, 4, mu_g=0.0)
    with pytest.raises(ConfigurationError):
        make_quadratic_saddle(6, 4, lam=-1.0)
    with pytest.raises(ConfigurationError):
        make_quadratic_saddle(6, 4, c_rows=0)


def test_prox_agrees_with_gradient_fixed_point():
    # prox_f(z - step * grad_f(prox)) identity: x = prox means
    # x + step * grad f(x) = z
    inst = make_quadratic_saddle(7, 4, seed=8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal(7)
        step = float(rng.uniform(0.01, 5.0))
        x = inst.problem.f.prox(z, step)
        np.testing.assert_allclose(x + step * inst.problem.f.grad(x), z,
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("build", [
    lambda: make_quadratic_saddle(20, 15, seed=42, mu_g=0.5, lam=1.0),
    lambda: make_quadratic_saddle(20, 15, seed=42, mu_g=0.5, lam=0.0, c_rows=12),
    lambda: make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, c_rows=12),
], ids=["strong", "weak", "ball-capped"])
def test_eigenbasis_prox_matches_a_direct_solve(build):
    inst = build()
    n = inst.C.shape[1]
    H = inst.C.T @ inst.C + inst.lam * np.eye(n)
    rng = np.random.default_rng(5)
    for step in (1e-3, 0.7, 40.0):
        z = rng.standard_normal(n)
        direct = np.linalg.solve(step * H + np.eye(n), step * (inst.C.T @ inst.d) + z)
        got = inst.problem.f.prox(z, step)
        assert np.linalg.norm(got - direct) <= 1e-12 * np.linalg.norm(direct)


def test_ball_capped_primal_stationarity_is_exact():
    inst = make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, c_rows=12)
    residual = inst.problem.f.grad(inst.x_star) + inst.problem.A.adjoint(inst.y_star)
    scale = max(1.0, float(np.linalg.norm(inst.problem.f.grad(inst.x_star))))
    assert float(np.linalg.norm(residual)) <= 1e-10 * scale


def test_ball_capped_dual_is_a_prox_fixed_point():
    # y* maximizes <Ax*, y> - g(y) iff y* = prox_{tau g}(y* + tau A x*)
    # for every tau > 0. The residual should sit at solver precision.
    inst = make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, c_rows=12)
    ax = inst.problem.A.apply(inst.x_star)
    for tau in (0.01, 1.0, 100.0):
        moved = inst.problem.g.prox(inst.y_star + tau * ax, tau,
                                    inst.problem.g.mu_g)
        gap = float(np.linalg.norm(moved - inst.y_star))
        assert gap <= 1e-10 * max(1.0, float(np.linalg.norm(inst.y_star)))


def test_ball_capped_constraint_binds_strictly():
    inst = make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, c_rows=12)
    # the radius equals radius_scale times the unconstrained dual norm
    A = inst.problem.A.matrix
    H = inst.C.T @ inst.C + inst.lam * np.eye(inst.C.shape[1])
    y_free = A @ np.linalg.solve(H + A.T @ A / 0.05, inst.C.T @ inst.d) / 0.05
    r = 0.5 * float(np.linalg.norm(y_free))
    assert float(np.linalg.norm(inst.y_star)) == pytest.approx(r, rel=1e-10)
    # strict multiplier: the smoothed maximizer A x*/mu_g lies outside
    # the ball, so the indicator is active with margin
    ax_norm = float(np.linalg.norm(inst.problem.A.apply(inst.x_star)))
    assert ax_norm > 0.05 * r * 1.5


def test_ball_capped_indicator_tolerance_sits_between_1e_10_and_1e_8():
    # ||y*|| matches the radius to 1e-10 relative; g's domain test allows
    # 1e-9 relative beyond it, and no more
    inst = make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, lam=0.0, c_rows=12)
    g_value = inst.problem.g.value
    assert np.isfinite(g_value(inst.y_star * (1.0 + 1e-10)))
    assert g_value(inst.y_star * (1.0 + 1e-8)) == np.inf


def test_ball_capped_gradient_refuses_the_boundary():
    from dpdsolve.errors import UnsupportedPointError

    inst = make_ball_capped_saddle(12, 8, seed=7, mu_g=0.05, c_rows=7)
    with pytest.raises(UnsupportedPointError):
        inst.problem.g.grad(inst.y_star)


def test_ball_capped_validation_and_determinism():
    with pytest.raises(ConfigurationError):
        make_ball_capped_saddle(6, 4, mu_g=0.0)
    with pytest.raises(ConfigurationError):
        make_ball_capped_saddle(6, 4, radius_scale=0.0)
    with pytest.raises(ConfigurationError):
        make_ball_capped_saddle(6, 4, radius_scale=1.0)
    with pytest.raises(ConfigurationError):
        make_ball_capped_saddle(6, 4, lam=-0.5)
    a = make_ball_capped_saddle(9, 6, seed=11, c_rows=5)
    b = make_ball_capped_saddle(9, 6, seed=11, c_rows=5)
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.y_star, b.y_star)


def _direct_bisection(inst, mu_g, radius_scale=0.5):
    """The ball-capped certification by 200 bisection steps on beta, each
    with one dense solve: the reference for the secant."""
    A = inst.problem.A.matrix
    H = inst.C.T @ inst.C + inst.lam * np.eye(inst.C.shape[1])
    Ctd = inst.C.T @ inst.d
    AtA = A.T @ A
    y_free = A @ np.linalg.solve(H + AtA / mu_g, Ctd) / mu_g
    radius = radius_scale * float(np.linalg.norm(y_free))

    def dual_norm(beta):
        return beta * float(np.linalg.norm(A @ np.linalg.solve(H + beta * AtA, Ctd)))

    lo, hi = 0.0, 1.0 / mu_g
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dual_norm(mid) < radius:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    x = np.linalg.solve(H + beta * AtA, Ctd)
    return beta, x, beta * (A @ x)


@pytest.mark.parametrize("shape", [
    dict(n_primal=20, n_dual=15, lam=0.0, c_rows=12),   # wide C, singular H
    dict(n_primal=20, n_dual=15, lam=0.3),              # square C, ridge
    dict(n_primal=12, n_dual=25, lam=0.0),              # more duals than primals
], ids=["wide-singular", "square-ridge", "tall-dual"])
@pytest.mark.parametrize("seed", range(6))
def test_ball_capped_certification_matches_the_direct_bisection(shape, seed):
    mu_g = 0.05
    inst = make_ball_capped_saddle(seed=seed, mu_g=mu_g, **shape)
    beta_ref, x_ref, y_ref = _direct_bisection(inst, mu_g)
    ax = inst.problem.A.apply(inst.x_star)
    beta = float(inst.y_star @ ax) / float(ax @ ax)
    assert abs(beta - beta_ref) <= 1e-12 * beta_ref
    assert np.linalg.norm(inst.x_star - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(inst.y_star - y_ref) <= 1e-10 * np.linalg.norm(y_ref)


def test_ball_capped_certification_makes_one_dense_solve_per_secant_step(monkeypatch):
    calls = []
    real_solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    make_ball_capped_saddle(40, 30, seed=3, c_rows=24)
    # the solve that sets the radius, then one per secant step (9 here)
    assert len(calls) <= 1 + bench._SECANT_STEPS


def test_ball_capped_certification_refuses_a_beta_that_misses_the_radius(monkeypatch):
    # With 1e-6 relative noise on every direct solve, no secant step can
    # land within 1e-10 relative of the radius, and the check refuses.
    real_solve = np.linalg.solve
    rng = np.random.default_rng(0)

    def noisy(a, b):
        x = real_solve(a, b)
        return x * (1.0 + 1e-6 * rng.standard_normal(x.shape))

    monkeypatch.setattr(np.linalg, "solve", noisy)
    with pytest.raises(NumericalFailureError, match="missed the radius"):
        make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, c_rows=12)


@pytest.mark.parametrize("radius_scale", [1e-200, 1e-320])
def test_a_radius_too_small_to_certify_is_refused(radius_scale):
    # the secant's u runs off to infinity, where ||y|| is zero: the steps
    # end there without dividing by zero, and the radius check refuses
    with pytest.raises(NumericalFailureError, match="missed the radius"):
        make_ball_capped_saddle(5, 4, radius_scale=radius_scale)


def test_small_mu_g_ball_capped_instance_is_certified():
    # H + A'A / mu_g is ill-conditioned at this mu_g (an evaluation through
    # the eigenvalues of A M0^{-1} A' missed the radius by 1.9e-10
    # relative); the certification must still land within the 1e-10 check
    mu_g = 1e-4
    inst = make_ball_capped_saddle(23, 11, seed=0, mu_g=mu_g, lam=0.0, c_rows=13)
    A = inst.problem.A.matrix
    y_free = A @ np.linalg.solve(inst.C.T @ inst.C + A.T @ A / mu_g, inst.C.T @ inst.d) / mu_g
    radius = 0.5 * float(np.linalg.norm(y_free))
    assert abs(float(np.linalg.norm(inst.y_star)) - radius) <= 1e-10 * radius


@pytest.mark.parametrize("build", [make_quadratic_saddle, make_ball_capped_saddle])
@pytest.mark.parametrize("kwargs", [
    dict(lam=float("nan")), dict(lam=float("inf")),
    dict(mu_g=float("nan")), dict(mu_g=float("inf")),
], ids=["lam-nan", "lam-inf", "mu_g-nan", "mu_g-inf"])
def test_a_non_finite_weight_is_refused(build, kwargs):
    # a nan or infinite lam used to end in numpy's LinAlgError
    with pytest.raises(ConfigurationError, match="finite"):
        build(4, 3, **kwargs)


@pytest.mark.parametrize("build", [make_quadratic_saddle, make_ball_capped_saddle])
def test_a_mu_g_whose_reciprocal_overflows_is_refused(build):
    # a subnormal mu_g used to give y* = nan with an overflow warning, or
    # the claim that the unconstrained dual solution is zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="reciprocal"):
            build(5, 4, mu_g=1e-310)


def test_a_nan_ball_radius_is_refused():
    with pytest.raises(ConfigurationError, match="ball_radius"):
        make_quadratic_saddle(8, 5, seed=2, ball_radius=float("nan"))


@pytest.mark.parametrize("build, n_primal, n_dual, rows", [
    (make_ball_capped_saddle, 10, 3, 6),
    (make_ball_capped_saddle, 5, 1, 3),
    (make_quadratic_saddle, 4, 1, 2),
    (make_quadratic_saddle, 4, 2, 2),
], ids=["capped-10-3", "capped-5-1", "quadratic-4-1", "quadratic-4-2"])
@pytest.mark.parametrize("seed", [0, 1, 4, 42])
def test_degenerate_data_is_refused_by_both_builders(build, n_primal, n_dual, rows, seed):
    # lam = 0 and rows + n_dual <= n_primal: some x has C x = d and A x = 0,
    # so the dual solution is zero and no radius can bind. Seeds 1 and 42
    # of the 5,1 capped call and seed 4 of the 4,1 quadratic one used to
    # end in numpy's LinAlgError.
    with pytest.raises(ConfigurationError,
                       match=f"the {rows} rows of C plus n_dual {n_dual} must "
                             f"exceed n_primal {n_primal}"):
        build(n_primal, n_dual, seed=seed, lam=0.0, c_rows=rows)
    # a ridge or one more dual row makes the same data sound
    build(n_primal, n_dual, seed=seed, lam=0.1, c_rows=rows)
    build(n_primal, n_primal - rows + 1, seed=seed, lam=0.0, c_rows=rows)


@pytest.mark.parametrize("build", [make_quadratic_saddle, make_ball_capped_saddle])
@pytest.mark.parametrize("n_primal, n_dual, c_rows", [
    (0, 3, None), (4, 0, None), (-3, 2, None), (4, -1, 3), (4, 3, 0),
])
def test_a_dimension_below_one_is_refused(build, n_primal, n_dual, c_rows):
    with pytest.raises(ConfigurationError, match=f"n_primal {n_primal}, n_dual {n_dual}"):
        build(n_primal, n_dual, lam=0.5, c_rows=c_rows)
