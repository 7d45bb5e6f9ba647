import argparse
import warnings

import numpy as np
import pytest

from dpdsolve import bench, cli
from dpdsolve.bench import make_ball_capped_saddle, make_quadratic_saddle
from dpdsolve.errors import ConfigurationError, NumericalFailureError
from dpdsolve.linops import MatrixOperator
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


def test_same_seed_reproduces_the_instance():
    a = make_quadratic_saddle(9, 6, seed=123)
    b = make_quadratic_saddle(9, 6, seed=123)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.problem.A.matrix, b.problem.A.matrix)
    assert np.array_equal(a.x_star, b.x_star)
    c = make_quadratic_saddle(9, 6, seed=124)
    assert not np.array_equal(a.C, c.C)


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
    mu_g = 0.05
    inst = make_ball_capped_saddle(20, 15, seed=42, mu_g=mu_g, c_rows=12)
    # the radius ||y*|| lies well inside the unconstrained dual norm
    A = inst.problem.A.matrix
    H = inst.C.T @ inst.C + inst.lam * np.eye(inst.C.shape[1])
    y_free = A @ np.linalg.solve(H + A.T @ A / mu_g, inst.C.T @ inst.d) / mu_g
    y_norm = float(np.linalg.norm(inst.y_star))
    assert 0.3 < y_norm / float(np.linalg.norm(y_free)) < 0.8
    # strict multiplier: A x* = 8 mu_g y*, so the smoothed maximizer
    # A x*/mu_g lies outside the ball and the indicator is active with
    # the margin (8 - 1) mu_g ||y*||
    ax_norm = float(np.linalg.norm(inst.problem.A.apply(inst.x_star)))
    assert ax_norm - mu_g * y_norm == pytest.approx(7.0 * mu_g * y_norm, rel=1e-12)


def test_ball_capped_indicator_tolerance_sits_between_1e_10_and_1e_8():
    # ||y*|| is the radius; g's domain test allows 1e-9 relative beyond
    # it, and no more
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
        make_ball_capped_saddle(6, 4, lam=-0.5)
    a = make_ball_capped_saddle(9, 6, seed=11, c_rows=5)
    b = make_ball_capped_saddle(9, 6, seed=11, c_rows=5)
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.y_star, b.y_star)


def _stationarity_ratio(inst):
    """||grad f(x*) + A'y*|| over ||H x*|| + ||A'y*|| + ||C'd||, computed
    apart from the builders."""
    C, x = inst.C, inst.x_star
    Hx = C.T @ (C @ x) + inst.lam * x
    Aty = inst.problem.A.matrix.T @ inst.y_star
    Ctd = C.T @ inst.d
    miss = np.linalg.norm(inst.problem.f.grad(x) + Aty)
    return miss / (np.linalg.norm(Hx) + np.linalg.norm(Aty) + np.linalg.norm(Ctd))


@pytest.mark.parametrize("shape", [
    dict(n_primal=20, n_dual=15, lam=0.0, c_rows=12),   # wide C, singular H
    dict(n_primal=20, n_dual=15, lam=0.3),              # square C, ridge
    dict(n_primal=12, n_dual=25, lam=0.0),              # more duals than primals
], ids=["wide-singular", "square-ridge", "tall-dual"])
@pytest.mark.parametrize("seed", range(6))
def test_ball_capped_construction_is_a_certified_saddle_point(shape, seed, monkeypatch):
    mu_g = 0.05
    radii = []
    assemble = bench._problem_from_data

    def recording(*args):
        radii.append(args[-1])
        return assemble(*args)

    monkeypatch.setattr(bench, "_problem_from_data", recording)
    inst = make_ball_capped_saddle(seed=seed, mu_g=mu_g, **shape)
    assert _stationarity_ratio(inst) <= 1e-9
    # the chosen multiplier: A x* = u y* with u = 8 mu_g
    ax = inst.problem.A.apply(inst.x_star)
    assert np.linalg.norm(ax - 8.0 * mu_g * inst.y_star) <= 1e-12 * np.linalg.norm(ax)
    # the derived radius is ||y*||, bit for bit
    assert radii == [float(np.linalg.norm(inst.y_star))]
    # y* maximizes <Ax*, y> - g(y): y* = prox_{tau g}(y* + tau A x*)
    for tau in (0.01, 1.0, 100.0):
        moved = inst.problem.g.prox(inst.y_star + tau * ax, tau, mu_g)
        assert np.linalg.norm(moved - inst.y_star) <= 1e-10 * np.linalg.norm(inst.y_star)


def test_ball_capped_certification_makes_one_dense_solve(monkeypatch):
    calls = []
    real_solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    make_ball_capped_saddle(40, 30, seed=3, c_rows=24)
    assert calls == [(40, 40)]


def test_ball_capped_certification_refuses_a_noisy_solve(monkeypatch):
    # 1e-6 relative noise on the solve misses stationarity far beyond the
    # certificate's 1e-9 relative
    real_solve = np.linalg.solve
    rng = np.random.default_rng(0)

    def noisy(a, b):
        x = real_solve(a, b)
        return x * (1.0 + 1e-6 * rng.standard_normal(x.shape))

    monkeypatch.setattr(np.linalg, "solve", noisy)
    with pytest.raises(NumericalFailureError, match="stationarity missed"):
        make_ball_capped_saddle(20, 15, seed=42, mu_g=0.05, c_rows=12)


@pytest.mark.parametrize("build", [make_quadratic_saddle, make_ball_capped_saddle])
@pytest.mark.parametrize("kwargs", [
    dict(n_primal=5, n_dual=4, mu_g=1e-300),
    dict(n_primal=20, n_dual=15, mu_g=1e-307, lam=0.0, c_rows=12),
    dict(n_primal=23, n_dual=11, seed=0, mu_g=1e-12, lam=0.0, c_rows=13),
], ids=["5x4-1e-300", "20x15-1e-307", "23x11-1e-12"])
def test_a_mu_g_too_small_to_certify_is_refused(build, kwargs):
    # A'A / mu_g swamps H, or overflows at 1e-307, so the solve keeps no
    # accurate digit of x*. The quadratic builder used to return such
    # pairs: at 1e-12 it missed stationarity by 1.6e-3 relative, at
    # 1e-300 by up to 6.2, and at 1e-307 it warned of an overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="stationarity missed"):
            build(**kwargs)


def test_a_zero_dual_solution_is_refused(monkeypatch):
    # a coupling that maps every x to zero gives y* = 0, which satisfies
    # the certificate but leaves no radius for the ball
    draw = bench._draw_instance_data

    def uncoupled(*args):
        data = draw(*args)
        zero = np.zeros_like(data.A)
        return data._replace(A=zero, AtA=zero.T @ zero, op=MatrixOperator(zero))

    monkeypatch.setattr(bench, "_draw_instance_data", uncoupled)
    with pytest.raises(ConfigurationError, match="no radius can bind"):
        make_ball_capped_saddle(6, 4, seed=1, lam=0.5)


def test_small_mu_g_ball_capped_instance_is_certified():
    # H + A'A / u is ill-conditioned at this mu_g, yet the pair still
    # meets the certificate with room to spare
    mu_g = 1e-4
    inst = make_ball_capped_saddle(23, 11, seed=0, mu_g=mu_g, lam=0.0, c_rows=13)
    assert _stationarity_ratio(inst) <= 1e-10
    ax = inst.problem.A.apply(inst.x_star)
    assert np.linalg.norm(ax - 8.0 * mu_g * inst.y_star) <= 1e-12 * np.linalg.norm(ax)


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


def _counting_linalg(monkeypatch, names):
    """Count calls of each numpy.linalg function in `names`, whether made
    through numpy.linalg or inside it (norm(M, 2) calls svd there)."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(np.linalg._linalg, name, counted)
    return calls


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_instance(got, ref, seed):
    for field in ("x_star", "y_star", "C", "d"):
        assert _same_bits(getattr(got, field), getattr(ref, field)), field
    assert got.lam == ref.lam
    p, q = got.problem, ref.problem
    assert _same_bits(p.A.matrix, q.A.matrix)
    assert p.A.norm_bound == q.A.norm_bound
    assert p.f.lipschitz_L_f == q.f.lipschitz_L_f and p.f.mu_f == q.f.mu_f
    assert p.g.mu_g == q.g.mu_g
    rng = np.random.default_rng(seed)
    for scale in (0.1, 1.0, 100.0):
        x = scale * rng.standard_normal(p.primal_dim)
        y = scale * rng.standard_normal(p.dual_dim)
        assert p.f.value(x) == q.f.value(x)
        assert _same_bits(p.f.grad(x), q.f.grad(x))
        assert _same_bits(p.f.prox(x, scale), q.f.prox(x, scale))
        # the capped g is infinite outside its ball, which the larger
        # points leave
        assert p.g.value(y) == q.g.value(y)
        assert _same_bits(p.g.prox(y, scale, p.g.mu_g), q.g.prox(y, scale, q.g.mu_g))


@pytest.mark.parametrize("n_primal, n_dual, seed", [
    (20, 15, 0), (20, 15, 7), (20, 15, 42), (13, 8, 0), (400, 300, 0),
])
def test_bench_instances_share_one_draw_and_keep_their_bits(monkeypatch, n_primal,
                                                             n_dual, seed):
    # the weak and the capped instance share one draw: one eigh of H and
    # one svd for the norm of A serve both, and the strong instance makes
    # the other pair
    calls = _counting_linalg(monkeypatch, ("eigh", "svd"))
    args = argparse.Namespace(dims=f"{n_primal},{n_dual}", seed=seed)
    strong, weak, capped = cli._bench_instances(args)
    assert calls == {"eigh": 2, "svd": 2}
    monkeypatch.undo()
    # each problem keeps its own operator object, which a caller may patch
    assert weak.problem.A is not capped.problem.A
    rows = max(2, (3 * n_primal) // 5)
    _assert_same_instance(strong, make_quadratic_saddle(
        n_primal, n_dual, seed=seed, mu_g=0.5, lam=1.0), seed)
    _assert_same_instance(weak, make_quadratic_saddle(
        n_primal, n_dual, seed=seed, mu_g=0.5, lam=0.0, c_rows=rows), seed)
    _assert_same_instance(capped, make_ball_capped_saddle(
        n_primal, n_dual, seed=seed, mu_g=0.05, lam=0.0, c_rows=rows), seed)


def test_a_synth_bench_run_writes_into_no_shared_array(tmp_path, monkeypatch):
    # the weak and the capped instance read one draw's arrays; after a full
    # run every one of them is still bit for bit a fresh draw
    draws = []
    draw = bench._draw_instance_data

    def kept(*args):
        draws.append(draw(*args))
        return draws[-1]

    monkeypatch.setattr(cli, "_draw_instance_data", kept)
    assert cli.main(["synth-bench", "--dims", "20,15", "--out-dir", str(tmp_path)]) == 0
    (shared,) = draws
    fresh = draw(20, 15, 42, 12, 0.0)
    for field in ("C", "d", "A", "H", "Ctd", "eigs", "V", "AtA"):
        assert _same_bits(getattr(shared, field), getattr(fresh, field)), field
        # and a write into any of them raises
        assert not getattr(shared, field).flags.writeable, field
    assert _same_bits(shared.op.matrix, fresh.A)
