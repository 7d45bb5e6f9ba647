import warnings

import numpy as np
import pytest
from conftest import dense_convolution_matrix
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpdsolve import linops
from dpdsolve.bench import make_ball_capped_saddle, make_quadratic_saddle
from dpdsolve.errors import ContractViolationError, NumericalFailureError
from dpdsolve.imaging import SaltPepperDeblurSpec, build_saltpepper_problem
from dpdsolve.linops import (
    ImageGrid,
    Kernel2D,
    MatrixOperator,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
    scaled_norm,
)
from dpdsolve.prox import (
    pair_norms,
    project_ball2_pairs,
    project_box,
    prox_linear_plus_box,
    prox_quadratic_primal,
    prox_smoothed_tv_dual,
)


def test_pair_norms_layout():
    y = np.array([3.0, 0.0, 4.0, 1.0])
    np.testing.assert_allclose(pair_norms(y), [5.0, 1.0])
    with pytest.raises(ContractViolationError):
        pair_norms(np.zeros(3))


def test_project_ball_pairs_passes_interior_points_exactly():
    y = np.array([0.3, -0.2, 0.4, 0.1])
    out = project_ball2_pairs(y)
    assert np.all(out == y)


def test_project_ball_pairs_normalizes_outside_points():
    y = np.array([3.0, 0.0, 4.0, 2.0])
    out = project_ball2_pairs(y)
    np.testing.assert_allclose(pair_norms(out), [1.0, 1.0])
    np.testing.assert_allclose(out, [0.6, 0.0, 0.8, 1.0])


def test_project_ball_pairs_survives_overflowing_squares():
    # 1e200 squared overflows; the norm must still come out finite
    y = np.array([1e200, -1e200, 3.0, 0.0, 1e200, 4.0])
    out = project_ball2_pairs(y)
    s = np.sqrt(0.5)
    np.testing.assert_allclose(out, [1.0, -s, 0.6, 0.0, s, 0.8], rtol=1e-15)
    assert np.array_equal(project_ball2_pairs(np.array([1e200, 0.0])), [1.0, 0.0])


def test_project_ball_pairs_returns_a_fresh_array_per_call():
    y = np.array([3.0, 0.1, 4.0, 0.2])
    first = project_ball2_pairs(y)
    second = project_ball2_pairs(y)
    assert first is not second and not np.shares_memory(first, second)
    assert not np.shares_memory(first, y)


def test_project_ball_pairs_idempotent_and_nonexpansive():
    rng = np.random.default_rng(19)
    for _ in range(100):
        a = rng.standard_normal(8) * 3.0
        b = rng.standard_normal(8) * 3.0
        pa, pb = project_ball2_pairs(a), project_ball2_pairs(b)
        np.testing.assert_allclose(project_ball2_pairs(pa), pa, atol=1e-15)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_project_box():
    out = project_box([-3.0, 0.2, 7.0], -1.0, 1.0)
    np.testing.assert_array_equal(out, [-1.0, 0.2, 1.0])
    np.testing.assert_array_equal(project_box(out, -1.0, 1.0), out)
    with pytest.raises(ContractViolationError):
        project_box([0.0], 2.0, 1.0)


def test_smoothed_tv_dual_prox_known_point():
    # one pair at (0.5, 0), step 10, mu_g 0.1: shrink by 1/2 then project
    out = prox_smoothed_tv_dual(np.array([0.5, 0.0]), 10.0, 0.1)
    np.testing.assert_allclose(out, [0.25, 0.0], atol=1e-15)


def test_smoothed_tv_dual_prox_beats_brute_force_grid():
    z = np.array([1.3, -0.4])
    step, mu_g = 2.0, 0.3
    out = prox_smoothed_tv_dual(z, step, mu_g)

    def objective(pt):
        return (0.5 * mu_g * float(pt @ pt)
                + float((pt - z) @ (pt - z)) / (2.0 * step))

    grid = np.linspace(-1.0, 1.0, 201)
    best = np.inf
    for a in grid:
        for b in grid:
            if a * a + b * b <= 1.0:
                best = min(best, objective(np.array([a, b])))
    assert objective(out) <= best + 1e-12
    assert pair_norms(out)[0] <= 1.0 + 1e-15


def _beats_feasible_perturbations(objective, p, project, seed):
    """f(p) <= f(q) + 1e-12 (1 + |f(p)|) at 100 points q = project(p + d),
    d normal and scaled log-uniformly in [1e-6, 1], so that q runs from
    beside p to far from it and, through `project`, stays feasible."""
    rng = np.random.default_rng(seed)
    f_p = objective(p)
    for _ in range(100):
        q = project(p + 10.0 ** rng.uniform(-6.0, 0.0) * rng.standard_normal(p.size))
        assert f_p <= objective(q) + 1e-12 * (1.0 + abs(f_p))


def _in_unit_disks(y) -> bool:
    return bool(np.all(pair_norms(y) <= 1.0 + 1e-15))


def _onto_unit_disks(y):
    """Each pair (y[i], y[half + i]) divided by max(1, its norm)."""
    a, b = np.split(y, 2)
    scale = np.maximum(np.hypot(a, b), 1.0)
    return np.concatenate([a / scale, b / scale])


def _onto_unit_box(u):
    return np.clip(u, -1.0, 1.0)


POINTS = st.integers(1, 12).flatmap(lambda n: arrays(
    np.float64, n, elements=st.floats(-10.0, 10.0)))
PAIRS = st.integers(1, 6).flatmap(lambda n: arrays(
    np.float64, 2 * n, elements=st.floats(-10.0, 10.0)))
STEPS = st.floats(1e-2, 1e2)
WEIGHTS = st.floats(0.0, 10.0)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(PAIRS, SEEDS)
def test_ball_projection_beats_feasible_perturbations(y, seed):
    p = project_ball2_pairs(y)
    assert _in_unit_disks(p)
    _beats_feasible_perturbations(lambda q: 0.5 * float((q - y) @ (q - y)), p,
                                  _onto_unit_disks, seed)


@PROPERTY
@given(POINTS, st.floats(-5.0, 5.0), st.floats(0.0, 5.0), SEEDS)
def test_box_projection_beats_feasible_perturbations(u, lo, width, seed):
    hi = lo + width
    p = project_box(u, lo, hi)
    assert np.all((lo <= p) & (p <= hi))
    _beats_feasible_perturbations(lambda q: 0.5 * float((q - u) @ (q - u)), p,
                                  lambda q: np.clip(q, lo, hi), seed)


@PROPERTY
@given(PAIRS, STEPS, WEIGHTS, SEEDS)
def test_smoothed_tv_dual_prox_decrease_100_competitors(z, step, mu_g, seed):
    out = prox_smoothed_tv_dual(z, step, mu_g)

    def objective(pt):
        return (0.5 * mu_g * float(pt @ pt)
                + float((pt - z) @ (pt - z)) / (2.0 * step))

    assert _in_unit_disks(out)
    _beats_feasible_perturbations(objective, out, _onto_unit_disks, seed)


def test_linear_plus_box_prox_known_point():
    out = prox_linear_plus_box(np.array([3.0]), 2.0, np.array([0.5]))
    np.testing.assert_array_equal(out, [1.0])
    out2 = prox_linear_plus_box(np.array([0.3]), 2.0, np.array([0.5]), mu_g=0.5)
    # (0.3 - 1.0) / 2 = -0.35, inside the box
    np.testing.assert_allclose(out2, [-0.35], atol=1e-15)


@PROPERTY
@given(POINTS.flatmap(lambda z: st.tuples(st.just(z), arrays(
    np.float64, z.size, elements=st.floats(-5.0, 5.0)))), STEPS, WEIGHTS, SEEDS)
def test_linear_plus_box_prox_decrease_100_competitors(zc, step, mu_g, seed):
    z, c = zc
    out = prox_linear_plus_box(z, step, c, mu_g=mu_g)

    def objective(pt):
        return (float(c @ pt) + 0.5 * mu_g * float(pt @ pt)
                + float((pt - z) @ (pt - z)) / (2.0 * step))

    assert np.max(np.abs(out)) <= 1.0
    _beats_feasible_perturbations(objective, out, _onto_unit_box, seed)


@PROPERTY
@given(st.integers(2, 5), st.integers(2, 5), st.floats(0.1, 10.0), st.floats(0.0, 1.0),
       STEPS, SEEDS)
def test_saltpepper_dual_prox_beats_feasible_perturbations(m, n, alpha, mu_g0, step, seed):
    # g is the disk indicator on the TV pairs, the tilted box on the data
    # block, and (mu_g0 / 2) ||y||^2; its prox takes the declared mu_g0
    rng = np.random.default_rng(seed)
    mn = m * n
    problem = build_saltpepper_problem(SaltPepperDeblurSpec(
        observed=ImageGrid(m, n, rng.uniform(0.0, 1.0, mn)),
        kernel=make_average_kernel(1), alpha=alpha, mu_g0=mu_g0))
    z = rng.uniform(-10.0, 10.0, 3 * mn)
    p = problem.g.prox(z, step, problem.g.mu_g)
    assert _in_unit_disks(p[: 2 * mn]) and np.max(np.abs(p[2 * mn :])) <= 1.0

    def objective(q):
        return problem.g.value(q) + float((q - z) @ (q - z)) / (2.0 * step)

    _beats_feasible_perturbations(
        objective, p, lambda q: np.concatenate([_onto_unit_disks(q[: 2 * mn]),
                                                _onto_unit_box(q[2 * mn :])]), seed)


@PROPERTY
@given(st.integers(2, 10), st.integers(1, 10), SEEDS, st.floats(0.0, 10.0), STEPS)
def test_dense_bench_primal_prox_beats_perturbations(n_primal, n_dual, seed, lam, step):
    f = make_quadratic_saddle(n_primal, n_dual, seed=seed, lam=lam).problem.f
    z = np.random.default_rng(seed).uniform(-10.0, 10.0, n_primal)
    p = f.prox(z, step)
    assert np.all(np.isfinite(p))
    _beats_feasible_perturbations(
        lambda q: f.value(q) + float((q - z) @ (q - z)) / (2.0 * step), p,
        lambda q: q, seed)


@PROPERTY
@given(st.integers(2, 10), st.integers(1, 10), SEEDS, st.floats(1e-3, 1.0), STEPS)
def test_ball_capped_dual_prox_beats_feasible_perturbations(n_primal, n_dual, seed,
                                                            mu_g, step):
    c_rows = max(2, 3 * n_primal // 5)
    assume(c_rows + n_dual > n_primal)  # the builders refuse degenerate dims
    inst = make_ball_capped_saddle(n_primal, n_dual, seed=seed, mu_g=mu_g,
                                   c_rows=c_rows)
    g = inst.problem.g
    z = np.random.default_rng(seed).uniform(-10.0, 10.0, n_dual)
    p = g.prox(z, step, g.mu_g)
    assert g.value(p) < np.inf
    # a hair inside the ball, whose radius make_ball_capped_saddle pins
    # to ||y*|| within 1e-10
    radius = (1.0 - 1e-9) * float(np.linalg.norm(inst.y_star))
    _beats_feasible_perturbations(
        lambda q: g.value(q) + float((q - z) @ (q - z)) / (2.0 * step), p,
        lambda q: q * min(1.0, radius / np.linalg.norm(q)), seed)


def test_quadratic_primal_prox_identity_returns_data():
    K = MatrixOperator(np.eye(3))
    z = np.array([0.2, -0.4, 1.1])
    out = prox_quadratic_primal(z, 5.0, K, K.adjoint(z), 2.0)
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_quadratic_primal_prox_zero_weight_is_identity():
    K = MatrixOperator(np.eye(2))
    z = np.array([1.0, -2.0])
    np.testing.assert_array_equal(prox_quadratic_primal(z, 3.0, K, K.adjoint(z), 0.0), z)


def test_quadratic_primal_prox_refuses_an_operator_without_a_shifted_solve():
    D = make_difference_operator(3, 4)
    with pytest.raises(ContractViolationError, match="convolution and dense operators"):
        prox_quadratic_primal(np.zeros(12), 1.0, D, np.zeros(12), 1.0)


def test_quadratic_primal_prox_matches_dense_solve():
    rng = np.random.default_rng(37)
    w = rng.standard_normal((3, 3))
    w /= np.abs(w).sum()
    m, n = 5, 4
    K = make_convolution_operator(Kernel2D(w), m, n)
    Kd = MatrixOperator(dense_convolution_matrix(w, m, n))
    z = rng.standard_normal(m * n)
    b = rng.standard_normal(m * n)
    step, mu = 2.5, 30.0
    np.testing.assert_allclose(
        prox_quadratic_primal(z, step, K, K.adjoint(b), mu),
        prox_quadratic_primal(z, step, Kd, Kd.adjoint(b), mu),
        atol=1e-10,
    )


def test_quadratic_primal_prox_decrease_100_competitors():
    rng = np.random.default_rng(41)
    K = make_convolution_operator(make_average_kernel(3), 4, 4)
    z = rng.standard_normal(16)
    b = rng.standard_normal(16)
    step, mu = 1.7, 8.0
    out = prox_quadratic_primal(z, step, K, K.adjoint(b), mu)

    def objective(pt):
        r = K.apply(pt) - b
        return (0.5 * mu * float(r @ r)
                + float((pt - z) @ (pt - z)) / (2.0 * step))

    f_out = objective(out)
    for _ in range(100):
        q = out + rng.standard_normal(16) * 0.5
        assert f_out <= objective(q) + 1e-12


@pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
def test_smoothed_tv_dual_prox_refuses_a_point_that_is_not_a_flat_vector(with_out):
    out = np.zeros(4) if with_out else None
    with pytest.raises(ContractViolationError, match="flat vector"):
        prox_smoothed_tv_dual(np.ones((2, 2)), 0.5, 0.1, out=out)
    if with_out:
        assert not out.any()


def test_quadratic_primal_prox_rejects_unsupported_operator():
    D = make_difference_operator(2, 2)
    with pytest.raises(ContractViolationError):
        prox_quadratic_primal(np.zeros(4), 1.0, D, np.zeros(4), 1.0)


def _counting_transforms(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        real = getattr(np.fft, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_quadratic_primal_prox_takes_three_real_transforms(monkeypatch):
    # K* b comes in precomputed and F(rhs) is reused by the residual check,
    # so a call spends F(rhs), its inverse and F(x); each 2-D transform is
    # two 1-D passes.
    rng = np.random.default_rng(43)
    K = make_convolution_operator(make_average_kernel(3), 6, 5)
    z = rng.standard_normal(30)
    Ktb = K.adjoint(rng.standard_normal(30))
    calls = _counting_transforms(monkeypatch)
    prox_quadratic_primal(z, 1.3, K, Ktb, 20.0)
    assert sorted(calls) == ["fft", "fft", "ifft", "irfft", "rfft", "rfft"]


GRIDS = [(6, 9), (7, 5), (8, 1), (7, 1), (1, 8), (1, 7), (2, 5)]


def _random_blur(rng, m, n):
    """A random 3x3 kernel, cut to a single row or column on thin grids."""
    shape = (3 if m >= 3 else 1, 3 if n >= 3 else 1)
    return make_convolution_operator(Kernel2D(rng.random(shape)), m, n)


@pytest.mark.parametrize("m,n", GRIDS)
def test_spectral_residual_norm_equals_the_real_domain_norm(m, n):
    # at an arbitrary x, not only at the solve's own
    rng = np.random.default_rng(m * 10 + n)
    K = _random_blur(rng, m, n)
    for w in (0.0, 0.7, 1e3):
        x = rng.standard_normal(m * n)
        rhs = rng.standard_normal(m * n)
        spectral = K._shifted_residual_norm(x, K._forward(rhs), w * K.power + 1.0)
        real = np.linalg.norm(w * K.gram(x) + x - rhs)
        assert spectral == pytest.approx(real, rel=1e-6)


@pytest.mark.parametrize("m,n", GRIDS)
def test_checked_solve_matches_the_plain_solve_and_its_real_residual(m, n):
    rng = np.random.default_rng(m * 10 + n)
    K = _random_blur(rng, m, n)
    rhs = rng.standard_normal(m * n)
    for w in (0.5, 1e12):
        x, residual = K.solve_shifted_checked(rhs, w)
        # the plain solve: numpy's 2-D transforms, divided by w K*K + I
        S = np.fft.rfft2(rhs.reshape((m, n), order="F"), axes=(1, 0)) / (w * K.power + 1.0)
        plain = np.fft.irfft2(S, s=(n, m), axes=(1, 0)).reshape(-1, order="F")
        assert np.array_equal(x, plain)
        real = np.linalg.norm(w * K.gram(x) + x - rhs)
        assert residual == pytest.approx(real, rel=1e-2, abs=1e-13 * np.linalg.norm(rhs))


def test_convolution_prox_refuses_a_residual_past_the_tolerance():
    # The 3x3 average has a zero in its transfer function on a 6x9 grid, so
    # at weight 1e12 the rounding of F(x) times 1e12 leaves a residual near
    # 1e-4 against a tolerance near 1e-9 (K* b = 0 keeps rhs = z small).
    rng = np.random.default_rng(0)
    K = make_convolution_operator(make_average_kernel(3), 6, 9)
    z = rng.standard_normal(54)
    with pytest.raises(NumericalFailureError):
        prox_quadratic_primal(z, 1.0, K, np.zeros(54), 1e12)
    x, residual = K.solve_shifted_checked(z, 1e12)
    assert residual > 1e4 * 1e-10 * (1.0 + np.linalg.norm(z))
    assert residual == pytest.approx(np.linalg.norm(1e12 * K.gram(x) + x - z), rel=1e-3)
    # the same system at a moderate weight passes the guard
    prox_quadratic_primal(z, 1.0, K, np.zeros(54), 1.0)


def test_quadratic_primal_prox_residual_guard_refuses_ill_conditioned_solves():
    # M has singular values from 1 down to 1e-12, and the weight 1e20 makes
    # mu step M^T M + I too ill-conditioned for the direct solve to meet
    # the 1e-10 relative residual (it misses by a factor of 20 or more).
    rng = np.random.default_rng(0)
    n = 12
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = MatrixOperator(U @ np.diag(np.logspace(0, -12, n)) @ V.T)
    z = rng.standard_normal(n)
    b = rng.standard_normal(n)
    with pytest.raises(NumericalFailureError):
        prox_quadratic_primal(z, 1.0, K, K.adjoint(b), 1e20)
    # the same system at a moderate weight passes the guard
    prox_quadratic_primal(z, 1.0, K, K.adjoint(b), 1.0)


@pytest.mark.parametrize("dense", [False, True])
def test_quadratic_prox_checks_its_residual_at_pixel_scale_1e200(dense, monkeypatch):
    # Squares of 1e200 overflow. Both norms of the residual check are
    # scaled, so a correct solve passes and a perturbed one is refused,
    # where unscaled norms made residual and tolerance both inf and the
    # check passed whatever x was.
    rng = np.random.default_rng(5)
    m, n = 6, 8
    kernel = make_average_kernel(3)
    K = make_convolution_operator(kernel, m, n)
    if dense:
        K = MatrixOperator(dense_convolution_matrix(kernel.weights, m, n))
    z = 1e200 * rng.standard_normal(m * n)
    Ktb = K.adjoint(1e200 * rng.standard_normal(m * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = prox_quadratic_primal(z, 0.5, K, Ktb, 2.0)
        assert np.all(np.isfinite(x))
        if dense:
            solve = np.linalg.solve
            monkeypatch.setattr(np.linalg, "solve",
                                lambda a, b: solve(a, b) * (1.0 + 1e-6))
        else:
            solve = K.solve_shifted_checked

            def perturbed(rhs, w, out=None):
                x = solve(rhs, w)[0] * (1.0 + 1e-6)
                return x, K._shifted_residual_norm(x, K._forward(rhs), w * K.power + 1.0)

            monkeypatch.setattr(K, "solve_shifted_checked", perturbed)
        with pytest.raises(NumericalFailureError):
            prox_quadratic_primal(z, 0.5, K, Ktb, 2.0)


def test_spectral_residual_norm_scales_with_its_input():
    rng = np.random.default_rng(7)
    K = _random_blur(rng, 6, 8)
    shift = 0.7 * K.power + 1.0
    x, rhs = rng.standard_normal(48), rng.standard_normal(48)
    unit = K._shifted_residual_norm(x, K._forward(rhs), shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e200, 1e-200):
            big = K._shifted_residual_norm(scale * x, K._forward(scale * rhs), shift)
            assert big == pytest.approx(scale * unit, rel=1e-12)
    assert scaled_norm(np.zeros(3)) == 0.0
    assert scaled_norm(np.array([3e300, -4e300])) == pytest.approx(5e300, rel=1e-15)
    assert scaled_norm(np.array([1.0, np.inf])) == np.inf
    assert np.isnan(scaled_norm(np.array([1.0, np.nan])))


def _scaled_reference(v) -> float:
    """Blue's scaled norm written out: divide by the largest real or
    imaginary part, then square."""
    flat = np.asarray(v).reshape(-1)
    if flat.dtype.kind == "c":
        flat = np.concatenate([flat.real, flat.imag])
    scale = np.max(np.abs(flat))
    return float(scale * np.sqrt(np.sum((flat / scale) ** 2)))


def _count_scaled_paths(monkeypatch):
    """Count the calls that only the scaled (fallback) computation makes."""
    calls = []
    largest = linops._largest_component

    def counted(v):
        calls.append(v.size)
        return largest(v)

    monkeypatch.setattr(linops, "_largest_component", counted)
    return calls


def test_norms_take_one_plain_pass_on_ordinary_inputs(monkeypatch):
    # Drawn inputs over magnitudes 1e-100 .. 1e100, real and complex: the
    # norm is the plain sqrt(v . v), which agrees with the scaled value
    # within 1e-13, and the scaled computation never runs.
    rng = np.random.default_rng(11)
    calls = _count_scaled_paths(monkeypatch)
    for trial in range(60):
        size = int(rng.integers(1, 5000))
        scale = 10.0 ** rng.uniform(-100, 100)
        v = scale * rng.standard_normal(size)
        if trial % 3 == 0:
            v = v + 1j * scale * rng.standard_normal(size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = scaled_norm(v)
        assert got == pytest.approx(_scaled_reference(v), rel=1e-13)
    assert calls == []


@pytest.mark.parametrize("m,n", GRIDS)
def test_spectral_residual_norm_fast_and_scaled_values_agree(m, n, monkeypatch):
    rng = np.random.default_rng(m * 10 + n + 1)
    K = _random_blur(rng, m, n)
    for w in (0.0, 0.7, 1e3):
        x, rhs = rng.standard_normal(m * n), rng.standard_normal(m * n)
        R, shift = K._forward(rhs), w * K.power + 1.0
        fast = K._shifted_residual_norm(x, R, shift)
        with monkeypatch.context() as mp:
            # no plain sum is trusted, so the scaled sums are taken
            mp.setattr(linops, "SAFE_SUM_OF_SQUARES", np.inf)
            calls = _count_scaled_paths(mp)
            scaled = K._shifted_residual_norm(x, R, shift)
            assert calls
        assert fast == pytest.approx(scaled, rel=1e-13)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norms_past_the_safe_range_take_the_scaled_path(scale, monkeypatch):
    # 1e200 squared overflows and 1e-200 squared underflows to 0, so the
    # plain sums are not trusted and the scaled ones give the norm.
    rng = np.random.default_rng(3)
    K = _random_blur(rng, 6, 8)
    v, x, rhs = (rng.standard_normal(48) for _ in range(3))
    shift = 0.7 * K.power + 1.0
    unit_norm = scaled_norm(v)
    unit_residual = K._shifted_residual_norm(x, K._forward(rhs), shift)
    calls = _count_scaled_paths(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert scaled_norm(scale * v) == pytest.approx(scale * unit_norm, rel=1e-13)
        assert calls == [48]
        residual = K._shifted_residual_norm(scale * x, K._forward(scale * rhs), shift)
    assert residual == pytest.approx(scale * unit_residual, rel=1e-12)
    assert calls == [48, 2 * 4 * 8, 2 * 8, 2 * 8]


def test_norms_of_nan_inf_and_zero_inputs():
    K = _random_blur(np.random.default_rng(4), 6, 8)
    shift = 0.7 * K.power + 1.0
    zeros = np.zeros(48)
    R0 = K._forward(zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for v in (zeros, np.zeros(5, dtype=complex), np.zeros(0)):
            assert scaled_norm(v) == 0.0
        assert scaled_norm(np.array([np.inf, 1.0])) == np.inf
        assert scaled_norm(np.array([1.0, -np.inf])) == np.inf
        assert scaled_norm(np.array([1e300, 1e300j, np.inf])) == np.inf
        assert np.isnan(scaled_norm(np.array([1.0, np.nan])))
        assert np.isnan(scaled_norm(np.array([np.inf, np.nan])))
        assert K._shifted_residual_norm(zeros, R0, shift) == 0.0
        R = R0.copy(order="F")
        R[1, 2] = np.inf
        assert K._shifted_residual_norm(zeros, R, shift) == np.inf
        R[1, 2] = np.nan
        assert np.isnan(K._shifted_residual_norm(zeros, R, shift))


def test_a_nan_residual_is_refused_by_the_prox(monkeypatch):
    K = make_convolution_operator(make_average_kernel(3), 6, 8)
    z = np.random.default_rng(6).standard_normal(48)
    solve = K.solve_shifted_checked
    monkeypatch.setattr(K, "solve_shifted_checked",
                        lambda rhs, w, out=None: (solve(rhs, w)[0], np.nan))
    with pytest.raises(NumericalFailureError):
        prox_quadratic_primal(z, 0.5, K, np.zeros(48), 2.0)


@pytest.mark.parametrize("dense", [False, True])
def test_an_overflowing_prox_weight_is_refused_before_any_array_work(dense):
    # mu step = 3000 * 1.25e305 overflows to inf; the solve used to run on
    # it, warn four times and fail its residual check
    kernel = make_average_kernel(3)
    K = make_convolution_operator(kernel, 6, 8)
    if dense:
        K = MatrixOperator(dense_convolution_matrix(kernel.weights, 6, 8))
    z = np.random.default_rng(8).standard_normal(48)
    before = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailureError, match=r"mu \* step = 3000.0 \* 1.25e\+305"):
            prox_quadratic_primal(z, 1.25e305, K, np.ones(48), 3000.0, out=z)
    assert np.array_equal(z, before)
