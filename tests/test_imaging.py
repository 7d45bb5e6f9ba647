import numpy as np
import pytest

from dpdsolve.errors import ConfigurationError, ContractViolationError
from dpdsolve.imaging import (
    FEASIBILITY_TOL,
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    add_gaussian_noise,
    add_salt_pepper,
    build_gaussian_problem,
    build_saltpepper_problem,
    continuation_mu_g,
    make_phantom,
    read_dpdf,
    read_pgm,
    write_dpdf,
    write_pgm,
)
from dpdsolve.linops import (
    ImageGrid,
    Kernel2D,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
    make_motion_kernel,
)
from dpdsolve.prox import pair_norms


def _small_scene(m=12, n=10, seed=0):
    clean = make_phantom(m, n)
    kernel = make_average_kernel(3)
    K = make_convolution_operator(kernel, m, n)
    blurred = ImageGrid(m, n, K.apply(clean.data))
    return clean, kernel, blurred


def test_gaussian_problem_shapes_and_constants():
    clean, kernel, blurred = _small_scene()
    spec = GaussianDeblurSpec(observed=blurred, kernel=kernel, mu=100.0,
                              mu_g=0.01)
    problem = build_gaussian_problem(spec)
    mn = 12 * 10
    assert problem.primal_dim == mn
    assert problem.dual_dim == 2 * mn
    assert problem.A.dims == (mn, 2 * mn)
    # averaging kernels pass constants unchanged, so the top frequency is 1
    assert problem.f.lipschitz_L_f == pytest.approx(100.0, rel=1e-12)
    assert problem.f.mu_f == 0.0
    assert problem.g.mu_g == 0.01


def test_gaussian_gradient_matches_finite_differences():
    clean, kernel, blurred = _small_scene()
    spec = GaussianDeblurSpec(observed=blurred, kernel=kernel, mu=7.0, mu_g=0.0)
    problem = build_gaussian_problem(spec)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(120)
    grad = problem.f.grad(x)
    h = 1e-6
    for idx in rng.permutation(120)[:12]:
        e = np.zeros(120)
        e[idx] = h
        fd = (problem.f.value(x + e) - problem.f.value(x - e)) / (2.0 * h)
        assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(grad[idx]))


def test_gaussian_dual_prox_lands_in_the_domain():
    clean, kernel, blurred = _small_scene()
    spec = GaussianDeblurSpec(observed=blurred, kernel=kernel, mu=10.0,
                              mu_g=0.01)
    problem = build_gaussian_problem(spec)
    rng = np.random.default_rng(13)
    z = 5.0 * rng.standard_normal(240)
    out = problem.g.prox(z, 0.5, problem.g.mu_g)
    assert np.max(pair_norms(out)) <= 1.0 + FEASIBILITY_TOL
    assert np.isfinite(problem.g.value(out))
    assert problem.g.value(z * 100.0) == float("inf")


def test_gaussian_primal_prox_matches_gradient_fixed_point():
    clean, kernel, blurred = _small_scene()
    spec = GaussianDeblurSpec(observed=blurred, kernel=kernel, mu=50.0,
                              mu_g=0.01)
    problem = build_gaussian_problem(spec)
    rng = np.random.default_rng(17)
    z = rng.standard_normal(120)
    x = problem.f.prox(z, 0.3)
    np.testing.assert_allclose(x + 0.3 * problem.f.grad(x), z, atol=1e-9)


def test_saltpepper_problem_block_layout():
    clean, kernel, blurred = _small_scene()
    spec = SaltPepperDeblurSpec(observed=blurred, kernel=kernel, alpha=4.0,
                                mu_g0=0.03)
    problem = build_saltpepper_problem(spec)
    mn = 120
    assert problem.primal_dim == mn
    assert problem.dual_dim == 3 * mn
    D = make_difference_operator(12, 10)
    K = make_convolution_operator(kernel, 12, 10)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(mn)
    out = problem.A.apply(x)
    np.testing.assert_allclose(out[: 2 * mn], D.apply(x), rtol=1e-14)
    np.testing.assert_allclose(out[2 * mn :], 4.0 * K.apply(x), rtol=1e-14)


def test_saltpepper_primal_oracle_is_the_identity():
    clean, kernel, blurred = _small_scene()
    spec = SaltPepperDeblurSpec(observed=blurred, kernel=kernel, alpha=4.0,
                                mu_g0=0.0)
    problem = build_saltpepper_problem(spec)
    z = np.linspace(-1.0, 1.0, 120)
    np.testing.assert_array_equal(problem.f.prox(z, 3.0), z)
    assert problem.f.value(z) == 0.0


def test_saltpepper_data_block_prox_formula():
    clean, kernel, blurred = _small_scene()
    spec = SaltPepperDeblurSpec(observed=blurred, kernel=kernel, alpha=4.0,
                                mu_g0=0.5)
    problem = build_saltpepper_problem(spec)
    mn = 120
    z = np.zeros(3 * mn)
    z[2 * mn :] = 10.0
    step = 2.0
    out = problem.g.prox(z, step, problem.g.mu_g)
    tilt = 4.0 * blurred.data
    expected = np.clip((10.0 - step * tilt) / (step * 0.5 + 1.0), -1.0, 1.0)
    np.testing.assert_allclose(out[2 * mn :], expected, rtol=1e-14)
    assert np.isfinite(problem.g.value(out))


def test_saltpepper_value_is_infinite_outside_the_box():
    clean, kernel, blurred = _small_scene()
    spec = SaltPepperDeblurSpec(observed=blurred, kernel=kernel, alpha=1.0,
                                mu_g0=0.0)
    problem = build_saltpepper_problem(spec)
    y = np.zeros(360)
    y[-1] = 1.5
    assert problem.g.value(y) == float("inf")


def test_blur_kernels_must_be_normalized():
    clean, _, blurred = _small_scene()
    bad = Kernel2D(np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ContractViolationError):
        GaussianDeblurSpec(observed=blurred, kernel=bad, mu=1.0, mu_g=0.0)
    with pytest.raises(ContractViolationError):
        SaltPepperDeblurSpec(observed=blurred, kernel=bad, alpha=1.0,
                             mu_g0=0.0)


def test_spec_parameter_validation():
    clean, kernel, blurred = _small_scene()
    with pytest.raises(ConfigurationError):
        GaussianDeblurSpec(observed=blurred, kernel=kernel, mu=0.0, mu_g=0.0)
    with pytest.raises(ConfigurationError):
        GaussianDeblurSpec(observed=blurred, kernel=kernel, mu=1.0, mu_g=-1.0)
    with pytest.raises(ConfigurationError):
        SaltPepperDeblurSpec(observed=blurred, kernel=kernel, alpha=0.0,
                             mu_g0=0.0)
    with pytest.raises(ConfigurationError):
        SaltPepperDeblurSpec(observed=blurred, kernel=kernel, alpha=1.0,
                             mu_g0=-1.0)


def test_continuation_schedule_values():
    assert continuation_mu_g(1, 0.03, 10) == pytest.approx(0.03)
    assert continuation_mu_g(10, 0.03, 10) == pytest.approx(0.03)
    assert continuation_mu_g(11, 0.03, 10) == pytest.approx(0.015)
    assert continuation_mu_g(21, 0.03, 10) == pytest.approx(0.0075)
    assert continuation_mu_g(500, 0.03, 0) == pytest.approx(0.03)
    with pytest.raises(ContractViolationError):
        continuation_mu_g(0, 0.03, 10)
    with pytest.raises(ContractViolationError):
        continuation_mu_g(1, -0.03, 10)


def test_gaussian_noise_statistics_and_determinism():
    img = ImageGrid(1000, 1000, np.zeros(10**6))
    noisy = add_gaussian_noise(img, 3e-3, seed=7)
    std = float(noisy.data.std())
    assert 0.00297 <= std <= 0.00303
    again = add_gaussian_noise(img, 3e-3, seed=7)
    assert np.array_equal(noisy.data, again.data)
    other = add_gaussian_noise(img, 3e-3, seed=8)
    assert not np.array_equal(noisy.data, other.data)
    clean = add_gaussian_noise(img, 0.0, seed=7)
    assert np.array_equal(clean.data, img.data)
    with pytest.raises(ContractViolationError):
        add_gaussian_noise(img, -1.0, seed=0)


def test_salt_pepper_corrupts_the_exact_count():
    img = ImageGrid(20, 20, np.full(400, 0.5))
    hit = add_salt_pepper(img, 0.2, seed=3)
    changed = hit.data != 0.5
    assert changed.sum() == 80
    assert set(np.unique(hit.data[changed])) <= {0.0, 1.0}
    again = add_salt_pepper(img, 0.2, seed=3)
    assert np.array_equal(hit.data, again.data)
    untouched = add_salt_pepper(img, 0.0, seed=3)
    assert np.array_equal(untouched.data, img.data)
    everything = add_salt_pepper(img, 1.0, seed=3)
    assert set(np.unique(everything.data)) <= {0.0, 1.0}
    with pytest.raises(ContractViolationError):
        add_salt_pepper(img, 1.5, seed=0)


def test_phantom_is_deterministic_and_piecewise_constant():
    a = make_phantom(64, 64)
    b = make_phantom(64, 64)
    assert np.array_equal(a.data, b.data)
    values = np.unique(a.data)
    assert values.min() >= 0.0 and values.max() <= 1.0
    assert len(values) <= 5
    assert len(values) >= 3
    with pytest.raises(ContractViolationError):
        make_phantom(4, 64)


def test_pgm_round_trip_quantizes_to_half_a_level(tmp_path):
    img = make_phantom(16, 12)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.m == 16 and back.n == 12
    assert np.max(np.abs(back.data - img.data)) <= 0.5 / 255.0 + 1e-12


def test_pgm_frozen_bytes(tmp_path):
    # one pixel per quantization case, including the round-half-away tie
    img = ImageGrid(1, 4, np.array([0.0, 1.0 / 510.0, 1.0, -3.0]))
    path = tmp_path / "tiny.pgm"
    write_pgm(path, img)
    assert path.read_bytes() == b"P5\n4 1\n255\n" + bytes([0, 1, 255, 0])


def test_pgm_reader_handles_comments_and_rejects_variants(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = read_pgm(path)
    assert img.m == 2 and img.n == 2
    assert img.to_matrix()[0, 1] == pytest.approx(64.0 / 255.0)
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ContractViolationError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ContractViolationError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(ContractViolationError):
        read_pgm(path)


def test_dpdf_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(23)
    img = ImageGrid(7, 5, rng.standard_normal(35))
    path = tmp_path / "img.dpdf"
    write_dpdf(path, img)
    back = read_dpdf(path)
    assert back.m == 7 and back.n == 5
    assert np.array_equal(back.data, img.data)


def test_dpdf_frozen_layout(tmp_path):
    img = ImageGrid(1, 2, np.array([1.0, -2.0]))
    path = tmp_path / "img.dpdf"
    write_dpdf(path, img)
    blob = path.read_bytes()
    assert blob[:4] == b"DPDF"
    assert blob[4:12] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert blob[12:] == np.array([1.0, -2.0], dtype="<f8").tobytes()


def test_dpdf_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.dpdf"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(ContractViolationError):
        read_dpdf(path)
    path.write_bytes(b"DPDF" + (2).to_bytes(4, "little")
                     + (2).to_bytes(4, "little") + bytes(8))
    with pytest.raises(ContractViolationError):
        read_dpdf(path)
    path.write_bytes(b"DPDF\x01")
    with pytest.raises(ContractViolationError):
        read_dpdf(path)


def test_motion_blur_scene_end_to_end(tmp_path):
    # degrade and write the full artifact set the way the experiments do
    clean = make_phantom(16, 16)
    kernel = make_motion_kernel(5, 45.0)
    K = make_convolution_operator(kernel, 16, 16)
    blurred = ImageGrid(16, 16, K.apply(clean.data))
    noisy = add_gaussian_noise(blurred, 3e-3, seed=1)
    write_pgm(tmp_path / "degraded.pgm", noisy)
    write_dpdf(tmp_path / "degraded.dpdf", noisy)
    exact = read_dpdf(tmp_path / "degraded.dpdf")
    assert np.array_equal(exact.data, noisy.data)
    coarse = read_pgm(tmp_path / "degraded.pgm")
    assert np.max(np.abs(coarse.data - np.clip(noisy.data, 0, 1))) \
        <= 0.5 / 255.0 + 1e-12
