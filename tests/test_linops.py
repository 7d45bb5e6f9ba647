import numpy as np
import pytest
from conftest import dense_convolution_matrix, dense_difference_matrix

from dpdsolve.errors import ContractViolationError
from dpdsolve.linops import (
    ImageGrid,
    Kernel2D,
    MatrixOperator,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
    make_motion_kernel,
    make_stacked_operator,
)


def test_image_grid_column_major_round_trip():
    M = np.arange(6.0).reshape(2, 3)
    img = ImageGrid.from_matrix(M)
    assert img.m == 2 and img.n == 3
    # column-major: walk down each column first
    np.testing.assert_array_equal(img.data, [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])
    np.testing.assert_array_equal(img.to_matrix(), M)


def test_image_grid_validates_length():
    with pytest.raises(ContractViolationError):
        ImageGrid(2, 2, np.zeros(3))


def test_difference_operator_known_2x2():
    D = make_difference_operator(2, 2)
    x = np.array([1.0, 3.0, 2.0, 4.0])
    expected = np.array([2.0, -2.0, 2.0, -2.0, 1.0, 1.0, -1.0, -1.0])
    np.testing.assert_array_equal(D.apply(x), expected)


def test_difference_operator_matches_dense_definition():
    rng = np.random.default_rng(7)
    for m, n in [(2, 2), (3, 5), (4, 4), (1, 6)]:
        D = make_difference_operator(m, n)
        Dm = dense_difference_matrix(m, n)
        x = rng.standard_normal(m * n)
        y = rng.standard_normal(2 * m * n)
        np.testing.assert_allclose(D.apply(x), Dm @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(D.adjoint(y), Dm.T @ y, rtol=0, atol=1e-12)


def test_difference_operator_adjoint_identity_100_pairs():
    D = make_difference_operator(5, 7)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(D.dims[0])
        y = rng.standard_normal(D.dims[1])
        lhs = float(D.apply(x) @ y)
        rhs = float(x @ D.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_difference_operator_norm_bound_holds_on_4x4():
    Dm = dense_difference_matrix(4, 4)
    top = np.linalg.eigvalsh(Dm.T @ Dm)[-1]
    assert top <= 8.0 + 1e-12
    assert make_difference_operator(4, 4).norm_bound == pytest.approx(np.sqrt(8.0))


def test_convolution_known_column_kernel():
    # vertical kernel (0, 1/2, 1/2) averages each pixel with its upper
    # neighbor (circularly)
    kernel = Kernel2D(np.array([[0.0], [0.5], [0.5]]))
    K = make_convolution_operator(kernel, 4, 1)
    out = K.apply(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-14)


def test_convolution_matches_dense_definition():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 3))
    K = make_convolution_operator(Kernel2D(w), 5, 4)
    Km = dense_convolution_matrix(w, 5, 4)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    np.testing.assert_allclose(K.apply(x), Km @ x, rtol=0, atol=1e-10)
    np.testing.assert_allclose(K.adjoint(y), Km.T @ y, rtol=0, atol=1e-10)


@pytest.mark.parametrize("m, n, kh, kw", [
    (6, 4, 3, 3), (5, 7, 3, 5), (8, 1, 3, 1), (7, 1, 5, 1), (1, 6, 1, 3),
    (1, 9, 1, 5),
])
def test_convolution_gram_matches_adjoint_of_apply_and_dense_product(m, n, kh, kw):
    rng = np.random.default_rng(m * 10 + n)
    w = rng.standard_normal((kh, kw))
    K = make_convolution_operator(Kernel2D(w), m, n)
    assert K.spectrum.shape == (m // 2 + 1, n)
    Km = dense_convolution_matrix(w, m, n)
    x = rng.standard_normal(m * n)
    np.testing.assert_allclose(K.gram(x), K.adjoint(K.apply(x)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(K.gram(x), Km.T @ (Km @ x), rtol=0, atol=1e-12)
    assert K.spectral_norm == pytest.approx(np.linalg.norm(Km, 2), rel=1e-12)


def test_convolution_adjoint_identity_100_pairs():
    K = make_convolution_operator(make_average_kernel(3), 6, 5)
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        lhs = float(K.apply(x) @ y)
        rhs = float(x @ K.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_convolution_commutes_with_circular_shift():
    K = make_convolution_operator(make_average_kernel(3), 6, 6)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 6))
    shifted = np.roll(np.roll(X, 2, axis=0), -1, axis=1)

    def vec(M):
        return M.reshape(-1, order="F")

    lhs = K.apply(vec(shifted))
    rhs_img = K.apply(vec(X)).reshape((6, 6), order="F")
    rhs = vec(np.roll(np.roll(rhs_img, 2, axis=0), -1, axis=1))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_convolution_norm_bounds():
    w = np.array([[0.2, -0.1, 0.0], [0.3, 0.4, -0.2], [0.0, 0.1, 0.3]])
    K = make_convolution_operator(Kernel2D(w), 8, 8)
    assert K.norm_bound == pytest.approx(np.abs(w).sum())
    assert K.spectral_norm <= K.norm_bound + 1e-12
    dense = np.linalg.norm(dense_convolution_matrix(w, 8, 8), 2)
    assert K.spectral_norm == pytest.approx(dense, rel=1e-12)


def test_convolution_rejects_oversized_kernel():
    with pytest.raises(ContractViolationError):
        make_convolution_operator(make_average_kernel(5), 3, 8)


def test_kernel_requires_odd_dimensions():
    with pytest.raises(ContractViolationError):
        Kernel2D(np.ones((2, 3)))


def test_motion_kernel_degenerate_length_one():
    k = make_motion_kernel(1, 73.0)
    np.testing.assert_array_equal(k.weights, [[1.0]])


@pytest.mark.parametrize("length, theta", [
    (float("nan"), 0.0), (float("inf"), 0.0), (3.0, float("inf")),
    (3.0, float("nan")), (0.5, 0.0),
])
def test_motion_kernel_refuses_a_non_finite_or_short_segment(length, theta):
    # nan and infinite lengths and infinite angles used to end in
    # ValueError or OverflowError from the math module
    with pytest.raises(ContractViolationError, match="motion length"):
        make_motion_kernel(length, theta)


def test_motion_kernel_horizontal_thirds():
    k = make_motion_kernel(3, 0.0)
    assert k.weights.shape == (1, 3)
    np.testing.assert_allclose(k.weights, [[1 / 3, 1 / 3, 1 / 3]], rtol=1e-12)


def test_motion_kernel_vertical_thirds():
    k = make_motion_kernel(3, 90.0)
    assert k.weights.shape == (3, 1)
    np.testing.assert_allclose(k.weights, [[1 / 3], [1 / 3], [1 / 3]], rtol=1e-12)


@pytest.mark.parametrize("length,theta", [(3, 45.0), (7, 135.0), (5, 30.0), (30, 135.0)])
def test_motion_kernel_normalized_and_symmetric(length, theta):
    k = make_motion_kernel(length, theta)
    assert k.height % 2 == 1 and k.width % 2 == 1
    assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(k.weights >= 0.0)
    # the segment runs through the center in both directions
    np.testing.assert_allclose(k.weights, k.weights[::-1, ::-1], atol=1e-12)


def test_average_kernel():
    k = make_average_kernel(5)
    assert k.weights.shape == (5, 5)
    np.testing.assert_allclose(k.weights, np.full((5, 5), 0.04), rtol=1e-15)
    with pytest.raises(ContractViolationError):
        make_average_kernel(4)


def test_stacked_operator_known_example():
    D = make_difference_operator(2, 2)
    stack = make_stacked_operator([(1.0, D), (4.0, MatrixOperator(np.eye(4)))])
    assert stack.dims == (4, 12)
    out = stack.apply(np.full(4, 2.5))
    np.testing.assert_array_equal(out[:8], np.zeros(8))
    np.testing.assert_array_equal(out[8:], np.full(4, 10.0))
    assert stack.norm_bound == pytest.approx(np.sqrt(8.0 + 16.0))


def test_stacked_operator_adjoint_identity_100_pairs():
    D = make_difference_operator(3, 3)
    K = make_convolution_operator(make_average_kernel(3), 3, 3)
    stack = make_stacked_operator([(1.0, D), (4.0, K)])
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.standard_normal(stack.dims[0])
        y = rng.standard_normal(stack.dims[1])
        lhs = float(stack.apply(x) @ y)
        rhs = float(x @ stack.adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_stacked_operator_rejects_mismatched_parts():
    with pytest.raises(ContractViolationError):
        make_stacked_operator([(1.0, MatrixOperator(np.eye(4))),
                               (1.0, MatrixOperator(np.eye(5)))])
    with pytest.raises(ContractViolationError):
        make_stacked_operator([])


def test_matrix_operator_norm_bound_is_the_spectral_norm():
    op = MatrixOperator(np.diag([1.0, -2.0, 3.0]))
    assert op.norm_bound == pytest.approx(3.0, rel=1e-15)


def test_difference_operator_norm_bound_matches_svd():
    # sqrt(8) is attained on grids with even side lengths
    for m, n in [(8, 8), (6, 4)]:
        D = make_difference_operator(m, n)
        dense = np.linalg.norm(dense_difference_matrix(m, n), 2)
        assert D.norm_bound == pytest.approx(dense, rel=1e-12)
    D = make_difference_operator(5, 7)
    assert np.linalg.norm(dense_difference_matrix(5, 7), 2) <= D.norm_bound


def test_staggered_arrays_start_at_distinct_offsets_within_a_page():
    from dpdsolve.linops import PLACEMENT_STEP, staggered_empty

    arrays = [staggered_empty(1000) for _ in range(4096 // PLACEMENT_STEP)]
    offsets = {a.ctypes.data % 4096 for a in arrays}
    assert len(offsets) == len(arrays)
    assert all(o % 64 == 0 for o in offsets)
    assert all(a.shape == (1000,) and a.dtype == np.float64 and a.flags.c_contiguous
               and a.flags.aligned and a.flags.writeable for a in arrays)
    S = staggered_empty((5, 7), complex, order="F")
    assert S.shape == (5, 7) and S.dtype == complex and S.flags.f_contiguous
