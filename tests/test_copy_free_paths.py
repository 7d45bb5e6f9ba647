"""The imaging operators, the dual proxes and the Gaussian gradient
against the plain array formulas they replace, bitwise, on random grid
shapes.

The reference formulas below (`np.roll` and `concatenate` differences,
`rfft2`/`irfft2` transforms, stacks that scale every block and sum from
`zeros`, a dual prox that concatenates its two blocks, a disk projection
into a fresh array, a gradient `mu * (K*K x - K* b)`) are the obvious
transcriptions of each operator's definition. The package computes the
same numbers with one-output, staged or in-place code paths; these tests
check that every entry agrees, signed zeros included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpdsolve import prox
from dpdsolve.imaging import (
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    build_gaussian_problem,
    build_saltpepper_problem,
)
from dpdsolve.linops import (
    ImageGrid,
    Kernel2D,
    StackedOperator,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
)
from dpdsolve.prox import project_ball2_pairs, prox_smoothed_tv_dual

SETTINGS = settings(max_examples=40, deadline=None)

# Zeros of both signs are drawn often, so that the sign of a zero result
# is exercised as well as its value.
ENTRY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-8.0, 8.0))


def ref_diff_apply(x, m, n):
    X = x.reshape((m, n), order="F")
    dv = np.roll(X, -1, axis=0) - X
    dh = np.roll(X, -1, axis=1) - X
    return np.concatenate([dv.reshape(-1, order="F"), dh.reshape(-1, order="F")])


def ref_diff_adjoint(y, m, n):
    mn = m * n
    V = y[:mn].reshape((m, n), order="F")
    H = y[mn:].reshape((m, n), order="F")
    out = (np.roll(V, 1, axis=0) - V) + (np.roll(H, 1, axis=1) - H)
    return out.reshape(-1, order="F")


def ref_spectrum(weights, m, n):
    embedded = np.zeros((m, n))
    ch, cw = weights.shape[0] // 2, weights.shape[1] // 2
    for p in range(weights.shape[0]):
        for q in range(weights.shape[1]):
            embedded[(p - ch) % m, (q - cw) % n] += weights[p, q]
    return np.fft.rfft2(embedded, axes=(1, 0))


def ref_conv(x, multiplier, m, n):
    S = np.fft.rfft2(x.reshape((m, n), order="F"), axes=(1, 0)) * multiplier
    return np.fft.irfft2(S, s=(n, m), axes=(1, 0)).reshape(-1, order="F")


def ref_conv_solve_shifted(rhs, spectrum, w, m, n):
    power = spectrum.real**2 + spectrum.imag**2
    S = np.fft.rfft2(rhs.reshape((m, n), order="F"), axes=(1, 0))
    return np.fft.irfft2(S / (w * power + 1.0), s=(n, m), axes=(1, 0)).reshape(-1, order="F")


def ref_stacked_apply(parts, x):
    return np.concatenate([s * apply(x) for s, apply, _, _ in parts])


def ref_stacked_adjoint(parts, y, in_dim):
    out = np.zeros(in_dim)
    offset = 0
    for s, _, adjoint, out_dim in parts:
        out += s * adjoint(y[offset : offset + out_dim])
        offset += out_dim
    return out


def ref_project_ball2_pairs(y):
    half = y.size // 2
    a, b = y[:half], y[half:]
    with np.errstate(over="ignore"):
        norms = np.sqrt(a * a + b * b)
    overflowed = np.isinf(norms)
    if overflowed.any():
        norms[overflowed] = np.hypot(a[overflowed], b[overflowed])
    np.maximum(norms, 1.0, out=norms)
    return np.concatenate([a / norms, b / norms])


def ref_saltpepper_dual_prox(z, step, mu_g, tilt, mn):
    v = ref_project_ball2_pairs(z[: 2 * mn] / (step * mu_g + 1.0))
    u = np.clip((z[2 * mn :] - step * tilt) / (step * mu_g + 1.0), -1.0, 1.0)
    return np.concatenate([v, u])


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@st.composite
def shapes(draw):
    """Grid shapes of every parity, thin grids (m x 1, 1 x n) included."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12]))
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12]))
    return m, n


@st.composite
def grid_and_vectors(draw, out_factor):
    m, n = draw(shapes())
    x = draw(arrays(np.float64, m * n, elements=ENTRY))
    y = draw(arrays(np.float64, out_factor * m * n, elements=ENTRY))
    return m, n, x, y


@st.composite
def kernels(draw, m, n):
    kh = draw(st.sampled_from([h for h in (1, 3, 5) if h <= m]))
    kw = draw(st.sampled_from([w for w in (1, 3, 5) if w <= n]))
    return Kernel2D(draw(arrays(np.float64, (kh, kw), elements=st.floats(-2.0, 2.0))))


@SETTINGS
@given(grid_and_vectors(2))
@example((2, 2, np.zeros(4), np.array([-0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0])))
def test_difference_operator_matches_roll_and_concatenate(case):
    m, n, x, y = case
    D = make_difference_operator(m, n)
    assert_bitwise(D.apply(x), ref_diff_apply(x, m, n))
    assert_bitwise(D.adjoint(y), ref_diff_adjoint(y, m, n))


@SETTINGS
@given(st.data(), grid_and_vectors(1), st.floats(1e-3, 1e3))
def test_convolution_matches_rfft2_and_irfft2(data, case, w):
    m, n, x, y = case
    kernel = data.draw(kernels(m, n))
    K = make_convolution_operator(kernel, m, n)
    spectrum = ref_spectrum(kernel.weights, m, n)
    assert np.array_equal(K.spectrum, spectrum)
    power = spectrum.real**2 + spectrum.imag**2
    assert_bitwise(K.apply(x), ref_conv(x, spectrum, m, n))
    assert_bitwise(K.adjoint(y), ref_conv(y, np.conj(spectrum), m, n))
    assert_bitwise(K.gram(x), ref_conv(x, power, m, n))
    assert_bitwise(K.solve_shifted(y, w), ref_conv_solve_shifted(y, spectrum, w, m, n))
    x_checked, _ = K.solve_shifted_checked(y, w)
    assert_bitwise(x_checked, ref_conv_solve_shifted(y, spectrum, w, m, n))


@SETTINGS
@given(st.data(), grid_and_vectors(3), st.floats(0.1, 10.0),
       st.sampled_from(["1,alpha", "alpha,1", "1", "alpha"]))
def test_stacked_operator_matches_concatenate_and_zeros_plus_parts(data, case, alpha,
                                                                   layout):
    m, n, x, y = case
    kernel = data.draw(kernels(m, n))
    D = make_difference_operator(m, n)
    K = make_convolution_operator(kernel, m, n)
    spectrum = ref_spectrum(kernel.weights, m, n)
    ref_D = (lambda v: ref_diff_apply(v, m, n), lambda v: ref_diff_adjoint(v, m, n),
             2 * m * n)
    ref_K = (lambda v: ref_conv(v, spectrum, m, n),
             lambda v: ref_conv(v, np.conj(spectrum), m, n), m * n)
    scales = {"1": 1.0, "alpha": alpha}
    if "," in layout:
        s_D, s_K = (scales[s] for s in layout.split(","))
        A = StackedOperator([(s_D, D), (s_K, K)])
        parts = [(s_D, *ref_D), (s_K, *ref_K)]
    else:
        # a single difference block, whose adjoint can return -0.0
        A = StackedOperator([(scales[layout], D)])
        parts = [(scales[layout], *ref_D)]
        y = y[: 2 * m * n]
    assert_bitwise(A.apply(x), ref_stacked_apply(parts, x))
    assert_bitwise(A.adjoint(y), ref_stacked_adjoint(parts, y, m * n))


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_stacked_adjoint_keeps_the_positive_zero_of_a_sum_from_zeros(scale):
    # On this 2x2 input the difference adjoint returns -0.0 at pixel 3;
    # a sum that starts from zeros turns it into +0.0.
    D = make_difference_operator(2, 2)
    y = np.array([-0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0])
    assert np.signbit(D.adjoint(y)[3])
    parts = [(scale, None, lambda v: ref_diff_adjoint(v, 2, 2), 8)]
    assert_bitwise(StackedOperator([(scale, D)]).adjoint(y),
                   ref_stacked_adjoint(parts, y, 4))


@SETTINGS
@given(st.data(), shapes(), st.floats(0.01, 100.0), st.floats(0.0, 1.0),
       st.booleans())
def test_saltpepper_dual_prox_matches_concatenated_blocks(data, shape, step, mu_g,
                                                           overflow):
    m, n = shape
    mn = m * n
    kernel = Kernel2D(np.ones((1, 1)))
    observed = data.draw(arrays(np.float64, mn, elements=st.floats(0.0, 1.0)))
    spec = SaltPepperDeblurSpec(ImageGrid(m, n, observed), kernel, alpha=0.7,
                                mu_g0=0.05)
    g = build_saltpepper_problem(spec).g
    z = data.draw(arrays(np.float64, 3 * mn,
                         elements=st.one_of(ENTRY, st.floats(-50.0, 50.0))))
    if overflow:
        # the squares of these pairs overflow, so the projection takes its
        # hypot fallback
        z[0] = 1e200 * (step * mu_g + 1.0)
        z[mn] = -3e200 * (step * mu_g + 1.0)
    expected = ref_saltpepper_dual_prox(z, step, mu_g, 0.7 * observed, mn)
    if overflow:
        assert np.isfinite(expected).all()
    assert_bitwise(g.prox(z, step, mu_g), expected)


def assert_adjoint_identities(kernel, m, n, alpha, rng):
    K = make_convolution_operator(kernel, m, n)
    D = make_difference_operator(m, n)
    for A in (D, K, StackedOperator([(1.0, D), (alpha, K)])):
        x = rng.standard_normal(A.dims[0])
        y = rng.standard_normal(A.dims[1])
        lhs, rhs = A.apply(x) @ y, x @ A.adjoint(y)
        scale = A.norm_bound * np.linalg.norm(x) * np.linalg.norm(y)
        # Products of subnormal kernel weights round in absolute terms, so
        # the relative tolerance can underflow to 0; the floor allows one
        # smallest subnormal per product of the dense <Ax, y>.
        floor = (A.dims[0] * A.dims[1] * np.finfo(float).smallest_subnormal
                 * np.abs(x).max() * np.abs(y).max())
        assert abs(lhs - rhs) <= max(1e-12 * scale, floor)


@SETTINGS
@given(st.data(), shapes(), st.floats(0.1, 10.0))
def test_adjoint_identities_hold_on_random_grids(data, shape, alpha):
    m, n = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert_adjoint_identities(data.draw(kernels(m, n)), m, n, alpha, rng)


@pytest.mark.parametrize("weights", [[[5e-324]], [[5e-324, -1e-323, 0.0]],
                                     [[1e-310, 5e-324, 1.0]]])
@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (9, 12)])
def test_adjoint_identities_hold_for_subnormal_kernels(weights, shape):
    m, n = shape
    weights = np.array(weights)[:, :n]
    assert_adjoint_identities(Kernel2D(weights), m, n, 0.5,
                              np.random.default_rng(5))


@SETTINGS
@given(st.data(), shapes(), st.floats(0.01, 100.0), st.floats(0.0, 1.0),
       st.booleans(), st.sampled_from([1, 3, prox.SQUARE_BLOCK]))
def test_tv_dual_prox_and_the_aliased_projection_match_the_parent_formula(
        data, shape, step, mu_g, overflow, block):
    m, n = shape
    mn = m * n
    z = data.draw(arrays(np.float64, 2 * mn,
                         elements=st.one_of(ENTRY, st.floats(-50.0, 50.0))))
    if overflow:
        # the squares of this pair overflow: the hypot fallback
        z[0] = 1e200 * (step * mu_g + 1.0)
        z[mn] = -3e200 * (step * mu_g + 1.0)
    expected = ref_project_ball2_pairs(z / (step * mu_g + 1.0))
    # small blocks make the second coordinates' squares span several
    with mock.patch.object(prox, "SQUARE_BLOCK", block):
        assert_bitwise(prox_smoothed_tv_dual(z, step, mu_g), expected)
        out = np.full(2 * mn, np.nan)
        assert prox_smoothed_tv_dual(z, step, mu_g, out=out) is out
        assert_bitwise(out, expected)
        u = z / (step * mu_g + 1.0)
        assert project_ball2_pairs(u, out=u) is u
        assert_bitwise(u, expected)


@SETTINGS
@given(grid_and_vectors(1), st.floats(0.1, 1e4))
def test_gaussian_gradient_matches_the_parent_formula(case, mu):
    m, n, x, b = case
    kernel = make_average_kernel(3 if min(m, n) >= 3 else 1)
    problem = build_gaussian_problem(
        GaussianDeblurSpec(ImageGrid(m, n, b), kernel, mu=mu, mu_g=0.01))
    K = make_convolution_operator(kernel, m, n)
    assert_bitwise(problem.f.grad(x), mu * (K.gram(x) - K.adjoint(b)))
