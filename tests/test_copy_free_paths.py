"""The imaging operators, the dual proxes and the Gaussian gradient
against the plain array formulas they replace, bitwise, on random grid
shapes.

The reference formulas below (`np.roll` and `concatenate` differences,
`rfft2`/`irfft2` transforms, stacks that scale every block and sum from
`zeros`, a dual prox that concatenates its two blocks, a disk projection
into a fresh array, a gradient `mu * (K*K x - K* b)`) are the obvious
transcriptions of each operator's definition. The package computes the
same numbers with one-output, staged or in-place code paths; these tests
check that every entry agrees, signed zeros included, also with
`linops.BLOCK` patched small and on a grid above one block. The later
tests check that each `out=` path, into a separate output or into the
input itself, gives the bits of the fresh-output path, and that a
problem whose callables take no `out=` runs bit for bit as one whose do.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense_convolution_matrix
from dpdsolve import linops, solver
from dpdsolve.bench import make_ball_capped_saddle, make_quadratic_saddle
from dpdsolve.edpd import EdpdRegime, run_edpd
from dpdsolve.errors import ContractViolationError
from dpdsolve.imaging import (
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    build_gaussian_problem,
    build_saltpepper_problem,
    make_phantom,
)
from dpdsolve.ldpd import STRONGLY_CONVEX_DUAL, LdpdRegime, run_ldpd
from dpdsolve.linops import (
    ImageGrid,
    Kernel2D,
    MatrixOperator,
    StackedOperator,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
    scaled_norm,
    takes_out,
)
from dpdsolve.model import DualProxOracle, PrimalOracle, SaddleProblem
from dpdsolve.prox import (
    project_ball2_pairs,
    project_box,
    prox_linear_plus_box,
    prox_quadratic_primal,
    prox_smoothed_tv_dual,
)

SETTINGS = settings(max_examples=40, deadline=None)

# Zeros of both signs are drawn often, so that the sign of a zero result
# is exercised as well as its value.
ENTRY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-8.0, 8.0))

# The blocked loops run with linops.BLOCK patched to these sizes as well
# as its own: with blocks of 1 and 3 entries the grids below (up to 12
# rows) span many blocks, and a column's wrap-around spans several.
BLOCKS = st.sampled_from([1, 3, linops.BLOCK])


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
@given(grid_and_vectors(2), BLOCKS)
@example((2, 2, np.zeros(4), np.array([-0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0])),
         linops.BLOCK)
@example((12, 2, np.arange(24.0), np.cos(np.arange(48.0))), 3)
def test_difference_operator_matches_roll_and_concatenate(case, block):
    m, n, x, y = case
    D = make_difference_operator(m, n)
    with mock.patch.object(linops, "BLOCK", block):
        assert_bitwise(D.apply(x), ref_diff_apply(x, m, n))
        assert_bitwise(D.adjoint(y), ref_diff_adjoint(y, m, n))


@SETTINGS
@given(st.data(), grid_and_vectors(1), st.floats(1e-3, 1e3), BLOCKS)
def test_convolution_matches_rfft2_and_irfft2(data, case, w, block):
    m, n, x, y = case
    kernel = data.draw(kernels(m, n))
    K = make_convolution_operator(kernel, m, n)
    spectrum = ref_spectrum(kernel.weights, m, n)
    assert np.array_equal(K.spectrum, spectrum)
    power = spectrum.real**2 + spectrum.imag**2
    with mock.patch.object(linops, "BLOCK", block):
        assert_bitwise(K.apply(x), ref_conv(x, spectrum, m, n))
        assert_bitwise(K.adjoint(y), ref_conv(y, np.conj(spectrum), m, n))
        assert_bitwise(K.gram(x), ref_conv(x, power, m, n))
        x_checked, _ = K.solve_shifted_checked(y, w)
        assert_bitwise(x_checked, ref_conv_solve_shifted(y, spectrum, w, m, n))


@SETTINGS
@given(st.data(), grid_and_vectors(3), st.floats(0.1, 10.0),
       st.sampled_from(["1,alpha", "alpha,1", "1", "alpha"]), BLOCKS)
def test_stacked_operator_matches_concatenate_and_zeros_plus_parts(data, case, alpha,
                                                                   layout, block):
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
    with mock.patch.object(linops, "BLOCK", block):
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


class _WithoutOut:
    """An operator whose calls take no `out=` and return fresh arrays."""

    def __init__(self, op):
        self.dims, self.norm_bound, self._op = op.dims, op.norm_bound, op

    def apply(self, x):
        return self._op.apply(x)

    def adjoint(self, y):
        return self._op.adjoint(y)


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("given_out", [False, True], ids=["fresh", "out"])
def test_stacked_parts_without_out_give_the_bits_of_parts_with_it(scale, given_out):
    # The first part, at scale 1, is the one whose fresh block the stack
    # copies into place; on this 2x2 grid its adjoint has a -0.0 at pixel 3.
    D = make_difference_operator(2, 2)
    K = make_convolution_operator(make_average_kernel(1), 2, 2)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    y = np.array([-0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 0.25])
    wrapped = StackedOperator([(1.0, _WithoutOut(D)), (scale, _WithoutOut(K))])
    plain = StackedOperator([(1.0, D), (scale, K)])
    for call, v, dim in (("apply", x, 12), ("adjoint", y, 4)):
        out = np.full(dim, np.nan) if given_out else None
        got = getattr(wrapped, call)(v, out=out)
        assert_bitwise(got, getattr(plain, call)(v))
        assert out is None or got is out


@SETTINGS
@given(st.data(), shapes(), st.floats(0.01, 100.0), st.floats(0.0, 1.0),
       st.booleans(), BLOCKS)
def test_saltpepper_dual_prox_matches_concatenated_blocks(data, shape, step, mu_g,
                                                           overflow, block):
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
    with mock.patch.object(linops, "BLOCK", block):
        assert_bitwise(g.prox(z, step, mu_g), expected)


def ref_shifted_residual_norm(x, rhs, spectrum, w, m, n):
    """||(w K*K + I) x - rhs|| by Parseval on the whole half-spectrum:
    every row counts twice except row 0 and, for even m, row m/2."""
    power = spectrum.real**2 + spectrum.imag**2
    E = ((w * power + 1.0) * np.fft.rfft2(x.reshape((m, n), order="F"), axes=(1, 0))
         - np.fft.rfft2(rhs.reshape((m, n), order="F"), axes=(1, 0)))
    counts = np.full((E.shape[0], 1), 2.0)
    counts[0] = 1.0
    if m % 2 == 0:
        counts[-1] = 1.0
    return np.sqrt(np.sum(counts * np.abs(E) ** 2) / (m * n))


@pytest.mark.parametrize("block", [1, 3, linops.BLOCK])
def test_blocked_loops_match_the_whole_array_formulas_on_a_grid_above_one_block(block):
    # The grids drawn above hold at most 144 pixels; this one holds more
    # than linops.BLOCK, so that at the default block size too every
    # blocked loop runs past its first block, with a partial last one.
    m, n = 97, 89
    assert m * n > linops.BLOCK
    rng = np.random.default_rng(31)
    kernel = Kernel2D(rng.uniform(-1.0, 1.0, (5, 3)))
    x = rng.standard_normal(m * n)
    y = 3.0 * rng.standard_normal(3 * m * n)
    c = rng.uniform(-2.0, 2.0, m * n)
    w, step, mu_g = 0.7, 0.4, 0.2
    D = make_difference_operator(m, n)
    K = make_convolution_operator(kernel, m, n)
    spectrum = ref_spectrum(kernel.weights, m, n)
    with mock.patch.object(linops, "BLOCK", block):
        assert_bitwise(D.adjoint(y[: 2 * m * n]), ref_diff_adjoint(y[: 2 * m * n], m, n))
        assert_bitwise(K.adjoint(x), ref_conv(x, np.conj(spectrum), m, n))
        assert_bitwise(StackedOperator([(1.0, D), (0.5, K)]).adjoint(y),
                       ref_diff_adjoint(y[: 2 * m * n], m, n)
                       + 0.5 * ref_conv(y[2 * m * n :], np.conj(spectrum), m, n))
        assert_bitwise(project_ball2_pairs(y[: 2 * m * n]),
                       ref_project_ball2_pairs(y[: 2 * m * n]))
        assert_bitwise(prox_linear_plus_box(x, step, c, mu_g),
                       np.clip((x - step * c) / (step * mu_g + 1.0), -1.0, 1.0))
        assert_bitwise(prox_quadratic_primal(x, step, K, c, 2.0),
                       ref_conv_solve_shifted(c * (2.0 * step) + x, spectrum,
                                              2.0 * step, m, n))
        # the block sums of the norms round differently from one sum
        x_checked, residual = K.solve_shifted_checked(y[: m * n], w)
        assert_bitwise(x_checked, ref_conv_solve_shifted(y[: m * n], spectrum, w, m, n))
        assert residual == pytest.approx(
            ref_shifted_residual_norm(x_checked, y[: m * n], spectrum, w, m, n),
            rel=1e-12)
        assert scaled_norm(y) == pytest.approx(np.linalg.norm(y), rel=1e-13)
        assert scaled_norm(spectrum) == pytest.approx(np.linalg.norm(spectrum),
                                                      rel=1e-13)


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
       st.booleans(), BLOCKS)
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
    with mock.patch.object(linops, "BLOCK", block):
        assert_bitwise(prox_smoothed_tv_dual(z, step, mu_g), expected)
        out = np.full(2 * mn, np.nan)
        assert prox_smoothed_tv_dual(z, step, mu_g, out=out) is out
        assert_bitwise(out, expected)
        u = z / (step * mu_g + 1.0)
        assert project_ball2_pairs(u, out=u) is u
        assert_bitwise(u, expected)


def _pairs_around_the_unit_circle():
    """Pairs whose squared norm a*a + b*b is 1 - 2 ulp, 1 - 1 ulp, exactly
    1, and 1 + k ulp for k = 1 .. 6, found by stepping b ulp by ulp up
    from sqrt(1 - a*a), for a few a of either sign."""
    targets = [np.nextafter(np.nextafter(1.0, 0.0), 0.0), np.nextafter(1.0, 0.0), 1.0]
    for _ in range(6):
        targets.append(np.nextafter(targets[-1], 2.0))
    pairs = []
    for a in (0.6668959017160944, -0.34011017524984455, 0.10885955911848985):
        b = np.sqrt(1.0 - a * a) * 0.999999999999995
        for _ in range(200):
            if a * a + b * b in targets:
                pairs.append((a, b))
            b = np.nextafter(b, 2.0)
    found = {a * a + b * b for a, b in pairs}
    assert found == set(targets), sorted(found)
    return pairs


EXTREME_PAIRS = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (5e-324, -5e-324), (-2.2250738585072014e-308, 1e-310), (1e-300, -1e-300),
    (1e300, 1e300), (-1e300, 3.0), (1e-300, -1e300), (1e200, -3e200),
    (np.inf, 0.0), (-np.inf, 1e300), (np.inf, -np.inf), (0.5, -np.inf),
    (np.nan, 0.5), (0.3, -np.nan), (np.nan, np.inf), (-np.nan, -0.0),
    (1.0, 2.0**-26), (0.0, -1.0), (-1.0, -0.0), (0.6, 0.8), (3.0, -4.0),
]


@pytest.mark.parametrize("block", [1, 3, linops.BLOCK])
def test_sparse_disk_projection_keeps_the_bits_of_dividing_every_pair(block):
    # Only pairs whose squared norm is not <= 1 are divided. Inside the
    # disk the division by max(norm, 1) = 1 is exact, so the result must
    # equal the reference's bits everywhere, sign bits of zeros and nans
    # included, at the edge of the disk, for subnormal, huge, infinite
    # and nan pairs, in place and out of place.
    rng = np.random.default_rng(17)
    pairs = EXTREME_PAIRS + _pairs_around_the_unit_circle()
    pairs += [tuple(p) for p in rng.standard_normal((40, 2)) * 0.8]
    order = rng.permutation(len(pairs))
    a = np.array([pairs[i][0] for i in order])
    b = np.array([pairs[i][1] for i in order])
    y = np.concatenate([a, b])
    with np.errstate(invalid="ignore"), mock.patch.object(linops, "BLOCK", block):
        expected = ref_project_ball2_pairs(y)
        assert_bitwise(project_ball2_pairs(y), expected)
        out = np.full(y.size, -np.nan)
        assert project_ball2_pairs(y, out=out) is out
        assert_bitwise(out, expected)
        u = y.copy()
        assert project_ball2_pairs(u, out=u) is u
        assert_bitwise(u, expected)
    # the pairs just outside the disk did move
    moved = ~np.isnan(y) & (y != expected)
    assert moved.sum() >= 8


@SETTINGS
@given(grid_and_vectors(1), st.floats(0.1, 1e4))
def test_gaussian_gradient_matches_the_parent_formula(case, mu):
    m, n, x, b = case
    kernel = make_average_kernel(3 if min(m, n) >= 3 else 1)
    problem = build_gaussian_problem(
        GaussianDeblurSpec(ImageGrid(m, n, b), kernel, mu=mu, mu_g=0.01))
    K = make_convolution_operator(kernel, m, n)
    assert_bitwise(problem.f.grad(x), mu * (K.gram(x) - K.adjoint(b)))


# ---------------------------------------------------------------------------
# `out=` paths: every operator, prox and oracle closure writes the same bits
# into a given output as it returns fresh, also when the output is its input
# where the callable allows that, and refuses the aliasing it does not.


def assert_out_path(fn, args, alias=True):
    """fn(*args, out=...) equals fn(*args) bit for bit, into a separate
    output (filled with nan first, and written twice, so that scratch
    reused from the first call shows) and, when `alias`, into a copy of
    args[0] that also serves as the input; otherwise out=args[0] raises."""
    expected = fn(*args)
    out = np.full(expected.shape, np.nan)
    for _ in range(2):
        assert fn(*args, out=out) is out
        assert_bitwise(out, expected)
    src = np.array(args[0], dtype=float)
    if alias:
        assert fn(src, *args[1:], out=src) is src
        assert_bitwise(src, expected)
    else:
        # the input inside the output's memory
        buf = np.full(max(src.size, expected.size), np.nan)
        buf[: src.size] = src
        with pytest.raises(ContractViolationError):
            fn(buf[: src.size], *args[1:], out=buf[: expected.size])
    assert_bitwise(fn(*args), expected)


@SETTINGS
@given(st.data(), grid_and_vectors(3), st.floats(0.1, 10.0), st.floats(1e-3, 1e3),
       BLOCKS)
def test_operator_out_paths_equal_the_fresh_paths(data, case, alpha, w, block):
    m, n, x, y = case
    mn = m * n
    kernel = data.draw(kernels(m, n))
    D = make_difference_operator(m, n)
    K = make_convolution_operator(kernel, m, n)
    M = MatrixOperator(dense_convolution_matrix(kernel.weights, m, n))
    with mock.patch.object(linops, "BLOCK", block):
        for fn, args, alias in [
            (D.apply, (x,), False), (D.adjoint, (y[: 2 * mn],), False),
            (K.apply, (x,), True), (K.adjoint, (y[:mn],), True), (K.gram, (x,), True),
            (M.apply, (x,), True), (M.adjoint, (y[:mn],), True), (M.gram, (x,), True),
            (StackedOperator([(1.0, D), (alpha, K)]).apply, (x,), False),
            (StackedOperator([(1.0, D), (alpha, K)]).adjoint, (y,), False),
            (StackedOperator([(alpha, K), (1.0, D)]).adjoint,
             (np.concatenate([y[2 * mn :], y[: 2 * mn]]),), False),
            (StackedOperator([(alpha, D)]).adjoint, (y[: 2 * mn],), False),
        ]:
            assert_out_path(fn, args, alias)
        # the dense solve is the direct solve of w M^T M + I, its residual
        # the scaled norm of the residual vector
        A = M.matrix
        x_dense = np.linalg.solve(w * (A.T @ A) + np.eye(mn), y[:mn])
        r_dense = scaled_norm(w * M.gram(x_dense) + x_dense - y[:mn])
        for op in (K, M):
            x_fresh, r_fresh = op.solve_shifted_checked(y[:mn], w)
            if op is M:
                assert_bitwise(x_fresh, x_dense)
                assert r_fresh == r_dense
            out = np.full(mn, np.nan)
            x_out, r_out = op.solve_shifted_checked(y[:mn], w, out=out)
            assert x_out is out and r_out == r_fresh
            assert_bitwise(out, x_fresh)
            rhs = y[:mn].copy()
            x_alias, r_alias = op.solve_shifted_checked(rhs, w, out=rhs)
            assert x_alias is rhs and r_alias == r_fresh
            assert_bitwise(rhs, x_fresh)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_stacked_adjoint_out_keeps_the_positive_zero(scale):
    # the -0.0 that the difference adjoint returns at pixel 3 becomes +0.0
    # in a given output as in a fresh one
    D = make_difference_operator(2, 2)
    y = np.array([-0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0])
    out = np.full(4, np.nan)
    StackedOperator([(scale, D)]).adjoint(y, out=out)
    assert not np.signbit(out[3])
    assert_bitwise(out, StackedOperator([(scale, D)]).adjoint(y))


def test_out_must_be_a_contiguous_float_vector_of_the_output_length():
    D = make_difference_operator(3, 4)
    x = np.arange(12.0)
    for out in (np.empty(23), np.empty(24, dtype=np.float32),
                np.empty(48)[::2], np.empty((2, 12))):
        with pytest.raises(ContractViolationError):
            D.apply(x, out=out)


@SETTINGS
@given(st.data(), shapes(), st.floats(0.01, 100.0), st.floats(0.0, 1.0),
       st.floats(0.1, 1e4), BLOCKS)
def test_prox_out_paths_equal_the_fresh_paths(data, shape, step, mu_g, mu, block):
    m, n = shape
    mn = m * n
    z = data.draw(arrays(np.float64, 2 * mn,
                         elements=st.one_of(ENTRY, st.floats(-50.0, 50.0))))
    c = data.draw(arrays(np.float64, mn, elements=st.floats(-2.0, 2.0)))
    kernel = make_average_kernel(3 if min(m, n) >= 3 else 1)
    K = make_convolution_operator(kernel, m, n)
    M = MatrixOperator(dense_convolution_matrix(kernel.weights, m, n))
    with mock.patch.object(linops, "BLOCK", block):
        for fn, args in [
            (project_ball2_pairs, (z,)),
            (prox_smoothed_tv_dual, (z, step, mu_g)),
            (prox_linear_plus_box, (z[:mn], step, c, mu_g)),
            (project_box, (z[:mn], -1.0, 1.0)),
            (prox_quadratic_primal, (z[:mn], step, K, K.adjoint(c), mu)),
            (prox_quadratic_primal, (z[:mn], 0.0, K, K.adjoint(c), mu)),
            (prox_quadratic_primal, (z[:mn], step, M, M.adjoint(c), mu)),
        ]:
            assert_out_path(fn, args)


def test_prox_outputs_that_partly_overlap_their_input_are_refused():
    buf = np.linspace(-3.0, 3.0, 17)
    c = np.zeros(8)
    with pytest.raises(ContractViolationError):
        prox_smoothed_tv_dual(buf[1:], 0.5, 0.1, out=buf[:-1])
    with pytest.raises(ContractViolationError):
        project_ball2_pairs(buf[:16], out=buf[1:])
    with pytest.raises(ContractViolationError):
        prox_linear_plus_box(buf[:8], 0.5, c, out=buf[1:9])


def _imaging_problems(m, n, data):
    observed = ImageGrid(m, n, data.draw(arrays(np.float64, m * n,
                                                elements=st.floats(0.0, 1.0))))
    kernel = make_average_kernel(3 if min(m, n) >= 3 else 1)
    gauss = build_gaussian_problem(GaussianDeblurSpec(observed, kernel, mu=300.0,
                                                      mu_g=0.01))
    sp = build_saltpepper_problem(SaltPepperDeblurSpec(observed, kernel, alpha=0.7,
                                                       mu_g0=0.05))
    return gauss, sp


@SETTINGS
@given(st.data(), shapes(), st.floats(0.01, 100.0), st.floats(0.0, 1.0))
def test_oracle_closure_out_paths_equal_the_fresh_paths(data, shape, step, mu_g):
    m, n = shape
    problems = list(_imaging_problems(m, n, data))
    problems.append(make_quadratic_saddle(6, 4, seed=3, lam=0.5).problem)
    problems.append(make_ball_capped_saddle(6, 4, seed=3).problem)
    for problem in problems:
        x = data.draw(arrays(np.float64, problem.primal_dim,
                             elements=st.one_of(ENTRY, st.floats(-5.0, 5.0))))
        y = data.draw(arrays(np.float64, problem.dual_dim,
                             elements=st.one_of(ENTRY, st.floats(-50.0, 50.0))))
        assert_out_path(problem.f.grad, (x,))
        assert_out_path(problem.f.prox, (x, step))
        assert_out_path(problem.g.prox, (y, step, mu_g))


def _without_out(problem):
    """The same problem through an operator and oracle closures that take
    no `out=`."""
    A, f, g = problem.A, problem.f, problem.g

    class PlainOperator:
        dims = A.dims
        norm_bound = A.norm_bound

        def apply(self, x):
            return A.apply(x)

        def adjoint(self, y):
            return A.adjoint(y)

    plain_f = PrimalOracle(value=f.value, grad=lambda x: f.grad(x),
                           prox=lambda z, step: f.prox(z, step),
                           lipschitz_L_f=f.lipschitz_L_f, mu_f=f.mu_f)
    plain_g = DualProxOracle(prox=lambda z, step, mu_g: g.prox(z, step, mu_g),
                             value=g.value, mu_g=g.mu_g)
    return SaddleProblem(plain_f, plain_g, PlainOperator(), problem.primal_dim,
                         problem.dual_dim)


def _trajectory(run, problem, regime, iters):
    seen = []
    result = run(problem, regime, np.zeros(problem.primal_dim),
                 np.zeros(problem.dual_dim), iters,
                 observer=lambda s: seen.append((s.state.x.copy(), s.state.y.copy(),
                                                 s.x, s.y)))
    return result, seen


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("family", ["ldpd", "edpd"])
@pytest.mark.parametrize("kind", ["bench", "gauss"])
def test_a_problem_whose_callables_take_no_out_runs_bit_for_bit(monkeypatch, threaded,
                                                                family, kind):
    if threaded:
        monkeypatch.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
    if kind == "bench":
        problem = make_quadratic_saddle(8, 5, seed=21, mu_g=0.4, lam=1.0).problem
    else:
        problem = build_gaussian_problem(GaussianDeblurSpec(
            make_phantom(16, 12), make_average_kernel(3), mu=300.0, mu_g=0.01))
    if family == "ldpd":
        run, regime = run_ldpd, LdpdRegime(STRONGLY_CONVEX_DUAL)
    else:
        run, regime = run_edpd, EdpdRegime(STRONGLY_CONVEX_DUAL)
    plain = _without_out(problem)
    assert not takes_out(plain.A.apply) and not takes_out(plain.g.prox)
    expected, seen_expected = _trajectory(run, problem, regime, 12)
    result, seen = _trajectory(run, plain, regime, 12)
    assert_bitwise(result.x, expected.x)
    assert_bitwise(result.y, expected.y)
    for got, want in zip(seen, seen_expected, strict=True):
        for a, b in zip(got, want, strict=True):
            assert_bitwise(a, b)
