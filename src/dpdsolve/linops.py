"""Linear operators coupling the primal and dual blocks.

All image-shaped vectors in this package are flat float64 arrays in
column-major pixel order: pixel (i, j) of an m-by-n grid lives at index
i + j * m. Operators work on those flat vectors and carry their own
`dims = (input_dim, output_dim)` and a certified spectral norm upper
bound `norm_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import ContractViolationError

Array = np.ndarray


class LinearOperator(Protocol):
    """Structural interface every coupling operator satisfies.

    `apply` and `adjoint` return a fresh array, which the caller may
    overwrite.
    """

    dims: tuple[int, int]
    norm_bound: float

    def apply(self, x: Array) -> Array: ...

    def adjoint(self, y: Array) -> Array: ...


def _largest_modulus(v) -> float:
    """max |v_i| of a real or complex array (0.0 when empty, nan when v
    holds a nan)."""
    return float(np.max(np.abs(v), initial=0.0))


def scaled_norm(v) -> float:
    """Euclidean norm of a real or complex array, taken of v divided by
    its largest modulus, so that no square overflows or underflows. A
    non-finite entry gives inf or nan."""
    scale = _largest_modulus(v)
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(v / scale))


def _as_vector(x, dim: int, label: str) -> Array:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise ContractViolationError(
            f"{label} must be a flat vector of length {dim}, got shape {v.shape}"
        )
    return v


def _to_grid(x: Array, m: int, n: int) -> Array:
    return x.reshape((m, n), order="F")


def _to_vector(X: Array) -> Array:
    return X.reshape(-1, order="F")


@dataclass(frozen=True)
class ImageGrid:
    """An m-by-n image stored as a flat column-major vector."""

    m: int
    n: int
    data: Array

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ContractViolationError("image dimensions must be positive")
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.size != self.m * self.n:
            raise ContractViolationError(
                f"image data has {data.size} entries, expected {self.m * self.n}"
            )
        object.__setattr__(self, "data", data)

    def to_matrix(self) -> Array:
        return _to_grid(self.data, self.m, self.n)

    @classmethod
    def from_matrix(cls, M) -> "ImageGrid":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ContractViolationError("expected a 2-d array")
        return cls(M.shape[0], M.shape[1], _to_vector(M).copy())


@dataclass(frozen=True)
class Kernel2D:
    """A small odd-sized stencil with an unambiguous center pixel."""

    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ContractViolationError("kernel weights must be a 2-d array")
        if w.shape[0] % 2 == 0 or w.shape[1] % 2 == 0:
            raise ContractViolationError(
                f"kernel dimensions must be odd, got {w.shape}"
            )
        object.__setattr__(self, "weights", w)

    @property
    def height(self) -> int:
        return self.weights.shape[0]

    @property
    def width(self) -> int:
        return self.weights.shape[1]


class MatrixOperator:
    """Dense matrix as an operator, with its exact spectral norm."""

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2:
            raise ContractViolationError("expected a 2-d matrix")
        self.matrix = M
        self.dims = (M.shape[1], M.shape[0])
        self.norm_bound = float(np.linalg.norm(M, 2)) if M.size else 0.0
        self.spectral_norm = self.norm_bound

    def apply(self, x) -> Array:
        return self.matrix @ _as_vector(x, self.dims[0], "input")

    def adjoint(self, y) -> Array:
        return self.matrix.T @ _as_vector(y, self.dims[1], "input")

    def gram(self, x) -> Array:
        """M^T M x."""
        return self.matrix.T @ (self.matrix @ _as_vector(x, self.dims[0], "input"))


def identity_operator(dim: int) -> MatrixOperator:
    return MatrixOperator(np.eye(dim))


class DifferenceOperator2D:
    """Forward differences with periodic wrap on an m-by-n grid.

    Output stacks the vertical differences (along columns, downward
    neighbor minus pixel) first and the horizontal differences second,
    each block again in column-major order, so the output length is
    2 m n and the pair for pixel i is (out[i], out[mn + i]).
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ContractViolationError("grid dimensions must be positive")
        self.m = m
        self.n = n
        self.dims = (m * n, 2 * m * n)
        # Largest singular value of the periodic difference stack; attained
        # exactly on grids with even side lengths.
        self.norm_bound = math.sqrt(8.0)

    def apply(self, x) -> Array:
        x = _as_vector(x, self.dims[0], "input")
        m, mn = self.m, self.m * self.n
        out = np.empty(2 * mn)
        dv, dh = out[:mn], out[mn:]
        # Vertical: the neighbour below is the next flat entry, except in
        # each column's last row, which wraps to the column's first.
        np.subtract(x[1:], x[:-1], out=dv[:-1])
        np.subtract(x[::m], x[m - 1 :: m], out=dv[m - 1 :: m])
        # Horizontal: the neighbour to the right is m entries on, except
        # in the last column, which wraps to the first.
        np.subtract(x[m:], x[:-m], out=dh[: mn - m])
        np.subtract(x[:m], x[mn - m :], out=dh[mn - m :])
        return out

    def adjoint(self, y) -> Array:
        y = _as_vector(y, self.dims[1], "input")
        m, mn = self.m, self.m * self.n
        v, h = y[:mn], y[mn:]
        out = np.empty(mn)
        np.subtract(v[:-1], v[1:], out=out[1:])
        np.subtract(v[m - 1 :: m], v[::m], out=out[::m])
        part = np.empty(mn)
        np.subtract(h[:-m], h[m:], out=part[m:])
        np.subtract(h[mn - m :], h[:m], out=part[:m])
        out += part
        return out


class ConvolutionOperator2D:
    """Circular convolution with a centered kernel, applied via the real FFT.

    `spectrum` is the kernel's rfft2 half-spectrum, of shape
    (m // 2 + 1, n): the real transform runs down the columns, the axis
    that is contiguous in the column-major pixel layout, and the full
    transform along the rows. `power` is its squared modulus, the
    spectrum of K*K. `norm_bound` is the absolute weight sum, which
    always dominates the true operator norm; `spectral_norm` is the exact
    norm read off the kernel's transfer function.
    """

    def __init__(self, kernel: Kernel2D, m: int, n: int):
        if kernel.height > m or kernel.width > n:
            raise ContractViolationError(
                f"kernel {kernel.height}x{kernel.width} does not fit the "
                f"{m}x{n} grid"
            )
        self.kernel = kernel
        self.m = m
        self.n = n
        self.dims = (m * n, m * n)
        embedded = np.zeros((m, n), order="F")
        ch, cw = kernel.height // 2, kernel.width // 2
        for p in range(kernel.height):
            for q in range(kernel.width):
                embedded[(p - ch) % m, (q - cw) % n] += kernel.weights[p, q]
        self.spectrum = self._forward(_to_vector(embedded))
        self.power = self.spectrum.real**2 + self.spectrum.imag**2
        self.norm_bound = float(np.abs(kernel.weights).sum())
        # The half-spectrum holds every modulus of the full one, because
        # the spectrum of a real kernel is conjugate-symmetric.
        self.spectral_norm = float(np.max(np.abs(self.spectrum)))

    def _forward(self, x) -> Array:
        """The half-spectrum of x: the real transform down the columns,
        then the full transform along the rows, both into one fresh
        column-major array."""
        X = _to_grid(_as_vector(x, self.dims[0], "input"), self.m, self.n)
        S = np.empty((self.m // 2 + 1, self.n), dtype=complex, order="F")
        np.fft.rfft(X, axis=0, out=S)
        return np.fft.fft(S, axis=1, out=S)

    def _inverse(self, S: Array) -> Array:
        """The real vector whose half-spectrum is S; S is overwritten."""
        np.fft.ifft(S, axis=1, out=S)
        out = np.empty((self.m, self.n), order="F")
        np.fft.irfft(S, n=self.m, axis=0, out=out)
        return _to_vector(out)

    def apply(self, x) -> Array:
        S = self._forward(x)
        S *= self.spectrum
        return self._inverse(S)

    def adjoint(self, y) -> Array:
        S = self._forward(y)
        S *= np.conj(self.spectrum)
        return self._inverse(S)

    def gram(self, x) -> Array:
        """K*K x, with one transform pair."""
        S = self._forward(x)
        S *= self.power
        return self._inverse(S)

    def solve_shifted(self, rhs, w: float) -> Array:
        """The x with (w K*K + I) x = rhs, a division in the transform
        domain."""
        S = self._forward(rhs)
        S /= w * self.power + 1.0
        return self._inverse(S)

    def solve_shifted_checked(self, rhs, w: float) -> tuple[Array, float]:
        """`solve_shifted(rhs, w)` and the norm of its residual
        (w K*K + I) x - rhs, with three transforms: F(rhs) is kept from
        the solve and reused by the check."""
        R = self._forward(rhs)
        shift = w * self.power + 1.0
        x = self._inverse(R / shift)
        return x, self._shifted_residual_norm(x, R, shift)

    def _shifted_residual_norm(self, x, R: Array, shift: Array) -> float:
        """||(w K*K + I) x - rhs|| from R = F(rhs) and shift = w power + 1.

        The residual's half-spectrum is shift F(x) - R. By Parseval its
        squared moduli give the real-domain norm: each row counts twice,
        for its conjugate partner, except row 0 and, for even m, row m/2,
        and the sum is divided by m n. The moduli are divided by the
        largest one before they are squared, as in `scaled_norm`.
        """
        E = self._forward(x)
        E *= shift
        E -= R
        scale = _largest_modulus(E)
        if scale == 0.0 or not math.isfinite(scale):
            return scale
        E /= scale
        rows = (E.real * E.real + E.imag * E.imag).sum(axis=1)
        weights = np.full(rows.size, 2.0)
        weights[0] = 1.0
        if self.m % 2 == 0:
            weights[-1] = 1.0
        return scale * math.sqrt(float(weights @ rows) / (self.m * self.n))


class StackedOperator:
    """Vertical stack of scaled operators sharing one input space."""

    def __init__(self, parts: Sequence[tuple[float, LinearOperator]]):
        parts = [(float(s), op) for s, op in parts]
        if not parts:
            raise ContractViolationError("a stacked operator needs at least one part")
        in_dims = {op.dims[0] for _, op in parts}
        if len(in_dims) != 1:
            raise ContractViolationError(
                f"stacked parts disagree on the input dimension: {sorted(in_dims)}"
            )
        self.parts = parts
        self.dims = (in_dims.pop(), sum(op.dims[1] for _, op in parts))
        # hypot, because squaring a large weight overflows a float
        self.norm_bound = math.hypot(*(s * op.norm_bound for s, op in parts))

    def apply(self, x) -> Array:
        x = _as_vector(x, self.dims[0], "input")
        out = np.empty(self.dims[1])
        offset = 0
        for s, op in self.parts:
            block = out[offset : offset + op.dims[1]]
            if s == 1.0:
                block[:] = op.apply(x)
            else:
                np.multiply(op.apply(x), s, out=block)
            offset += op.dims[1]
        return out

    def adjoint(self, y) -> Array:
        y = _as_vector(y, self.dims[1], "input")
        out = None
        offset = 0
        for s, op in self.parts:
            part = op.adjoint(y[offset : offset + op.dims[1]])
            if s != 1.0:
                part *= s
            if out is None:
                # 0.0 + part, as a sum that starts from zeros has it:
                # a -0.0 entry becomes +0.0.
                out = part
                out += 0.0
            else:
                out += part
            offset += op.dims[1]
        return out


def make_difference_operator(m: int, n: int) -> DifferenceOperator2D:
    """Periodic forward-difference operator on an m-by-n grid."""
    return DifferenceOperator2D(m, n)


def make_convolution_operator(kernel: Kernel2D, m: int, n: int) -> ConvolutionOperator2D:
    """Circular convolution by `kernel` on an m-by-n grid."""
    return ConvolutionOperator2D(kernel, m, n)


def make_stacked_operator(parts) -> StackedOperator:
    """Stack `[(scale, op), ...]` vertically over a shared input space."""
    return StackedOperator(parts)


def _clip_interval(t0: float, t1: float, d: float, lo: float, hi: float):
    """Intersect [t0, t1] with the set of t satisfying lo <= t * d <= hi."""
    if d == 0.0:
        if lo <= 0.0 <= hi:
            return t0, t1
        return 0.0, -1.0
    a, b = lo / d, hi / d
    if a > b:
        a, b = b, a
    return max(t0, a), min(t1, b)


def make_motion_kernel(length: float, theta_degrees: float) -> Kernel2D:
    """Line-segment blur kernel of total length `length` at angle `theta_degrees`.

    The segment passes through the kernel center, angles are measured
    counterclockwise from the horizontal axis, and each pixel's weight is
    the arc length of the segment inside that pixel's unit square, so the
    edges of slanted segments come out anti-aliased. Weights sum to one.
    """
    if length < 1:
        raise ContractViolationError("motion length must be at least 1")
    if length == 1:
        return Kernel2D(np.ones((1, 1)))
    rad = math.radians(theta_degrees)
    dx, dy = math.cos(rad), math.sin(rad)
    if abs(dx) < 1e-12:
        dx = 0.0
    if abs(dy) < 1e-12:
        dy = 0.0
    half = length / 2.0
    reach = int(math.ceil(half)) + 1
    size = 2 * reach + 1
    w = np.zeros((size, size))
    for r in range(-reach, reach + 1):
        for c in range(-reach, reach + 1):
            t0, t1 = -half, half
            # Column coordinate of the segment point is t * dx; the row
            # coordinate is -t * dy because rows grow downward.
            t0, t1 = _clip_interval(t0, t1, dx, c - 0.5, c + 0.5)
            t0, t1 = _clip_interval(t0, t1, -dy, r - 0.5, r + 0.5)
            if t1 > t0:
                w[r + reach, c + reach] = t1 - t0
    keep_rows = np.where(w.max(axis=1) > 1e-12)[0]
    keep_cols = np.where(w.max(axis=0) > 1e-12)[0]
    w = w[keep_rows.min() : keep_rows.max() + 1, keep_cols.min() : keep_cols.max() + 1]
    return Kernel2D(w / w.sum())


def make_average_kernel(size: int) -> Kernel2D:
    """Uniform size-by-size averaging kernel; `size` must be odd."""
    if size < 1 or size % 2 == 0:
        raise ContractViolationError("averaging kernel size must be odd and positive")
    return Kernel2D(np.full((size, size), 1.0 / (size * size)))


@dataclass(frozen=True)
class NormEstimate:
    """Result of a power-iteration norm estimate."""

    value: float
    iterations: int
    converged: bool

    def __float__(self) -> float:
        return self.value


def estimate_operator_norm(op: LinearOperator, tol: float = 1e-9,
                           max_iter: int = 1000, seed: int = 0) -> NormEstimate:
    """Estimate the spectral norm of `op` by power iteration on its Gram map.

    Parameters
    ----------
    op : LinearOperator
        Operator to measure.
    tol : float
        Relative stagnation threshold on successive estimates.
    max_iter : int
        Iteration cap; hitting it returns `converged=False`.
    seed : int
        Seed for the random starting vector, making the estimate
        reproducible.

    Returns
    -------
    NormEstimate
        Estimate with iteration count and a convergence flag; it floats
        to the estimated norm and never exceeds the true norm.
    """
    if tol <= 0:
        raise ContractViolationError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.dims[0])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ContractViolationError("degenerate starting vector")
    v = v / nv
    sigma = 0.0
    for it in range(1, max_iter + 1):
        w = op.adjoint(op.apply(v))
        rayleigh = float(v @ w)
        new_sigma = math.sqrt(max(rayleigh, 0.0))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return NormEstimate(new_sigma, it, True)
        done = abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-30)
        sigma = new_sigma
        v = w / nw
        if done:
            return NormEstimate(sigma, it, True)
    return NormEstimate(sigma, max_iter, False)
