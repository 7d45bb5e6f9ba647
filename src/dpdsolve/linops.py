"""Linear operators coupling the primal and dual blocks.

All image-shaped vectors in this package are flat float64 arrays in
column-major pixel order: pixel (i, j) of an m-by-n grid lives at index
i + j * m. Operators work on those flat vectors and carry their own
`dims = (input_dim, output_dim)` and a certified spectral norm upper
bound `norm_bound`.
"""

from __future__ import annotations

import inspect
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import ContractViolationError

Array = np.ndarray

# Work that needs a temporary as large as an image forms it in blocks of
# this many float64 entries (64 KiB). An image-sized temporary, freed at
# once, leaves glibc's heap top large enough to be trimmed, and the next
# call faults it back in: about 750 page faults per call on the 512 x 512
# TV prox while a gradient ran on the other thread (150k of a run's 171k).
BLOCK = 8192


def blocks(size: int, *dtypes):
    """Cover range(size) in blocks of 64 KiB: yield each block's slice,
    then, for each of `dtypes`, a scratch array of that dtype cut to the
    block's length; every block reuses the same scratch. A block holds
    BLOCK float64 entries (fewer of a wider dtype, at least one), with
    BLOCK read when the loop starts, so that a test can patch it."""
    width = max(np.dtype(d).itemsize for d in dtypes)
    step = max(1, BLOCK * 8 // width)
    scratch = [np.empty(min(size, step), dtype=d) for d in dtypes]
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        yield (slice(lo, hi), *(a[: hi - lo] for a in scratch))


# The arrays a run keeps side by side (its state, its spare buffers, the
# transform scratch) start at staggered offsets within a 4 KiB page.
# Allocated plainly, large arrays all start at one offset (a page boundary,
# or 16 bytes past the previous array's end), and an elementwise operation
# between two of them stalls on 4K aliasing of its loads and stores: on a
# 2-vCPU Xeon VM, np.add(a, b, out=b) on 512 x 512 vectors took 0.25 ms
# with the offsets 16 bytes apart and 0.20 ms with them 256 or more apart.
PLACEMENT_STEP = 448  # bytes, a multiple of the 64-byte cache line
_placements = itertools.count()


def staggered_empty(shape, dtype=float, order: str = "C") -> Array:
    """np.empty(shape, dtype, order) whose data starts at the next of the
    offsets 0, PLACEMENT_STEP, 2 PLACEMENT_STEP, ... modulo 4096."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(np.atleast_1d(shape)) * dtype.itemsize
    base = np.empty(nbytes + 4096, dtype=np.uint8)
    start = (next(_placements) * PLACEMENT_STEP - base.ctypes.data) % 4096
    return base[start : start + nbytes].view(dtype).reshape(shape, order=order)


class LinearOperator(Protocol):
    """Structural interface every coupling operator satisfies.

    `apply` and `adjoint` write their result into `out` and return it
    when `out` is given (a contiguous float64 vector of the output's
    length); otherwise they return a fresh array, which the caller may
    overwrite. The package's operators say whether `out` may share
    memory with the input; the difference and stacked operators refuse
    it. A call with `out=` allocates nothing image-sized: what scratch
    it needs belongs to the calling thread and lives as long as the
    operator. A user operator without `out=` still works: the solvers
    call it without one and use the array it returns.
    """

    dims: tuple[int, int]
    norm_bound: float

    def apply(self, x: Array, out: Array | None = None) -> Array: ...

    def adjoint(self, y: Array, out: Array | None = None) -> Array: ...


def takes_out(fn) -> bool:
    """Whether `fn` can be called with an `out=` keyword."""
    try:
        param = inspect.signature(fn).parameters.get("out")
    except (TypeError, ValueError):
        return False
    return param is not None and param.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)


def with_out(fn):
    """`fn` itself when it takes `out=`, else a wrapper that accepts and
    drops it, so that a caller can pass `out=` either way and use the
    array that comes back."""
    if takes_out(fn):
        return fn

    def call(*args, out=None):
        return fn(*args)

    return call


def output_vector(out, dim: int, x=None, same_ok: bool = False) -> Array:
    """`out` checked to be a contiguous float64 vector of length `dim`,
    or a fresh one when it is None. With `x` given, `out` must share no
    memory with it, except, when `same_ok`, by being x entry for entry."""
    if out is None:
        return np.empty(dim)
    if not (isinstance(out, np.ndarray) and out.shape == (dim,)
            and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ContractViolationError(
            f"out must be a contiguous float64 vector of length {dim}")
    if x is not None and np.may_share_memory(out, x):
        same = (isinstance(x, np.ndarray) and x.shape == out.shape
                and x.strides == out.strides and x.ctypes.data == out.ctypes.data)
        if not (same_ok and same):
            raise ContractViolationError(
                "out may be the input itself but must not otherwise share memory "
                "with it" if same_ok else "out must not share memory with the input")
    return out


def _largest_component(v: Array) -> float:
    """max |v_i| of a flat real array (0.0 when empty, nan when v holds a
    nan), without a temporary."""
    if v.size == 0:
        return 0.0
    return max(float(np.max(v)), -float(np.min(v)))


def _sum_of_scaled_squares(v: Array, scale: float) -> float:
    """sum (v_i / scale)^2 over a flat real array, in blocks."""
    total = 0.0
    for blk, buf in blocks(v.size, float):
        b = np.divide(v[blk], scale, out=buf)
        total += float(b @ b)
    return total


def _real_entries(v) -> Array:
    """The entries of a real or complex array as a flat float64 array (a
    complex entry gives its real and imaginary parts); a view when v is
    contiguous."""
    v = np.asarray(v)
    if v.dtype.kind != "c":
        v = np.asarray(v, dtype=float)
    flat = v.reshape(-1, order="F" if v.flags.f_contiguous else "C")
    if flat.dtype.kind == "c":
        flat = np.ascontiguousarray(flat).view(np.float64)
    return flat


def scaled_norm(v) -> float:
    """Euclidean norm of a real or complex array, taken of v divided by
    its largest real or imaginary part, so that no square overflows or
    underflows. A non-finite entry gives inf or nan."""
    flat = _real_entries(v)
    scale = _largest_component(flat)
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * math.sqrt(_sum_of_scaled_squares(flat, scale))


class _ThreadScratch:
    """Scratch arrays that belong to the calling thread, each made on its
    first use there. An operator's calls may run on several threads at
    once (README: no shared mutable scratch), and a thread's arrays go
    with it."""

    def __init__(self):
        self._local = threading.local()

    def get(self, key: str, shape, dtype=float) -> Array:
        arrays = self._local.__dict__
        a = arrays.get(key)
        if a is None:
            a = arrays[key] = staggered_empty(shape, dtype, order="F")
        return a


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

    # numpy's matmul copies an input that overlaps its output, so `out`
    # may be the input itself.
    def apply(self, x, out=None) -> Array:
        return np.matmul(self.matrix, _as_vector(x, self.dims[0], "input"),
                         out=output_vector(out, self.dims[1]))

    def adjoint(self, y, out=None) -> Array:
        return np.matmul(self.matrix.T, _as_vector(y, self.dims[1], "input"),
                         out=output_vector(out, self.dims[0]))

    def gram(self, x, out=None) -> Array:
        """M^T M x."""
        return np.matmul(self.matrix.T,
                         self.matrix @ _as_vector(x, self.dims[0], "input"),
                         out=output_vector(out, self.dims[0]))


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

    def apply(self, x, out=None) -> Array:
        x = _as_vector(x, self.dims[0], "input")
        m, mn = self.m, self.m * self.n
        out = output_vector(out, 2 * mn, x)
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

    def adjoint(self, y, out=None) -> Array:
        y = _as_vector(y, self.dims[1], "input")
        m, mn = self.m, self.m * self.n
        v, h = y[:mn], y[mn:]
        out = output_vector(out, mn, y)
        np.subtract(v[:-1], v[1:], out=out[1:])
        np.subtract(v[m - 1 :: m], v[::m], out=out[::m])
        # out += the horizontal part h[i - m] - h[i] (indices mod mn, so
        # the first column wraps to the last), formed in blocks
        for blk, p in blocks(mn, float):
            lo, hi = blk.start, blk.stop
            wrap = min(hi, m)
            if lo < wrap:
                np.subtract(h[mn - m + lo : mn - m + wrap], h[lo:wrap],
                            out=p[: wrap - lo])
            start = max(lo, m)
            if start < hi:
                np.subtract(h[start - m : hi - m], h[start:hi], out=p[start - lo :])
            out[blk] += p
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

    Every method reads its input whole into a spectrum before it writes
    its output, so `out` may be the input itself. A call with `out=`
    forms its spectra in scratch arrays of the calling thread, kept for
    the operator's lifetime; a call without allocates them and keeps
    nothing.
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
        self._scratch = _ThreadScratch()

    def _spectrum_array(self, out, slot: str = "S") -> Array:
        """Where a call forms a spectrum: this thread's scratch array
        `slot` when the call writes into `out`, else a fresh array."""
        shape = (self.m // 2 + 1, self.n)
        if out is None:
            return np.empty(shape, dtype=complex, order="F")
        return self._scratch.get(slot, shape, complex)

    def _forward(self, x, S=None) -> Array:
        """The half-spectrum of x: the real transform down the columns,
        then the full transform along the rows, both into S (a fresh
        column-major array when S is None)."""
        X = _to_grid(_as_vector(x, self.dims[0], "input"), self.m, self.n)
        if S is None:
            S = self._spectrum_array(None)
        np.fft.rfft(X, axis=0, out=S)
        return np.fft.fft(S, axis=1, out=S)

    def _inverse(self, S: Array, out=None) -> Array:
        """The real vector whose half-spectrum is S, in `out` (or a fresh
        vector); S is overwritten."""
        np.fft.ifft(S, axis=1, out=S)
        out = output_vector(out, self.dims[0])
        np.fft.irfft(S, n=self.m, axis=0, out=_to_grid(out, self.m, self.n))
        return out

    def _shift_blocks(self, w: float, *spectra):
        """Blocks of w power + 1, each with the matching blocks of the
        given spectra, all flat in column-major order."""
        power = self.power.reshape(-1, order="F")
        flats = [S.reshape(-1, order="F") for S in spectra]
        for blk, shift in blocks(power.size, float):
            np.multiply(power[blk], w, out=shift)
            shift += 1.0
            yield (shift, *(f[blk] for f in flats))

    def apply(self, x, out=None) -> Array:
        S = self._forward(x, self._spectrum_array(out))
        S *= self.spectrum
        return self._inverse(S, out)

    def adjoint(self, y, out=None) -> Array:
        S = self._forward(y, self._spectrum_array(out))
        # S *= conj(spectrum), with the conjugate formed in blocks. The
        # product goes into scratch of its own: numpy rounds an in-place
        # complex product of one entry otherwise than the whole array's.
        flat, spectrum = S.reshape(-1, order="F"), self.spectrum.reshape(-1, order="F")
        for blk, conj, product in blocks(flat.size, complex, complex):
            np.conjugate(spectrum[blk], out=conj)
            flat[blk] = np.multiply(flat[blk], conj, out=product)
        return self._inverse(S, out)

    def gram(self, x, out=None) -> Array:
        """K*K x, with one transform pair."""
        S = self._forward(x, self._spectrum_array(out))
        S *= self.power
        return self._inverse(S, out)

    def solve_shifted(self, rhs, w: float, out=None) -> Array:
        """The x with (w K*K + I) x = rhs, a division in the transform
        domain."""
        S = self._forward(rhs, self._spectrum_array(out))
        for shift, s in self._shift_blocks(w, S):
            s /= shift
        return self._inverse(S, out)

    def solve_shifted_checked(self, rhs, w: float, out=None) -> tuple[Array, float]:
        """`solve_shifted(rhs, w)` and the norm of its residual
        (w K*K + I) x - rhs, with three transforms: F(rhs) is kept from
        the solve and reused by the check. A call with `out=` keeps F(rhs)
        in a second scratch array of the calling thread."""
        R = self._forward(rhs, self._spectrum_array(out, "R"))
        S = self._spectrum_array(out)
        for shift, r, s in self._shift_blocks(w, R, S):
            np.divide(r, shift, out=s)
        x = self._inverse(S, out)
        return x, self._shifted_residual_norm(x, R, w, S)

    def _shifted_residual_norm(self, x, R: Array, w: float, E=None) -> float:
        """||(w K*K + I) x - rhs|| from R = F(rhs), with E (or a fresh
        array) as the spectrum's scratch.

        The residual's half-spectrum is (w power + 1) F(x) - R. By
        Parseval its squared moduli give the real-domain norm: each row
        counts twice, for its conjugate partner, except row 0 and, for
        even m, row m/2, and the sum is divided by m n. The parts are
        divided by the largest one before they are squared, as in
        `scaled_norm`.
        """
        E = self._forward(x, E)
        for shift, e, r in self._shift_blocks(w, E, R):
            e *= shift
            e -= r
        parts = _real_entries(E)
        scale = _largest_component(parts)
        if scale == 0.0 or not math.isfinite(scale):
            return scale
        total = 2.0 * _sum_of_scaled_squares(parts, scale)
        total -= _sum_of_scaled_squares(_real_entries(E[0]), scale)
        if self.m % 2 == 0:
            total -= _sum_of_scaled_squares(_real_entries(E[-1]), scale)
        return scale * math.sqrt(max(total, 0.0) / (self.m * self.n))


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
        # each part's calls, taking `out=` whether or not the part does
        self._calls = [(s, with_out(op.apply), with_out(op.adjoint), op.dims[1])
                       for s, op in parts]
        self._scratch = _ThreadScratch()

    def apply(self, x, out=None) -> Array:
        """Each part's block, scaled, in its slice of one output; `out`
        must not share memory with x."""
        x = _as_vector(x, self.dims[0], "input")
        out = output_vector(out, self.dims[1], x)
        offset = 0
        for s, apply, _, dim in self._calls:
            block = out[offset : offset + dim]
            part = apply(x, out=block)
            if s != 1.0:
                np.multiply(part, s, out=block)
            elif part is not block:
                block[...] = part
            offset += dim
        return out

    def adjoint(self, y, out=None) -> Array:
        """The sum of the parts' scaled adjoints, added in order to a sum
        that starts from zero (so a -0.0 entry of the first becomes
        +0.0). With `out=`, which must not share memory with y, each part
        after the first is formed in a scratch vector of the calling
        thread."""
        y = _as_vector(y, self.dims[1], "input")
        in_dim = self.dims[0]
        scratch = None
        if out is not None and len(self._calls) > 1:
            scratch = self._scratch.get("part", in_dim)
        out = output_vector(out, in_dim, y)
        offset = 0
        for i, (s, _, adjoint, dim) in enumerate(self._calls):
            target = out if i == 0 else scratch
            part = adjoint(y[offset : offset + dim], out=target)
            if s != 1.0:
                part *= s
            if i == 0:
                if part is not out:
                    out[...] = part
                out += 0.0
            else:
                out += part
            offset += dim
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
