"""Total variation image deblurring models, degradation helpers, and file I/O.

Two saddle point formulations are provided. For Gaussian noise the data
fit is a smooth quadratic and the total variation enters through its
smoothed dual, so the primal oracle is a gradient (and, because the blur
is circulant, also an exact prox). For salt-and-pepper noise the data
fit is an L1 term moved into the dual block alongside the total
variation, leaving f identically zero; that model is meant for the
proximal solver.

Images travel as ImageGrid values (column-major pixel vectors) and are
persisted as 8-bit binary PGM for viewing plus a small raw float64
sidecar ("DPDF") that preserves exact values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .linops import (
    ImageGrid,
    Kernel2D,
    make_convolution_operator,
    make_difference_operator,
    make_stacked_operator,
    output_vector,
    staggered_empty,
)
from .model import DualProxOracle, PrimalOracle, SaddleProblem
from .prox import (
    pair_norms,
    prox_linear_plus_box,
    prox_quadratic_primal,
    prox_smoothed_tv_dual,
)

# Dual prox outputs sit on their constraint boundaries to machine
# precision; this slack keeps the indicator finite there.
FEASIBILITY_TOL = 1e-9

DPDF_MAGIC = b"DPDF"


def _validate_blur_kernel(kernel: Kernel2D) -> None:
    total = float(kernel.weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise ContractViolationError(
            f"blur kernel weights must sum to 1, got {total!r}"
        )


@dataclass
class GaussianDeblurSpec:
    """Quadratic-fit deblurring model description.

    `observed` is the degraded image b, `mu` the data weight, and `mu_g`
    the dual smoothing weight of the total variation term.
    """

    observed: ImageGrid
    kernel: Kernel2D
    mu: float
    mu_g: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ConfigurationError("mu must be positive")
        if self.mu_g < 0.0:
            raise ConfigurationError("mu_g must be nonnegative")
        _validate_blur_kernel(self.kernel)


@dataclass
class SaltPepperDeblurSpec:
    """L1-fit deblurring model description.

    `alpha` weighs the data term against the total variation, and
    `mu_g0` is the dual smoothing weight (the initial one under a
    continuation, see `continuation_mu_g`).
    """

    observed: ImageGrid
    kernel: Kernel2D
    alpha: float
    mu_g0: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigurationError("alpha must be positive")
        if self.mu_g0 < 0.0:
            raise ConfigurationError("mu_g0 must be nonnegative")
        _validate_blur_kernel(self.kernel)


def build_gaussian_problem(spec: GaussianDeblurSpec) -> SaddleProblem:
    """Saddle problem for min_x (mu/2)||Kx - b||^2 + smoothed TV(x).

    The dual block holds one gradient pair per pixel, constrained to the
    unit disk and smoothed by (mu_g/2)||y||^2. The primal oracle carries
    both a gradient (for the linearized solver) and an exact prox (the
    circulant quadratic solve), so either solver family runs.
    """
    m, n = spec.observed.m, spec.observed.n
    K = make_convolution_operator(spec.kernel, m, n)
    D = make_difference_operator(m, n)
    b = spec.observed.data
    mu = float(spec.mu)

    def f_value(x):
        r = K.apply(x)
        r -= b
        return 0.5 * mu * float(r @ r)

    Ktb = K.adjoint(b, out=staggered_empty(m * n))

    # The oracles write into `out` when one is given, which may be their
    # input (K reads its input whole before it writes).
    def f_grad(x, out=None):
        r = K.gram(x, out=out)
        r -= Ktb
        r *= mu
        return r

    def f_prox(z, step, out=None):
        return prox_quadratic_primal(z, step, K, Ktb, mu, out=out)

    f = PrimalOracle(value=f_value, grad=f_grad, prox=f_prox,
                     lipschitz_L_f=mu * K.spectral_norm**2, mu_f=0.0)
    mu_g = float(spec.mu_g)

    def g_value(y):
        if np.max(pair_norms(y)) > 1.0 + FEASIBILITY_TOL:
            return float("inf")
        return 0.5 * mu_g * float(y @ y)

    g = DualProxOracle(prox=prox_smoothed_tv_dual, value=g_value, mu_g=mu_g)
    return SaddleProblem(f=f, g=g, A=D, primal_dim=m * n, dual_dim=2 * m * n)


def build_saltpepper_problem(spec: SaltPepperDeblurSpec) -> SaddleProblem:
    """Saddle problem for min_x alpha ||Kx - b||_1 + smoothed TV(x).

    The dual stacks the total variation pairs first (2mn entries) and
    the data block second (mn entries, box-constrained with a linear
    tilt), both smoothed by the same (mu_g/2)||y||^2. f is identically
    zero, so its prox is the identity and only the proximal solver
    family applies usefully.
    """
    m, n = spec.observed.m, spec.observed.n
    mn = m * n
    K = make_convolution_operator(spec.kernel, m, n)
    D = make_difference_operator(m, n)
    A = make_stacked_operator([(1.0, D), (float(spec.alpha), K)])
    tilt = np.multiply(spec.observed.data, float(spec.alpha),
                       out=staggered_empty(mn))
    mu_g0 = float(spec.mu_g0)

    def f_grad(x, out=None):
        out = output_vector(out, mn)
        out.fill(0.0)
        return out

    def f_prox(z, step, out=None):
        out = output_vector(out, mn)
        np.copyto(out, z)
        return out

    f = PrimalOracle(value=lambda x: 0.0, grad=f_grad, prox=f_prox,
                     lipschitz_L_f=0.0, mu_f=0.0)

    def g_value(y):
        v, u = y[: 2 * mn], y[2 * mn :]
        if np.max(pair_norms(v)) > 1.0 + FEASIBILITY_TOL:
            return float("inf")
        if np.max(np.abs(u)) > 1.0 + FEASIBILITY_TOL:
            return float("inf")
        return float(tilt @ u) + 0.5 * mu_g0 * float(y @ y)

    def g_prox(z, step, mu_g, out=None):
        # each block's prox reads its block whole first, so out may be z
        out = output_vector(out, 3 * mn)
        prox_smoothed_tv_dual(z[: 2 * mn], step, mu_g, out=out[: 2 * mn])
        prox_linear_plus_box(z[2 * mn :], step, tilt, mu_g=mu_g, out=out[2 * mn :])
        return out

    g = DualProxOracle(prox=g_prox, value=g_value, mu_g=mu_g0)
    return SaddleProblem(f=f, g=g, A=A, primal_dim=mn, dual_dim=3 * mn)


def continuation_mu_g(t: int, mu_g0: float, halve_every: int) -> float:
    """Smoothing weight at iteration t: mu_g0 halved every `halve_every`
    iterations (0 disables the decay). Iterations 1..halve_every use
    mu_g0 itself."""
    if t < 1:
        raise ContractViolationError("iteration counter starts at 1")
    if mu_g0 < 0.0 or halve_every < 0:
        raise ContractViolationError("mu_g0 and halve_every must be nonnegative")
    if halve_every == 0:
        return float(mu_g0)
    return float(mu_g0) * 2.0 ** (-((t - 1) // halve_every))


def add_gaussian_noise(img: ImageGrid, sigma: float, seed: int) -> ImageGrid:
    """Add white Gaussian noise of standard deviation sigma (PCG64 stream,
    reproducible from the seed). Values are not clipped."""
    if sigma < 0.0:
        raise ContractViolationError("sigma must be nonnegative")
    if sigma == 0.0:
        return ImageGrid(img.m, img.n, img.data.copy())
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, img.data.size)
    return ImageGrid(img.m, img.n, img.data + noise)


def add_salt_pepper(img: ImageGrid, fraction: float, seed: int) -> ImageGrid:
    """Overwrite round(fraction * pixels) distinct pixels with 0 or 1.

    Pixel positions come from a seeded permutation and the 0/1 values
    from the same PCG64 stream, so the corruption is reproducible.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ContractViolationError("fraction must lie in [0, 1]")
    size = img.data.size
    count = int(round(fraction * size))
    data = img.data.copy()
    if count:
        rng = np.random.default_rng(seed)
        positions = rng.permutation(size)[:count]
        data[positions] = rng.integers(0, 2, count).astype(float)
    return ImageGrid(img.m, img.n, data)


def make_phantom(m: int, n: int) -> ImageGrid:
    """Piecewise constant test image: flat background, one rectangle, one
    disk, one horizontal bar. Deterministic, values in [0, 1]."""
    if m < 8 or n < 8:
        raise ContractViolationError("phantom needs at least an 8x8 grid")
    X = np.full((m, n), 0.15)
    X[int(0.12 * m) : int(0.52 * m), int(0.10 * n) : int(0.46 * n)] = 0.55
    rr, cc = np.mgrid[0:m, 0:n]
    r0, c0 = 0.60 * m, 0.62 * n
    rad = 0.20 * min(m, n)
    X[(rr - r0) ** 2 + (cc - c0) ** 2 <= rad**2] = 0.95
    X[int(0.78 * m) : int(0.88 * m), int(0.15 * n) : int(0.55 * n)] = 0.35
    return ImageGrid.from_matrix(X)


def write_pgm(path, img: ImageGrid) -> None:
    """Write an 8-bit binary PGM, mapping [0, 1] linearly to [0, 255]
    with ties rounded away from zero; values are clipped to [0, 1]."""
    scaled = np.clip(img.to_matrix(), 0.0, 1.0) * 255.0
    raster = np.floor(scaled + 0.5).astype(np.uint8)
    header = f"P5\n{img.n} {img.m}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes(order="C"))


def _read_pgm_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(blob):
            raise ContractViolationError("truncated PGM header")
        c = blob[i : i + 1]
        if c == b"#":
            while i < len(blob) and blob[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j : j + 1].isspace():
                j += 1
            tokens.append(blob[i:j])
            i = j
    return tokens, i + 1  # one whitespace byte separates header and raster


def read_pgm(path) -> ImageGrid:
    """Read an 8-bit binary PGM into [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens, offset = _read_pgm_tokens(blob, 4)
    if tokens[0] != b"P5":
        raise ContractViolationError("only binary (P5) PGM files are supported")
    if not all(t.isdigit() for t in tokens[1:]):
        raise ContractViolationError(
            f"malformed PGM header in {path}: {b' '.join(tokens[1:])!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise ContractViolationError("only 8-bit PGM files are supported")
    raster = blob[offset : offset + width * height]
    if len(raster) != width * height:
        raise ContractViolationError("truncated PGM raster")
    M = np.frombuffer(raster, dtype=np.uint8).reshape(height, width) / 255.0
    return ImageGrid.from_matrix(M)


def write_dpdf(path, img: ImageGrid) -> None:
    """Write the exact float64 image: magic "DPDF", two little-endian
    uint32 dimensions (m, n), then the column-major pixel vector as
    little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(DPDF_MAGIC)
        fh.write(struct.pack("<II", img.m, img.n))
        fh.write(np.ascontiguousarray(img.data, dtype="<f8").tobytes())


def read_dpdf(path) -> ImageGrid:
    """Read back a float64 sidecar written by write_dpdf."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DPDF_MAGIC:
        raise ContractViolationError("not a DPDF file")
    if len(blob) < 12:
        raise ContractViolationError("truncated DPDF header")
    m, n = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * m * n
    if len(blob) != expected:
        raise ContractViolationError(
            f"DPDF payload has {len(blob) - 12} bytes, expected {8 * m * n}"
        )
    data = np.frombuffer(blob[12:], dtype="<f8").astype(float)
    return ImageGrid(m, n, data)
