"""Closed-form proximal maps and projections used by the deblurring models."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .linops import ConvolutionOperator2D, MatrixOperator, scaled_norm

Array = np.ndarray


def _pair_split(y) -> tuple[Array, Array]:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size % 2 != 0:
        raise ContractViolationError(
            "expected a flat vector of stacked coordinate pairs (even length)"
        )
    half = y.size // 2
    return y[:half], y[half:]


def pair_norms(y) -> Array:
    """Euclidean norms of the pairs (y[i], y[half + i])."""
    a, b = _pair_split(y)
    return np.hypot(a, b)


# project_ball2_pairs squares the second coordinates in blocks of this
# many pairs. A temporary as large as the input, freed at once, left
# glibc's heap top large enough to be trimmed, and the next call faulted
# it back in: about 750 page faults per call on the 512 x 512 TV prox
# while a gradient ran on the other thread (150k of a run's 171k).
SQUARE_BLOCK = 8192


def project_ball2_pairs(y, out=None) -> Array:
    """Project each pair (y[i], y[half + i]) onto the unit disk.

    The two halves of the input hold the first and second coordinates of
    the pairs, matching the block layout of the difference operator.
    Pairs already inside the disk pass through unchanged. The result is
    a new array, or `out` when one is given, which may be `y` itself.
    """
    a, b = _pair_split(y)
    square = np.empty(min(a.size, SQUARE_BLOCK))
    with np.errstate(over="ignore"):
        norms = a * a
        for lo in range(0, a.size, SQUARE_BLOCK):
            block = b[lo : lo + SQUARE_BLOCK]
            norms[lo : lo + SQUARE_BLOCK] += np.multiply(
                block, block, out=square[: block.size])
    np.sqrt(norms, out=norms)
    overflowed = np.isinf(norms)
    if overflowed.any():
        norms[overflowed] = np.hypot(a[overflowed], b[overflowed])
    np.maximum(norms, 1.0, out=norms)
    if out is None:
        out = np.empty(2 * a.size)
    np.divide(a, norms, out=out[: a.size])
    np.divide(b, norms, out=out[a.size :])
    return out


def project_box(u, lo: float, hi: float, out=None) -> Array:
    """Componentwise clamp to [lo, hi], into `out` when one is given."""
    if lo > hi:
        raise ContractViolationError(f"empty box: lo={lo} > hi={hi}")
    return np.clip(np.asarray(u, dtype=float), lo, hi, out=out)


def prox_smoothed_tv_dual(z, step: float, mu_g: float, out=None) -> Array:
    """Prox of the pairwise disk indicator plus (mu_g / 2) ||y||^2.

    The quadratic shrinks the point toward the origin by 1 / (1 + step *
    mu_g) and the indicator then projects each pair onto the unit disk;
    the order matters and this composition is the exact minimizer.
    The result goes into `out` when one is given; the shrunk point is
    formed there and projected in place.
    """
    if step < 0.0 or mu_g < 0.0:
        raise ContractViolationError("step and mu_g must be nonnegative")
    z = np.asarray(z, dtype=float)
    u = np.divide(z, step * mu_g + 1.0, out=out)
    return project_ball2_pairs(u, out=u)


def prox_linear_plus_box(z, step: float, c, mu_g: float = 0.0, out=None) -> Array:
    """Prox of <c, u> plus the [-1, 1] box indicator, optionally plus
    (mu_g / 2) ||u||^2. The result goes into `out` when one is given."""
    if step < 0.0 or mu_g < 0.0:
        raise ContractViolationError("step and mu_g must be nonnegative")
    z = np.asarray(z, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.shape != z.shape:
        raise ContractViolationError("linear coefficient must match the point shape")
    u = z - step * c
    u /= step * mu_g + 1.0
    return project_box(u, -1.0, 1.0, out=out)


def prox_quadratic_primal(z, step: float, K, Ktb, mu: float) -> Array:
    """Exact prox of x -> (mu / 2) ||K x - b||^2 at z with the given step.

    Takes `Ktb` = K* b, fixed for a problem, rather than b, and solves
    (mu step K*K + I) x = mu step K* b + z. Circular convolution
    operators are diagonal in their transform domain, where the solve is
    a division; dense matrix operators fall back to a direct solve. The
    returned x is verified against the normal equations, and an
    unacceptable or non-finite residual raises. The residual and the
    tolerance's ||rhs|| are both scaled norms (see `scaled_norm`), so
    neither overflows at large pixel values. A convolution checks its
    residual in the transform domain, by Parseval, so the call takes
    three real transforms; a dense operator applies its own K*K.
    """
    if step < 0.0 or mu < 0.0:
        raise ContractViolationError("step and mu must be nonnegative")
    z = np.asarray(z, dtype=float)
    if mu == 0.0 or step == 0.0:
        return z.copy()
    if not isinstance(K, (ConvolutionOperator2D, MatrixOperator)):
        raise ContractViolationError(
            "quadratic prox supports circular convolution and dense operators only"
        )
    Ktb = np.asarray(Ktb, dtype=float)
    if z.shape != (K.dims[0],) or Ktb.shape != (K.dims[0],):
        raise ContractViolationError("point or K* b shape does not match K")
    w = mu * step
    rhs = w * Ktb + z
    if isinstance(K, ConvolutionOperator2D):
        x, residual = K.solve_shifted_checked(rhs, w)
    else:
        M = K.matrix
        x = np.linalg.solve(w * (M.T @ M) + np.eye(K.dims[0]), rhs)
        residual = scaled_norm(w * K.gram(x) + x - rhs)
    # `not <=`, so that a nan residual is refused too
    if not residual <= 1e-10 * (1.0 + scaled_norm(rhs)):
        raise NumericalFailureError(
            "quadratic prox residual exceeds tolerance; the system is too "
            "ill-conditioned for a reliable solve"
        )
    return x
