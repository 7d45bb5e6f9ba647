"""Closed-form proximal maps and projections used by the deblurring models."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .linops import (ConvolutionOperator2D, MatrixOperator, blocks, output_vector,
                     scaled_norm)

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


def project_ball2_pairs(y, out=None) -> Array:
    """Project each pair (y[i], y[half + i]) onto the unit disk.

    The two halves of the input hold the first and second coordinates of
    the pairs, matching the block layout of the difference operator.
    Pairs already inside the disk pass through unchanged. The result is
    a new array, or `out` when one is given, which may be `y` itself but
    must not otherwise share memory with it. The pairs are projected in
    blocks (see `linops.blocks`), each block of `out` written after the
    same block of y is read, so no image-sized temporary is made.
    """
    a, b = _pair_split(y)
    out = output_vector(out, 2 * a.size, y, same_ok=True)
    out_a, out_b = out[: a.size], out[a.size :]
    with np.errstate(over="ignore"):
        for blk, nb, square in blocks(a.size, float, float):
            pa, pb = a[blk], b[blk]
            np.multiply(pa, pa, out=nb)
            nb += np.multiply(pb, pb, out=square)
            np.sqrt(nb, out=nb)
            # fmax skips a nan norm, so that an overflowed one is never missed
            if np.fmax.reduce(nb) == np.inf:
                overflowed = np.isinf(nb)
                nb[overflowed] = np.hypot(pa[overflowed], pb[overflowed])
            np.maximum(nb, 1.0, out=nb)
            np.divide(pa, nb, out=out_a[blk])
            np.divide(pb, nb, out=out_b[blk])
    return out


def project_box(u, lo: float, hi: float, out=None) -> Array:
    """Componentwise clamp to [lo, hi], into `out` when one is given
    (which may be u itself)."""
    if lo > hi:
        raise ContractViolationError(f"empty box: lo={lo} > hi={hi}")
    return np.clip(np.asarray(u, dtype=float), lo, hi, out=out)


def prox_smoothed_tv_dual(z, step: float, mu_g: float, out=None) -> Array:
    """Prox of the pairwise disk indicator plus (mu_g / 2) ||y||^2.

    The quadratic shrinks the point toward the origin by 1 / (1 + step *
    mu_g) and the indicator then projects each pair onto the unit disk;
    the order matters and this composition is the exact minimizer.
    The result goes into `out` when one is given, which may be z itself;
    the shrunk point is formed there and projected in place.
    """
    if step < 0.0 or mu_g < 0.0:
        raise ContractViolationError("step and mu_g must be nonnegative")
    z = np.asarray(z, dtype=float)
    if out is not None:
        output_vector(out, z.size, z, same_ok=True)
    u = np.divide(z, step * mu_g + 1.0, out=out)
    return project_ball2_pairs(u, out=u)


def prox_linear_plus_box(z, step: float, c, mu_g: float = 0.0, out=None) -> Array:
    """Prox of <c, u> plus the [-1, 1] box indicator, optionally plus
    (mu_g / 2) ||u||^2. The result goes into `out` when one is given,
    which may be z itself; step c is formed in blocks."""
    if step < 0.0 or mu_g < 0.0:
        raise ContractViolationError("step and mu_g must be nonnegative")
    z = np.asarray(z, dtype=float)
    c = np.asarray(c, dtype=float)
    if c.shape != z.shape:
        raise ContractViolationError("linear coefficient must match the point shape")
    out = output_vector(out, z.size, z, same_ok=True)
    for blk, tilt in blocks(z.size, float):
        np.subtract(z[blk], np.multiply(c[blk], step, out=tilt), out=out[blk])
    out /= step * mu_g + 1.0
    return project_box(out, -1.0, 1.0, out=out)


def prox_quadratic_primal(z, step: float, K, Ktb, mu: float, out=None) -> Array:
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

    With `out` given, which may be z itself, the right-hand side is
    formed there in blocks and x written over it, and a convolution
    keeps its spectra in its scratch arrays (see
    `ConvolutionOperator2D`), so the call allocates nothing image-sized.
    """
    if step < 0.0 or mu < 0.0:
        raise ContractViolationError("step and mu must be nonnegative")
    z = np.asarray(z, dtype=float)
    if mu == 0.0 or step == 0.0:
        if out is None:
            return z.copy()
        np.copyto(output_vector(out, z.size, z, same_ok=True), z)
        return out
    if not isinstance(K, (ConvolutionOperator2D, MatrixOperator)):
        raise ContractViolationError(
            "quadratic prox supports circular convolution and dense operators only"
        )
    Ktb = np.asarray(Ktb, dtype=float)
    if z.shape != (K.dims[0],) or Ktb.shape != (K.dims[0],):
        raise ContractViolationError("point or K* b shape does not match K")
    w = mu * step
    given = out is not None
    rhs = output_vector(out, z.size, z, same_ok=True)
    # rhs = w K* b + z, with w K* b formed in blocks; rhs may be z
    for blk, scaled in blocks(z.size, float):
        np.add(np.multiply(Ktb[blk], w, out=scaled), z[blk], out=rhs[blk])
    tolerance = 1e-10 * (1.0 + scaled_norm(rhs))
    if isinstance(K, ConvolutionOperator2D):
        x, residual = K.solve_shifted_checked(rhs, w, out=rhs if given else None)
    else:
        M = K.matrix
        x = np.linalg.solve(w * (M.T @ M) + np.eye(K.dims[0]), rhs)
        residual = scaled_norm(w * K.gram(x) + x - rhs)
        if given:
            np.copyto(rhs, x)
            x = rhs
    # `not <=`, so that a nan residual is refused too
    if not residual <= tolerance:
        raise NumericalFailureError(
            "quadratic prox residual exceeds tolerance; the system is too "
            "ill-conditioned for a reliable solve"
        )
    return x
