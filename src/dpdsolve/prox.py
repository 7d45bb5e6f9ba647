"""Closed-form proximal maps and projections used by the deblurring models."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .linops import blocks, output_vector, scaled_norm

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
    blocks (see `linops.blocks` and `project_pair_block`), so no
    image-sized temporary is made.
    """
    a, b = _pair_split(y)
    out = output_vector(out, 2 * a.size, y, same_ok=True)
    out_a, out_b = out[: a.size], out[a.size :]
    if not np.may_share_memory(out, a):
        out_a[...], out_b[...] = a, b
    for blk, s, square, outside in blocks(a.size, float, float, bool):
        project_pair_block(out_a[blk], out_b[blk], s, square, outside)
    return out


def project_pair_block(a: Array, b: Array, s: Array, square: Array,
                       outside: Array) -> bool:
    """Project the pairs (a[i], b[i]) onto the unit disk in place, and
    say whether every projected pair is finite.

    `s`, `square` (float) and `outside` (bool), each of len(a), are
    scratch. Only the pairs whose squared norm s is not <= 1, nan and
    inf included, are divided by max(sqrt(s), 1), with hypot in place of
    a sqrt that overflowed; a pair with s <= 1 has sqrt(s) <= 1, and
    dividing by 1 is exact, so every entry has the bits of dividing all
    pairs. A pair inside the disk is finite, and a finite pair outside
    projects into it, so the finiteness of the block is read off the
    pairs outside alone. Their indices are the one array the call
    allocates (barring an overflow); the rest is formed in the scratch.
    """
    with np.errstate(over="ignore"):
        np.multiply(a, a, out=s)
        s += np.multiply(b, b, out=square)
    idx = np.flatnonzero(np.logical_not(np.less_equal(s, 1.0, out=outside), out=outside))
    norm = square[: idx.size]
    # mode="clip" takes into `out` unbuffered; every index is in range
    np.sqrt(np.take(s, idx, out=norm, mode="clip"), out=norm)
    # fmax skips a nan norm, so that an overflowed one is never missed;
    # `initial` serves a block with no pair outside
    if np.fmax.reduce(norm, initial=0.0) == np.inf:
        overflowed = np.isinf(norm)
        norm[overflowed] = np.hypot(a[idx[overflowed]], b[idx[overflowed]])
    np.maximum(norm, 1.0, out=norm)
    total = 0.0
    for v in (a, b):
        projected = np.take(v, idx, out=s[: idx.size], mode="clip")
        v[idx] = np.divide(projected, norm, out=projected)
        total += projected @ projected
    return math.isfinite(total)


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
    the shrunk point is formed there and projected in place. A z that is
    not a flat vector of pairs is refused before anything is written.
    """
    if step < 0.0 or mu_g < 0.0:
        raise ContractViolationError("step and mu_g must be nonnegative")
    z = np.asarray(z, dtype=float)
    _pair_split(z)
    out = output_vector(out, z.size, z, same_ok=True)
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
    (mu step K*K + I) x = mu step K* b + z with K's own
    `solve_shifted_checked(rhs, w, out=None)`, which returns x and the
    norm of its residual; an operator without one is refused. The
    package's convolution operator divides in its transform domain and
    checks the residual there, by Parseval, with three real transforms;
    its dense operator takes a direct solve and applies its own K*K. The
    returned x is verified against the normal equations: a residual
    above 1e-10 (1 + ||rhs||), or not finite, raises, and so does a
    weight mu step that overflows, before any array work. The residual
    and the tolerance's ||rhs|| are both taken as in `scaled_norm`: one BLAS
    pass when the sum of squares is safe, scaled when it overflows or
    underflows, so neither norm fails at large or tiny pixel values.

    With `out` given, which may be z itself, the right-hand side is
    formed there in blocks and x written over it, and a convolution
    keeps its spectra in its scratch arrays (see
    `ConvolutionOperator2D`), so the call allocates nothing image-sized.
    """
    if step < 0.0 or mu < 0.0:
        raise ContractViolationError("step and mu must be nonnegative")
    z = np.asarray(z, dtype=float)
    if mu == 0.0 or step == 0.0:
        x = output_vector(out, z.size, z, same_ok=True)
        np.copyto(x, z)
        return x
    solve = getattr(K, "solve_shifted_checked", None)
    if solve is None:
        raise ContractViolationError(
            "quadratic prox supports circular convolution and dense operators only"
        )
    Ktb = np.asarray(Ktb, dtype=float)
    if z.shape != (K.dims[0],) or Ktb.shape != (K.dims[0],):
        raise ContractViolationError("point or K* b shape does not match K")
    # Python floats, so that an overflowing product is inf without a warning
    w = float(mu) * float(step)
    if not math.isfinite(w):
        raise NumericalFailureError(
            f"quadratic prox weight mu * step = {mu!r} * {step!r} is not finite")
    rhs = output_vector(out, z.size, z, same_ok=True)
    # rhs = w K* b + z, with w K* b formed in blocks; rhs may be z
    for blk, scaled in blocks(z.size, float):
        np.add(np.multiply(Ktb[blk], w, out=scaled), z[blk], out=rhs[blk])
    tolerance = 1e-10 * (1.0 + scaled_norm(rhs))
    # a given out is rhs, and x is written over it
    x, residual = solve(rhs, w, out=out)
    # `not <=`, so that a nan residual is refused too
    if not residual <= tolerance:
        raise NumericalFailureError(
            "quadratic prox residual exceeds tolerance; the system is too "
            "ill-conditioned for a reliable solve"
        )
    return x
