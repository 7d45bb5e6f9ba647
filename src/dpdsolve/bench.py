"""Dense synthetic saddle instances with analytically certified solutions.

The instance family is

    f(x) = 0.5 ||C x - d||^2 + 0.5 lam ||x||^2,
    g(y) = 0.5 mu_g ||y||^2   (optionally plus a centered ball indicator),

coupled by a dense random A. With mu_g > 0 the saddle point solves the
linear system (C'C + lam I + A'A / mu_g) x* = C' d, y* = A x* / mu_g,
so every guarantee can be checked against an exact reference. Making C
wide (fewer rows than columns) with lam = 0 gives mu_f exactly zero,
which exercises the weakly convex schedules honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    NumericalFailureError,
    UnsupportedPointError,
)
from .linops import MatrixOperator
from .model import Array, DualProxOracle, PrimalOracle, SaddleProblem


# The most secant steps, each one direct solve, that the ball-capped
# certification takes after the solve that sets the radius.
_SECANT_STEPS = 13


@dataclass
class QuadraticSaddle:
    """A generated instance bundled with its certified solution."""

    problem: SaddleProblem
    x_star: Array
    y_star: Array
    C: Array
    d: Array
    lam: float

    def initial_distances(self, x1=None, y1=None) -> tuple[float, float]:
        """Squared distances from a start pair (default zeros) to the
        certified solution."""
        x1 = np.zeros_like(self.x_star) if x1 is None else np.asarray(x1, float)
        y1 = np.zeros_like(self.y_star) if y1 is None else np.asarray(y1, float)
        dx = self.x_star - x1
        dy = self.y_star - y1
        return float(dx @ dx), float(dy @ dy)


def _draw_instance_data(n_primal: int, n_dual: int, seed: int,
                        c_rows: Optional[int], mu_g: float, lam: float):
    """Check mu_g, lam and the dimensions, then draw C, d and A and form
    f's Hessian H = C'C + lam I and C'd, which both instance builders use.

    With lam = 0 and rows + n_dual <= n_primal, generic data admit an x
    with C x = d and A x = 0: the dual solution is zero, the primal one
    need not be unique and no ball can bind, so such data are refused
    before anything is drawn."""
    if not 0.0 < mu_g < math.inf:
        raise ConfigurationError(
            f"mu_g must be positive and finite for a certified solution, got {mu_g!r}")
    # The solution divides by mu_g; a subnormal one overflows 1 / mu_g.
    if not math.isfinite(1.0 / float(mu_g)):
        raise ConfigurationError(
            f"mu_g {mu_g!r} is too small: its reciprocal is not finite")
    if not 0.0 <= lam < math.inf:
        raise ConfigurationError(f"lam must be nonnegative and finite, got {lam!r}")
    rows = n_primal if c_rows is None else int(c_rows)
    if min(n_primal, n_dual, rows) < 1:
        raise ConfigurationError(
            f"n_primal {n_primal}, n_dual {n_dual} and the {rows} rows of C "
            "must each be at least 1")
    if lam == 0.0 and rows + n_dual <= n_primal:
        raise ConfigurationError(
            f"with lam = 0, the {rows} rows of C plus n_dual {n_dual} must "
            f"exceed n_primal {n_primal}, or the dual solution is zero")
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((rows, n_primal))
    d = rng.standard_normal(rows)
    A = rng.standard_normal((n_dual, n_primal))
    return C, d, A, C.T @ C + lam * np.eye(n_primal), C.T @ d


def _problem_from_data(C, d, A, H, Ctd, lam: float, mu_g: float,
                       ball_radius: Optional[float]) -> SaddleProblem:
    """Assemble oracles and the coupling operator for one dense instance,
    with f's Hessian H and C'd."""
    n_primal = C.shape[1]
    # H = V diag(eigs) V^T, factored once so that every prox is a
    # diagonal scaling in the eigenbasis.
    eigs, V = np.linalg.eigh(H)
    L_f = float(eigs[-1])
    # With a genuine null space the smallest modulus is exactly lam.
    mu_f = float(lam) if C.shape[0] < n_primal else float(max(eigs[0], 0.0))

    def f_value(x):
        r = C @ x - d
        return 0.5 * float(r @ r) + 0.5 * lam * float(x @ x)

    # The oracles write into `out` when one is given, which may be their
    # input: each reads it whole before the output is written.
    def f_grad(x, out=None):
        ridge = lam * x
        out = np.matmul(C.T, C @ x - d, out=out)
        out += ridge
        return out

    def f_prox(z, step, out=None):
        # (step H + I)^{-1} (step C^T d + z)
        return np.matmul(V, (V.T @ (step * Ctd + z)) / (step * eigs + 1.0), out=out)

    f = PrimalOracle(value=f_value, grad=f_grad, prox=f_prox,
                     lipschitz_L_f=L_f, mu_f=mu_f)

    def g_value(y):
        if ball_radius is not None and np.linalg.norm(y) > ball_radius * (1.0 + 1e-9):
            return float("inf")
        return 0.5 * mu_g * float(y @ y)

    def g_prox(z, step, mu_g, out=None):
        out = np.divide(z, 1.0 + step * mu_g, out=out)
        if ball_radius is not None:
            nrm = np.linalg.norm(out)
            if nrm > ball_radius:
                out *= ball_radius / nrm
        return out

    def g_grad(y):
        if ball_radius is not None and np.linalg.norm(y) >= ball_radius * (1.0 - 1e-12):
            raise UnsupportedPointError("gradient undefined on the ball boundary")
        return mu_g * y

    g = DualProxOracle(prox=g_prox, value=g_value, mu_g=float(mu_g), grad=g_grad)
    return SaddleProblem(f=f, g=g, A=MatrixOperator(A),
                         primal_dim=n_primal, dual_dim=A.shape[0])


def make_quadratic_saddle(n_primal: int = 20, n_dual: int = 15, seed: int = 42,
                          mu_g: float = 0.5, lam: float = 1.0,
                          c_rows: Optional[int] = None,
                          ball_radius: Optional[float] = None) -> QuadraticSaddle:
    """Build a seeded dense instance with a certified saddle point.

    Parameters
    ----------
    n_primal, n_dual : int
        Space dimensions.
    seed : int
        Seed for the dense data (PCG64 generator).
    mu_g : float
        Strong convexity weight of g; must be positive so the solution
        is computable in closed form.
    lam : float
        Extra quadratic weight on f. With square C this makes mu_f
        strictly positive.
    c_rows : int, optional
        Number of rows of C; fewer rows than n_primal together with
        lam = 0 forces mu_f = 0 exactly. With lam = 0, c_rows + n_dual
        must exceed n_primal, or ConfigurationError is raised.
    ball_radius : float, optional
        Adds an inactive centered ball indicator to g; the radius must
        strictly exceed ||y*||.
    """
    C, d, A, H, Ctd = _draw_instance_data(n_primal, n_dual, seed, c_rows, mu_g, lam)
    problem = _problem_from_data(C, d, A, H, Ctd, float(lam), float(mu_g), ball_radius)
    x_star = np.linalg.solve(H + (A.T @ A) / mu_g, Ctd)
    y_star = A @ x_star / mu_g
    if ball_radius is not None and not np.linalg.norm(y_star) < ball_radius:
        raise ConfigurationError(
            "ball_radius must strictly exceed ||y*|| so the indicator is inactive"
        )
    return QuadraticSaddle(problem=problem, x_star=x_star, y_star=y_star,
                           C=C, d=d, lam=float(lam))


def make_ball_capped_saddle(n_primal: int = 20, n_dual: int = 15,
                            seed: int = 42, mu_g: float = 0.05,
                            lam: float = 0.0, c_rows: Optional[int] = None,
                            radius_scale: float = 0.5) -> QuadraticSaddle:
    """Build a dense instance whose dual solution sits ON the ball boundary.

    Same data family as make_quadratic_saddle, but the ball radius is set
    to `radius_scale` times the unconstrained dual norm, so the indicator
    binds at the saddle with a strict multiplier. That makes the gap at
    averaged iterates decay like the dual averaging error itself (order
    1/k) rather than its square, which is the regime the constant-step
    schedules are tuned for.

    Certification: with the constraint active, x* solves
    (C'C + lam I + beta A'A) x = C'd and y* = beta A x*, where the scalar
    beta in (0, 1/mu_g) is pinned by ||y*|| = radius. In u = 1/beta this
    is the trust-region secular equation, and g(u) = 1/||y(u)|| - 1/radius
    is nearly linear in u (J. J. More and D. C. Sorensen, "Computing a
    trust region step", SIAM J. Sci. Stat. Comput. 4(3), 1983). So secant
    steps on g, each one direct solve, start from u = mu_g, whose solve
    also sets the radius, and u = mu_g / radius_scale; a step that lands
    at or below mu_g falls back to the midpoint of the last u and mu_g.
    They stop once ||y|| misses the radius by at most 1e-13 relative, once
    a step fails to shrink |g|, or after _SECANT_STEPS steps, and keep the
    best iterate. NumericalFailureError is raised unless its ||y*|| then
    matches the radius to 1e-10 relative. Degenerate data, which
    _draw_instance_data describes, are refused before any solve.
    """
    if not 0.0 < radius_scale < 1.0:
        raise ConfigurationError(
            "radius_scale must lie in (0, 1) so the ball binds at the saddle"
        )
    C, d, A, H, Ctd = _draw_instance_data(n_primal, n_dual, seed, c_rows, mu_g, lam)
    AtA = A.T @ A
    x_star = np.linalg.solve(H + AtA / mu_g, Ctd)
    y_star = A @ x_star / mu_g
    y_norm = float(np.linalg.norm(y_star))
    radius = radius_scale * y_norm
    if not radius > 0.0:
        raise ConfigurationError(
            "the unconstrained dual solution is zero; no radius can bind"
        )
    # Secant steps on g(u) = 1/||y(u)|| - 1/radius, u = 1/beta. A step that
    # does not shrink |g| ends them: the kept iterate is then the best
    # one, and no secant step divides by zero. A ||y|| of zero, as an
    # infinite u gives, counts as an infinite |g|.
    u_prev, g_prev, miss = mu_g, 1.0 / y_norm - 1.0 / radius, y_norm - radius
    u = mu_g / radius_scale
    for _ in range(_SECANT_STEPS):
        x = np.linalg.solve(H + AtA / u, Ctd)
        y = A @ x / u
        y_norm = float(np.linalg.norm(y))
        g = 1.0 / y_norm - 1.0 / radius if y_norm > 0.0 else math.inf
        if not abs(g) < abs(g_prev):
            break
        x_star, y_star, miss = x, y, abs(y_norm - radius)
        if miss <= 1e-13 * radius:
            break
        u, u_prev, g_prev = u - g * (u - u_prev) / (g - g_prev), u, g
        if u <= mu_g:
            u = 0.5 * (u_prev + mu_g)
    # Free an n-by-n array before the eigendecomposition in
    # _problem_from_data allocates its workspace.
    del AtA
    if not miss <= 1e-10 * radius:
        raise NumericalFailureError(
            f"ball-capped certification missed the radius {radius!r} by "
            f"{miss!r}"
        )

    problem = _problem_from_data(C, d, A, H, Ctd, float(lam), float(mu_g), radius)
    return QuadraticSaddle(problem=problem, x_star=x_star, y_star=y_star,
                           C=C, d=d, lam=float(lam))
