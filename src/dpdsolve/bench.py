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


@dataclass
class QuadraticSaddle:
    """A generated instance bundled with its certified solution."""

    problem: SaddleProblem
    x_star: Array
    y_star: Array
    C: Array
    d: Array
    lam: float

    def initial_distances(self) -> tuple[float, float]:
        """Squared distances from the zero start pair, where every run
        starts, to the certified solution."""
        return float(self.x_star @ self.x_star), float(self.y_star @ self.y_star)


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
    with f's Hessian H and C'd; g is capped by the centred ball of radius
    `ball_radius` when one is given."""
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


def _saddle_point(H, A, Ctd, u: float):
    """x = (H + A'A / u)^{-1} C'd and y = A x / u, from one dense solve.

    For u = mu_g this is the unconstrained saddle point; for u > mu_g it
    is the saddle point on the ball of radius ||y||. The pair is refused
    with NumericalFailureError unless it meets primal stationarity,
    ||H x + A'y - C'd|| <= 1e-9 (||H x|| + ||A'y|| + ||C'd||), which a
    nan fails too: a tiny u leaves the solve no accurate digit, or
    overflows A'A / u, so that the pair is wrong or not finite."""
    with np.errstate(all="ignore"):
        x = np.linalg.solve(H + (A.T @ A) / u, Ctd)
        y = A @ x / u
        terms = (H @ x, A.T @ y, -Ctd)
        miss = float(np.linalg.norm(sum(terms)))
        scale = sum(float(np.linalg.norm(t)) for t in terms)
    if not miss <= 1e-9 * scale:
        raise NumericalFailureError(f"stationarity missed by {miss!r} of {scale!r}")
    return x, y


def make_quadratic_saddle(n_primal: int = 20, n_dual: int = 15, seed: int = 42,
                          mu_g: float = 0.5, lam: float = 1.0,
                          c_rows: Optional[int] = None) -> QuadraticSaddle:
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

    NumericalFailureError is raised when the solution misses primal
    stationarity by more than 1e-9 relative, as it can for a tiny mu_g.
    """
    C, d, A, H, Ctd = _draw_instance_data(n_primal, n_dual, seed, c_rows, mu_g, lam)
    x_star, y_star = _saddle_point(H, A, Ctd, mu_g)
    problem = _problem_from_data(C, d, A, H, Ctd, float(lam), float(mu_g), None)
    return QuadraticSaddle(problem=problem, x_star=x_star, y_star=y_star,
                           C=C, d=d, lam=float(lam))


def make_ball_capped_saddle(n_primal: int = 20, n_dual: int = 15,
                            seed: int = 42, mu_g: float = 0.05,
                            lam: float = 0.0,
                            c_rows: Optional[int] = None) -> QuadraticSaddle:
    """Build a dense instance whose dual solution sits ON the ball boundary.

    Same data family as make_quadratic_saddle, but g is capped by a ball
    that binds at the saddle with a strict multiplier. That makes the gap
    at averaged iterates decay like the dual averaging error itself
    (order 1/k) rather than its square, which is the regime the
    constant-step schedules are tuned for.

    Construction: the saddle point on a ball of radius r solves
    (C'C + lam I + A'A / u) x* = C'd, y* = A x* / u, for the u > mu_g
    with ||y*|| = r. So the radius is derived rather than fixed: u is
    8 mu_g, one dense solve gives x* and y*, and the radius is ||y*||,
    roughly half the unconstrained dual norm (0.38 to 0.63 over the
    synth sizes 20x15 to 400x300 at seeds 0, 7 and 42). The ball's
    multiplier is then (u - mu_g) ||y*|| = 7 mu_g ||y*|| > 0.

    Refusals: degenerate data, which _draw_instance_data describes, and
    a zero radius raise ConfigurationError; a solution that misses
    primal stationarity by more than 1e-9 relative, as a tiny mu_g
    gives, raises NumericalFailureError.
    """
    C, d, A, H, Ctd = _draw_instance_data(n_primal, n_dual, seed, c_rows, mu_g, lam)
    x_star, y_star = _saddle_point(H, A, Ctd, 8.0 * mu_g)
    radius = float(np.linalg.norm(y_star))
    if not radius > 0.0:
        raise ConfigurationError("the dual solution is zero; no radius can bind")
    problem = _problem_from_data(C, d, A, H, Ctd, float(lam), float(mu_g), radius)
    return QuadraticSaddle(problem=problem, x_star=x_star, y_star=y_star,
                           C=C, d=d, lam=float(lam))
