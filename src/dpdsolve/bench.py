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
    """Check mu_g and lam, then draw C, d and A and form f's Hessian
    H = C'C + lam I and C'd, which both instance builders use."""
    if not mu_g > 0.0:
        raise ConfigurationError("mu_g must be positive for a certified solution")
    if lam < 0.0:
        raise ConfigurationError("lam must be nonnegative")
    rows = n_primal if c_rows is None else int(c_rows)
    if rows < 1:
        raise ConfigurationError("C needs at least one row")
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
        lam = 0 forces mu_f = 0 exactly.
    ball_radius : float, optional
        Adds an inactive centered ball indicator to g; the radius must
        strictly exceed ||y*||.
    """
    C, d, A, H, Ctd = _draw_instance_data(n_primal, n_dual, seed, c_rows, mu_g, lam)
    problem = _problem_from_data(C, d, A, H, Ctd, float(lam), float(mu_g), ball_radius)
    x_star = np.linalg.solve(H + (A.T @ A) / mu_g, Ctd)
    y_star = A @ x_star / mu_g
    if ball_radius is not None and np.linalg.norm(y_star) >= ball_radius:
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
    beta in (0, 1/mu_g) is pinned by ||y*|| = radius. The bisection on
    that monotone scalar equation needs no solve per step: with
    beta0 = 1/mu_g, M0 = C'C + lam I + beta0 A'A and the eigendecomposition
    U diag(g) U' of A M0^{-1} A', the Woodbury identity gives
    A x(beta) = U diag(1 / (1 + (beta - beta0) g)) U' A M0^{-1} C'd, so each
    step is a diagonal scaling. x* and y* then come from one direct solve
    at the final beta. While ||y*|| misses the radius by more than 1e-10
    relative, as rounding in the eigenvalues can make it do at small
    mu_g, at most three Newton steps on ||y(beta)|| move beta, each with
    two direct solves; NumericalFailureError is raised unless ||y*|| then
    matches the radius to 1e-10 relative. The one exception is a
    degenerate instance (lam = 0 and n_dual <= n_primal - c_rows), whose
    unconstrained dual vanishes, so that its radius is rounding noise
    and is not checked.
    """
    if not 0.0 < radius_scale < 1.0:
        raise ConfigurationError(
            "radius_scale must lie in (0, 1) so the ball binds at the saddle"
        )
    C, d, A, H, Ctd = _draw_instance_data(n_primal, n_dual, seed, c_rows, mu_g, lam)
    AtA = A.T @ A
    M0 = H + AtA / mu_g
    a0 = A @ np.linalg.solve(M0, Ctd)
    y_unconstrained = a0 / mu_g
    radius = radius_scale * float(np.linalg.norm(y_unconstrained))
    if not radius > 0.0:
        raise ConfigurationError(
            "the unconstrained dual solution is zero; no radius can bind"
        )
    # A M0^{-1} A', symmetrised; M0 and the M0^{-1} A' block are freed
    # before eigh allocates its workspace.
    G = A @ np.linalg.solve(M0, A.T)
    del M0
    g, U = np.linalg.eigh(0.5 * (G + G.T))
    del G
    c = U.T @ a0
    del U
    beta0 = 1.0 / mu_g

    def dual_norm(beta: float) -> float:
        return beta * float(np.linalg.norm(c / (1.0 + (beta - beta0) * g)))

    lo, hi = 0.0, beta0
    # Only a degenerate instance (see below) can make a scaling divide by
    # zero; its inf or nan norm then just moves the upper end down.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dual_norm(mid) < radius:
                lo = mid
            else:
                hi = mid
    beta = 0.5 * (lo + hi)
    # With lam = 0 and n_dual <= n_primal - c_rows, generic data admit an
    # x with C x = d and A x = 0: the unconstrained dual is zero in exact
    # arithmetic, the radius is rounding noise and no ball can bind, so
    # there is nothing to check.
    degenerate = lam == 0.0 and C.shape[0] + A.shape[0] <= n_primal
    for newton in range(4):
        x_star = np.linalg.solve(H + beta * AtA, Ctd)
        y_star = beta * (A @ x_star)
        y_norm = float(np.linalg.norm(y_star))
        if degenerate or newton == 3 or abs(y_norm - radius) <= 1e-10 * radius:
            break
        # The eigenvalues' rounding can leave the bisection's beta off the
        # radius; a Newton step on ||y(beta)|| mends it, with
        # y'(beta) = A x - beta A (H + beta A'A)^{-1} A'A x.
        dy = A @ x_star - beta * (A @ np.linalg.solve(H + beta * AtA, AtA @ x_star))
        beta -= (y_norm - radius) * y_norm / float(y_star @ dy)
    # Free an n-by-n array before the eigendecomposition in
    # _problem_from_data allocates its workspace.
    del AtA
    if not degenerate and abs(y_norm - radius) > 1e-10 * radius:
        raise NumericalFailureError(
            f"ball-capped certification missed the radius: ||y*|| = "
            f"{y_norm!r}, radius {radius!r}"
        )

    problem = _problem_from_data(C, d, A, H, Ctd, float(lam), float(mu_g), radius)
    return QuadraticSaddle(problem=problem, x_star=x_star, y_star=y_star,
                           C=C, d=d, lam=float(lam))
