"""Dense synthetic saddle instances with analytically certified solutions.

The instance family is

    f(x) = 0.5 ||C x - d||^2 + 0.5 lam ||x||^2,
    g(y) = 0.5 mu_g ||y||^2   (optionally plus a centered ball indicator),

coupled by a dense random A. With mu_g > 0 the saddle point solves the
linear system (C'C + lam I + A'A / mu_g) x* = C' d, y* = A x* / mu_g,
so every guarantee can be checked against an exact reference. Making C
wide (fewer rows than columns) with lam = 0 gives mu_f exactly zero,
which exercises the weakly convex schedules honestly.

Instances on the same data share one draw: C, d and A are drawn, H is
factored and A's norm is taken once per draw. synth-bench's weakly
convex and ball-capped instances, which differ only in g and in the
multiplier of their saddle point, are both built from one draw.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
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


# One draw of dense data and what every instance on it reads: C, d and A,
# f's Hessian H = C'C + lam I, C'd, the eigenpairs (eigs, V) of H, A'A,
# and `op`, the coupling operator over A with its norm. The arrays are
# read-only, since instances on one draw share them.
_DenseData = namedtuple("_DenseData", "C d A H Ctd eigs V AtA op lam")


def _draw_instance_data(n_primal: int, n_dual: int, seed: int,
                        c_rows: Optional[int], lam: float, *mu_gs: float) -> _DenseData:
    """Check each weight mu_g of g that an instance on the data will take,
    lam and the dimensions, then draw C, d and A and factor them once.

    With lam = 0 and rows + n_dual <= n_primal, generic data admit an x
    with C x = d and A x = 0: the dual solution is zero, the primal one
    need not be unique and no ball can bind, so such data are refused
    before anything is drawn."""
    for mu_g in mu_gs:
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
    H = C.T @ C + lam * np.eye(n_primal)
    # H = V diag(eigs) V^T, so that every prox is a diagonal scaling in
    # the eigenbasis.
    eigs, V = np.linalg.eigh(H)
    arrays = (C, d, A, H, C.T @ d, eigs, V, A.T @ A)
    for a in arrays:
        a.flags.writeable = False
    return _DenseData(*arrays, MatrixOperator(A), float(lam))


def _problem_from_data(data: _DenseData, mu_g: float,
                       ball_radius: Optional[float]) -> SaddleProblem:
    """Assemble oracles and the coupling operator for one dense instance
    on `data`; g is capped by the centred ball of radius `ball_radius`
    when one is given."""
    C, d, lam, eigs, V, Ctd = data.C, data.d, data.lam, data.eigs, data.V, data.Ctd
    L_f = float(eigs[-1])
    # With a genuine null space the smallest modulus is exactly lam.
    mu_f = lam if C.shape[0] < C.shape[1] else float(max(eigs[0], 0.0))

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
    # Each problem gets its own operator object, sharing the matrix and
    # its norm, so that patching one problem's A leaves the other's be.
    return SaddleProblem(f, g, copy.copy(data.op), *data.op.dims)


def _saddle_instance(data: _DenseData, mu_g: float, u: float) -> QuadraticSaddle:
    """The instance on `data` with g's weight mu_g whose saddle point
    x* = (H + A'A / u)^{-1} C'd, y* = A x* / u comes from one dense solve.

    For u = mu_g this is the unconstrained saddle point. For u > mu_g, g
    is capped by the ball of radius ||y*||, on which it is the saddle
    point; a zero radius is refused with ConfigurationError. The pair is
    refused with NumericalFailureError unless it meets primal
    stationarity, ||H x + A'y - C'd|| <= 1e-9 (||H x|| + ||A'y|| +
    ||C'd||), which a nan fails too: a tiny u leaves the solve no
    accurate digit, or overflows A'A / u, so that the pair is wrong or
    not finite."""
    with np.errstate(all="ignore"):
        x = np.linalg.solve(data.H + data.AtA / u, data.Ctd)
        y = data.A @ x / u
        terms = (data.H @ x, data.A.T @ y, -data.Ctd)
        miss = float(np.linalg.norm(sum(terms)))
        scale = sum(float(np.linalg.norm(t)) for t in terms)
    if not miss <= 1e-9 * scale:
        raise NumericalFailureError(f"stationarity missed by {miss!r} of {scale!r}")
    radius = float(np.linalg.norm(y)) if u != mu_g else None
    if radius is not None and not radius > 0.0:
        raise ConfigurationError("the dual solution is zero; no radius can bind")
    return QuadraticSaddle(_problem_from_data(data, float(mu_g), radius),
                           x, y, data.C, data.d, data.lam)


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
    data = _draw_instance_data(n_primal, n_dual, seed, c_rows, lam, mu_g)
    return _saddle_instance(data, mu_g, mu_g)


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
    data = _draw_instance_data(n_primal, n_dual, seed, c_rows, lam, mu_g)
    return _saddle_instance(data, mu_g, 8.0 * mu_g)
