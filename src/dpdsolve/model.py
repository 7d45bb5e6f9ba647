"""Saddle point problems and the oracle contracts the solvers consume.

A problem is min over x of max over y of

    L(x, y) = f(x) + <Ax, y> - g(y),

with convex f and g coupled by a linear operator A. Solvers only ever
touch f and g through the oracle objects below, so swapping a dense test
instance for an imaging model is a matter of constructing different
closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolationError,
    UnsupportedPointError,
)
from .linops import LinearOperator

Array = np.ndarray


@dataclass
class PrimalOracle:
    """Access to the primal component f.

    `grad` serves linearized primal steps and `prox` proximal primal
    steps; an oracle must carry at least one of them, and with both
    either solver family can run on it. `value` is always required
    because gap evaluation needs function values.

    `lipschitz_L_f` bounds the gradient's Lipschitz constant and `mu_f`
    understates the strong convexity modulus; both may be zero.

    `grad` and `prox` may take an `out=` keyword. A run then passes a
    buffer it owns and uses what comes back, which must be that buffer
    or a fresh array: `prox(z, step, out=z)` writes over its own input,
    `grad(x, out=g)` gets a `g` that does not overlap x. Without `out`
    they are called as `grad(x)` and `prox(z, step)`.
    """

    value: Callable[[Array], float]
    grad: Optional[Callable[[Array], Array]] = None
    prox: Optional[Callable[[Array, float], Array]] = None
    lipschitz_L_f: float = 0.0
    mu_f: float = 0.0

    def __post_init__(self):
        if self.grad is None and self.prox is None:
            raise ConfigurationError("a primal oracle needs a grad or a prox map")
        if self.lipschitz_L_f < 0.0:
            raise ConfigurationError("lipschitz_L_f must be nonnegative")
        if self.mu_f < 0.0:
            raise ConfigurationError("mu_f must be nonnegative")


@dataclass
class DualProxOracle:
    """Access to the dual component g through its proximal map.

    g is a fixed part plus (mu_g / 2) ||y||^2. prox(z, step, mu_g) must
    return the exact minimizer of g(y) + ||y - z||^2 / (2 step) for the
    smoothing weight passed in: the solvers pass `mu_g` itself, or, on a
    continuation run, the weight of the current iteration. `value`
    returns the function value at the declared `mu_g` and may be +inf
    outside g's domain. `mu_g` understates g's strong convexity modulus.
    `grad` is optional and only needed by stationarity checks. `prox`
    may take an `out=` keyword; a run then calls `prox(z, step, mu_g,
    out=z)`, so it must allow its output to be its input, and uses the
    array that comes back.
    """

    prox: Callable[[Array, float, float], Array]
    value: Callable[[Array], float]
    mu_g: float = 0.0
    grad: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        if self.mu_g < 0.0:
            raise ConfigurationError("mu_g must be nonnegative")


@dataclass
class SaddleProblem:
    """A bilinearly coupled min-max problem."""

    f: PrimalOracle
    g: DualProxOracle
    A: LinearOperator
    primal_dim: int
    dual_dim: int

    def __post_init__(self):
        if self.primal_dim < 1 or self.dual_dim < 1:
            raise ContractViolationError("problem dimensions must be positive")
        if self.A.dims != (self.primal_dim, self.dual_dim):
            raise ContractViolationError(
                f"operator dims {self.A.dims} do not match problem dims "
                f"({self.primal_dim}, {self.dual_dim})"
            )


@dataclass(frozen=True)
class SolverConsts:
    """Problem constants every step-size schedule reads."""

    L_f: float
    mu_f: float
    mu_g: float
    norm_A: float

    @classmethod
    def from_problem(cls, problem: SaddleProblem) -> "SolverConsts":
        return cls(
            L_f=float(problem.f.lipschitz_L_f),
            mu_f=float(problem.f.mu_f),
            mu_g=float(problem.g.mu_g),
            norm_A=float(problem.A.norm_bound),
        )


@dataclass(frozen=True)
class IterationSnapshot:
    """What a run observer sees after each completed iteration.

    `x` and `y` are the regime's aggregation point after `t` steps, the
    pair the convergence guarantees speak about; each is computed from
    `state` on first read and then cached, so an observer pays only for
    the aggregates it reads. They are fresh arrays, valid after the run,
    but must first be read during the observer call: a first read once
    the next step has accepted its primal iterate (and so changed the
    aggregates) raises ContractViolationError, also when that step then
    failed. `state` is the run's live solver state, whose `x` and `y` are
    the newest raw iterates; it must be treated as read-only. Its arrays
    are updated in place or handed back to the run as spare buffers (the
    replaced `y`, and after a prox step the replaced `x`, are the next
    step's scratch), so they are valid only until the next step begins.
    """

    t: int
    params: object
    state: object

    def _current_state(self):
        if self.state.t != self.t + 1:
            raise ContractViolationError(
                f"the aggregates of iteration {self.t} were first read after "
                f"the run moved on; read them in the observer call"
            )
        return self.state

    @cached_property
    def x(self) -> Array:
        return self._current_state().aggregate_x

    def primal_aggregate(self, out: Array) -> Array:
        """The aggregate `x` written into `out`, a float64 array of the
        primal shape that the caller owns, under the same rule: a read
        once the next step has accepted its primal iterate raises
        ContractViolationError."""
        return self._current_state().primal_aggregate(out)

    @cached_property
    def y(self) -> Array:
        return self._current_state().aggregate_y


Observer = Callable[[IterationSnapshot], None]


def _check_point(problem: SaddleProblem, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (problem.primal_dim,):
        raise ContractViolationError(
            f"primal point has shape {x.shape}, expected ({problem.primal_dim},)"
        )
    if y.shape != (problem.dual_dim,):
        raise ContractViolationError(
            f"dual point has shape {y.shape}, expected ({problem.dual_dim},)"
        )
    return x, y


def lagrangian(problem: SaddleProblem, x, y) -> float:
    """Evaluate f(x) + <Ax, y> - g(y), returning -inf where g is +inf."""
    x, y = _check_point(problem, x, y)
    gy = float(problem.g.value(y))
    if gy == np.inf:
        return -np.inf
    return float(problem.f.value(x)) + float(problem.A.apply(x) @ y) - gy


def kkt_residual(problem: SaddleProblem, x, y) -> float:
    """First-order stationarity residual at (x, y).

    Returns ||grad f(x) + A* y|| + ||A x - grad g(y)||, which vanishes
    exactly at saddle points. Both components must be differentiable at
    the queried point; a missing or undefined gradient raises.
    """
    x, y = _check_point(problem, x, y)
    if problem.f.grad is None:
        raise ContractViolationError(
            "stationarity residual needs a differentiable primal component"
        )
    if problem.g.grad is None:
        raise UnsupportedPointError(
            "dual component does not expose a gradient at this point"
        )
    r_primal = problem.f.grad(x) + problem.A.adjoint(y)
    r_dual = problem.A.apply(x) - problem.g.grad(y)
    return float(np.linalg.norm(r_primal) + np.linalg.norm(r_dual))
