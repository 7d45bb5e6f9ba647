"""The accelerated primal-dual recursion both solver families share.

One iteration updates the primal block against the extrapolated dual
point yhat, takes a dual prox step at the new primal point, and
extrapolates the dual for the next iteration:

    x+    = primal update (a gradient step for ldpd, a prox step for edpd)
    y+    = prox_{tau g}(y + tau A x+)
    yhat+ = y+ + alpha (y+ - y)

The two families differ only in the primal update, their step-size
schedules, their aggregation weights, and which schedule entry supplies
alpha. This module holds everything else: the state record, the dual
half of the step, and the run loop, which builds and validates the whole
schedule before the first iteration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .model import Array, IterationSnapshot, Observer, SaddleProblem, SolverConsts


@dataclass
class SolverState:
    """Solver state after `t - 1` completed iterations.

    `x` and `y` are the current iterates. `yhat` is the extrapolated
    dual point the next primal update sees; at initialization it is the
    dual start. The `agg_*` fields accumulate the weighted averages the
    guarantees speak about; the linearized family also takes its
    gradient at a blend of `x` and the primal aggregate (see
    `ldpd.ldpd_step`).
    """

    t: int
    x: Array
    y: Array
    yhat: Array
    agg_num_x: Array
    agg_num_y: Array
    agg_den: float

    @property
    def aggregate_x(self) -> Array:
        if self.agg_den <= 0.0:
            raise ContractViolationError("no iterations accumulated yet")
        return self.agg_num_x / self.agg_den

    @property
    def aggregate_y(self) -> Array:
        if self.agg_den <= 0.0:
            raise ContractViolationError("no iterations accumulated yet")
        return self.agg_num_y / self.agg_den


def init_state(x1, y1) -> SolverState:
    """Fresh state at t = 1 with the extrapolated dual point seeded at
    the dual start."""
    x1 = np.asarray(x1, dtype=float).copy()
    y1 = np.asarray(y1, dtype=float).copy()
    return SolverState(
        t=1,
        x=x1,
        y=y1,
        yhat=y1.copy(),
        agg_num_x=np.zeros_like(x1),
        agg_num_y=np.zeros_like(y1),
        agg_den=0.0,
    )


def dual_step(state: SolverState, problem: SaddleProblem, x_next: Array,
              tau: float, alpha: float, mu_g: float,
              weight: float) -> SolverState:
    """Finish an iteration from its new primal point.

    Applies the dual prox with step `tau` and smoothing weight `mu_g`,
    extrapolates the dual by `alpha`, and adds the new pair to the
    running aggregate with weight `weight`.
    """
    t = state.t
    if not np.all(np.isfinite(x_next)):
        raise DivergenceError(f"primal iterate {t + 1} is not finite")
    y_next = problem.g.prox(state.y + tau * problem.A.apply(x_next), tau, mu_g)
    if not np.all(np.isfinite(y_next)):
        raise DivergenceError(f"dual iterate {t + 1} is not finite")
    return SolverState(
        t=t + 1,
        x=x_next,
        y=y_next,
        yhat=y_next + alpha * (y_next - state.y),
        agg_num_x=state.agg_num_x + weight * x_next,
        agg_num_y=state.agg_num_y + weight * y_next,
        agg_den=state.agg_den + weight,
    )


def aggregate_closed_form(iterates, weights) -> Array:
    """Weighted average of a sequence of iterates.

    Provided as an independent reference for the running accumulators;
    `weights` must be positive and match `iterates` in length.
    """
    iterates = [np.asarray(v, dtype=float) for v in iterates]
    weights = np.asarray(weights, dtype=float)
    if len(iterates) != weights.size or weights.size == 0:
        raise ContractViolationError("need equally many iterates and weights")
    if not np.all(weights > 0.0):
        raise ContractViolationError("aggregation weights must be positive")
    num = np.zeros_like(iterates[0])
    for w, v in zip(weights, iterates):
        num += w * v
    return num / weights.sum()


def dual_base_step(c: float, mu_g: float) -> float:
    """Base dual step c / mu_g of a strongly convex dual schedule."""
    if not mu_g > 0.0:
        raise ConfigurationError("the strongly convex dual regime needs mu_g > 0")
    return c / mu_g


def primal_base_step(consts: SolverConsts) -> float:
    """Base dual step mu_f / (2 ||A||^2) of a strongly convex primal
    schedule, shared by both families."""
    if not (consts.mu_f > 0.0 and consts.norm_A > 0.0):
        raise ConfigurationError("the strongly convex primal regime needs "
                                 "mu_f > 0 and a nonzero coupling")
    return consts.mu_f / (2.0 * consts.norm_A**2)


@dataclass
class RunResult:
    """Outcome of a solver run: the guaranteed aggregate pair, the final
    state, and the per-iteration step sizes actually used."""

    x: Array
    y: Array
    state: SolverState
    params_history: list


def _build_schedule(regime, iters: int, consts: SolverConsts, schedule,
                    alpha_shift: int, mu_g: Optional[Callable[[int], float]]):
    """Step sizes and dual weights for iterations 1 .. iters + alpha_shift.

    Raises ConfigurationError at the first of iterations 1 .. iters whose
    dual weight is not finite and nonnegative, or whose step sizes are not
    finite and positive or overflow.
    """
    params, mu_gs = [], []
    for t in range(1, iters + alpha_shift + 1):
        consts_t = consts
        if mu_g is not None:
            consts_t = dataclasses.replace(consts, mu_g=float(mu_g(t)))
            if not (math.isfinite(consts_t.mu_g) and consts_t.mu_g >= 0.0):
                raise ConfigurationError(
                    f"mu_g({t}) = {consts_t.mu_g!r} is not finite and nonnegative"
                )
        try:
            p = schedule(regime, t, consts_t)
        except OverflowError as exc:
            raise ConfigurationError(
                f"step sizes overflow at iteration {t}: {exc}"
            ) from exc
        for name in ("tau", "eta"):
            value = getattr(p, name)
            if t <= iters and not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"step size {name} = {value!r} at iteration {t} is not "
                    f"finite and positive"
                )
        params.append(p)
        mu_gs.append(consts_t.mu_g)
    return params, mu_gs


def run(problem: SaddleProblem, regime, x1, y1, iters: int,
        observer: Optional[Observer], *, schedule, step, weight,
        alpha_shift: int,
        mu_g: Optional[Callable[[int], float]] = None) -> RunResult:
    """Run one solver family for `iters` iterations from (x1, y1).

    Parameters
    ----------
    problem, regime, x1, y1, iters, observer
        As for `run_ldpd` / `run_edpd`.
    schedule : callable
        schedule(regime, t, consts) -> the step sizes of iteration t.
    step : callable
        step(state, problem, params, alpha, mu_g, weight) -> next state.
    weight : callable
        weight(regime, t, consts) -> iterate t's aggregation weight.
    alpha_shift : int
        Iteration t extrapolates the dual with the alpha of schedule
        entry t + alpha_shift.
    mu_g : callable, optional
        mu_g(t) -> the dual smoothing weight of iteration t, in place of
        the problem's constant one (continuation).

    The problem constants are read once; the whole schedule is built and
    validated before the first iteration, so a bad configuration fails
    with ConfigurationError before any step runs.
    """
    if iters < 1:
        raise ConfigurationError("iters must be at least 1")
    x1 = np.asarray(x1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    if x1.shape != (problem.primal_dim,) or y1.shape != (problem.dual_dim,):
        raise ContractViolationError("start point shapes do not match the problem")
    consts = SolverConsts.from_problem(problem)
    params, mu_gs = _build_schedule(regime, iters, consts, schedule,
                                    alpha_shift, mu_g)
    weights = [weight(regime, t, consts) for t in range(1, iters + 1)]
    state = init_state(x1, y1)
    for t in range(1, iters + 1):
        state = step(state, problem, params[t - 1],
                     params[t - 1 + alpha_shift].alpha, mu_gs[t - 1],
                     weights[t - 1])
        if observer is not None:
            observer(IterationSnapshot(t=t, params=params[t - 1], state=state))
    return RunResult(x=state.aggregate_x, y=state.aggregate_y, state=state,
                     params_history=params[:iters])
