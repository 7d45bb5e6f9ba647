"""Primal-dual solver with a linearized (gradient) primal step.

One iteration takes a gradient step from the primal iterate against the
extrapolated dual point, with the gradient taken at a blend of the
iterate and its running weighted average, then applies the dual prox and
extrapolates the dual (see solver.py for the recursion this family
shares with the exact one). Four published step-size regimes are
provided; they differ in how the blending weight theta, the dual
extrapolation alpha, and the step sizes tau (dual) and eta (primal)
evolve with the iteration counter, and each comes with its own
non-asymptotic gap guarantee (see diagnostics.theoretical_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .model import Array, Observer, SaddleProblem, SolverConsts
from .solver import (RunResult, SolverState, Workspace, accept_primal,
                     dual_base_step, dual_step, primal_base_step, run)
# The shared init and reference aggregate under this family's public names.
from .solver import aggregate_closed_form, init_state as init_ldpd_state  # noqa: F401

WEAKLY_CONVEX = "weakly-convex"
STRONGLY_CONVEX_DUAL = "strongly-convex-dual"
STRONGLY_CONVEX_PRIMAL = "strongly-convex-primal"
SINGLE_STEP = "single-step"

LDPD_VARIANTS = (
    WEAKLY_CONVEX,
    STRONGLY_CONVEX_DUAL,
    STRONGLY_CONVEX_PRIMAL,
    SINGLE_STEP,
)
SCD_STEP_SCALE = 3.0  # c in the strongly convex dual base step c / mu_g


@dataclass(frozen=True)
class LdpdRegime:
    """A named step-size regime.

    `horizon` is the fixed iteration budget the weakly convex schedule is
    tuned for and is ignored elsewhere; `tau` is the free dual step of the
    single-step schedule and is ignored elsewhere.
    """

    variant: str
    horizon: int = 0
    tau: float = 0.0

    def __post_init__(self):
        if self.variant not in LDPD_VARIANTS:
            raise ConfigurationError(f"unknown regime variant {self.variant!r}")
        if self.variant == WEAKLY_CONVEX and self.horizon < 1:
            raise ConfigurationError(
                "the weakly convex regime needs a positive iteration horizon"
            )
        if self.variant == SINGLE_STEP and not self.tau > 0.0:
            raise ConfigurationError(
                "the single-step regime needs a positive dual step tau"
            )


@dataclass(frozen=True)
class LdpdParams:
    """Step sizes for one iteration."""

    theta: float
    alpha: float
    tau: float
    eta: float


def scp_shift(consts: SolverConsts) -> int:
    """Index shift t0 used by the strongly convex primal schedule."""
    if not consts.mu_f > 0.0:
        raise ConfigurationError(
            "the strongly convex primal regime needs mu_f > 0"
        )
    if consts.L_f < consts.mu_f:
        raise ConfigurationError("L_f must be at least mu_f")
    return math.ceil(2.0 * (consts.L_f - consts.mu_f) / consts.mu_f)


def ldpd_schedule(regime: LdpdRegime, t: int, consts: SolverConsts) -> LdpdParams:
    """Step sizes for iteration t (1-based) under the given regime.

    Parameters
    ----------
    regime : LdpdRegime
        Which published schedule to follow.
    t : int
        Iteration counter, starting at 1.
    consts : SolverConsts
        Problem constants; which fields matter depends on the regime.

    Returns
    -------
    LdpdParams
        theta, alpha, tau, eta for this iteration. `alpha` weighs the
        dual extrapolation that forms the point iteration t's gradient
        step sees, so it is applied at the end of iteration t - 1; the
        first iteration sees the dual start itself.
    """
    if t < 1:
        raise ContractViolationError("iteration counter starts at 1")
    L, nA = consts.L_f, consts.norm_A
    if regime.variant == WEAKLY_CONVEX:
        N = regime.horizon
        return LdpdParams(
            theta=2.0 / (t + 1.0),
            alpha=(t - 1.0) / t,
            tau=t / N,
            eta=t / (2.0 * L + N * nA**2),
        )
    if regime.variant == STRONGLY_CONVEX_DUAL:
        tau = dual_base_step(SCD_STEP_SCALE, consts.mu_g)
        return LdpdParams(
            theta=2.0 / (t + 1.0),
            alpha=(t - 1.0) / t,
            tau=tau / t,
            eta=t / (2.0 * L + tau * nA**2),
        )
    if regime.variant == STRONGLY_CONVEX_PRIMAL:
        tau = primal_base_step(consts)
        t0 = scp_shift(consts)
        tau_t = (t + 1.0) * tau
        return LdpdParams(
            theta=1.0,
            alpha=(t + t0) / (t + t0 + 1.0),
            tau=tau_t,
            eta=1.0 / (L + tau_t * nA**2),
        )
    # single step
    tau = regime.tau
    return LdpdParams(
        theta=1.0,
        alpha=1.0,
        tau=tau,
        eta=1.0 / (L + tau * nA**2),
    )


def gradient_point(state: SolverState, params: LdpdParams, out: Array,
                   scratch: Array) -> Array:
    """Where an iteration with step sizes `params` takes its gradient,
    given the state's current iterate and primal aggregate.

    That is the blend (1 - theta) `state.aggregate_x` + theta `state.x`.
    The paper's recursion carries this anchor as a blend of its own,
    which with theta = 2 / (t + 1) and weights t is the t-weighted
    aggregate. With theta = 1, or before anything is aggregated, the
    point is `state.x` itself; otherwise it is formed in `out`, with
    `scratch` for its second term (arrays the call may overwrite).
    """
    theta = params.theta
    if theta == 1.0 or state.agg_den <= 0.0:
        return state.x
    np.divide(state.agg_num_x, state.agg_den, out=out)
    out *= 1.0 - theta
    out += np.multiply(state.x, theta, out=scratch)
    return out


def ldpd_step(state: SolverState, problem: SaddleProblem, params: LdpdParams,
              alpha: float, mu_g: float, weight: float) -> SolverState:
    """Advance the solver by one iteration, in place, and return the state.

    The step goes from `x` against the extrapolated dual point
    `state.yhat`, with the gradient of f taken at `gradient_point`.
    `alpha` extrapolates the new dual for the next iteration, `mu_g` is
    the dual smoothing weight and `weight` this iterate's weight in the
    aggregate. A* yhat is formed in the run's spare primal buffer before
    the gradient is asked for, so that a gradient still running on the
    run's worker finishes meanwhile, and the next one is requested once
    the new iterate is accepted (see `solver.Workspace`). A step outside
    a run makes a workspace of its own.
    """
    if problem.f.grad is None:
        raise ConfigurationError(
            "this solver takes gradient steps; the primal oracle has no grad"
        )
    work = state.work if state.work is not None else Workspace(problem, gradient_point)
    direction = work.adjoint(state.yhat, out=work.x)
    np.add(work.gradient(state, params), direction, out=direction)
    direction *= params.eta
    state.x -= direction
    accept_primal(state, state.x, weight, direction)
    work.request_gradient(state, state.t)
    return dual_step(state, work, params.tau, alpha, mu_g, weight)


def _ldpd_weight(regime: LdpdRegime, t: int, consts: SolverConsts) -> float:
    """Aggregation weight of iterate t. The t-weighted average equals the
    theta = 2 / (t + 1) blend of the weakly convex and strongly convex
    dual schedules."""
    if regime.variant == STRONGLY_CONVEX_PRIMAL:
        return float(t + scp_shift(consts) + 1)
    if regime.variant == SINGLE_STEP:
        return 1.0
    return float(t)


def run_ldpd(problem: SaddleProblem, regime: LdpdRegime, x1, y1, iters: int,
             observer: Optional[Observer] = None) -> RunResult:
    """Run the linearized solver for `iters` iterations from (x1, y1).

    Parameters
    ----------
    problem : SaddleProblem
        Problem with a gradient-capable primal oracle.
    regime : LdpdRegime
        Step-size regime; the weakly convex schedule is horizon-tuned, so
        there `iters` must equal the regime's horizon.
    x1, y1 : array
        Starting points in the primal and dual spaces.
    iters : int
        Number of iterations to run.
    observer : callable, optional
        Called once per iteration with an IterationSnapshot whose (x, y)
        is the weighted aggregate pair the guarantees refer to.
    """
    if regime.variant == WEAKLY_CONVEX and iters != regime.horizon:
        raise ConfigurationError(
            f"the weakly convex schedule is tuned for its horizon; "
            f"got iters={iters} but horizon={regime.horizon}"
        )
    return run(problem, regime, x1, y1, iters, observer,
               schedule=ldpd_schedule, step=ldpd_step, weight=_ldpd_weight,
               alpha_shift=1, grad_point=gradient_point)
