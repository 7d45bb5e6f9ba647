"""Primal-dual solver with an exact proximal primal step.

Each iteration solves the primal prox subproblem against the
extrapolated dual point, applies the dual prox, then extrapolates the
dual for the next iteration (see solver.py for the recursion this family
shares with the linearized one). No smoothness of f is assumed, only that
its prox is available in closed form. Three step-size regimes are
provided, mirroring the linearized solver's strongly convex and weakly
convex cases; `REGIMES` states each one's step sizes, aggregation
weights and gap guarantee once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .model import Observer, SaddleProblem, SolverConsts
from .solver import (RegimeRule, RunResult, SolverState, Workspace, accept_primal,
                     dual_base_step, dual_step, find_rule, primal_base_step, run)
# The shared init under this family's public name.
from .solver import init_state as init_edpd_state  # noqa: F401

WEAKLY_CONVEX = "weakly-convex"
STRONGLY_CONVEX_DUAL = "strongly-convex-dual"
STRONGLY_CONVEX_PRIMAL = "strongly-convex-primal"
SCD_STEP_SCALE = 2.5  # c in the strongly convex dual base step c / mu_g


@dataclass(frozen=True)
class EdpdRegime:
    """A named step-size regime; `tau` is only read by the weakly convex
    schedule, where the constant dual step is a free choice."""

    variant: str
    tau: float = 0.0

    def __post_init__(self):
        find_rule(REGIMES, self)


@dataclass(frozen=True)
class EdpdParams:
    """Step sizes for one iteration.

    `alpha` is the extrapolation factor applied after this iteration's
    dual update; it produces the point the next primal prox sees.
    """

    alpha: float
    tau: float
    eta: float


# The three published regimes, in the paper's order (see
# solver.RegimeRule). The weakly convex schedule takes constant steps on
# the boundary the analysis permits.
REGIMES = {
    STRONGLY_CONVEX_PRIMAL: RegimeRule(
        base_tau=primal_base_step,
        params=lambda t, c, tau: EdpdParams(
            alpha=(t + 2.0) / (t + 3.0), tau=(t + 1.0) * tau,
            eta=1.0 / ((t + 1.0) * tau * c.norm_A**2)),
        weight=lambda t, c: float(t + 2),
        bound=lambda k, c, tau, dx2, dy2: (
            (6.0 * tau * c.norm_A**2 * dx2 + 1.5 * dy2 / tau) / (k * (k + 5.0)))),
    STRONGLY_CONVEX_DUAL: RegimeRule(
        base_tau=lambda c: dual_base_step(SCD_STEP_SCALE, c.mu_g),
        params=lambda t, c, tau: EdpdParams(
            alpha=(t + 1.0) / (t + 2.0), tau=tau / (t + 1.0),
            eta=(t + 1.0) / (tau * c.norm_A**2)),
        weight=lambda t, c: float(t + 1),
        bound=lambda k, c, tau, dx2, dy2: (
            2.0 / (k * (k + 3.0)) * (c.norm_A**2 * tau * dx2 / 2.0 + 2.0 * dy2 / tau)),
        rate=(None, -1.8)),
    WEAKLY_CONVEX: RegimeRule(
        reads="tau",
        params=lambda t, c, tau: EdpdParams(alpha=1.0, tau=tau,
                                            eta=1.0 / (tau * c.norm_A**2)),
        weight=lambda t, c: 1.0,
        bound=lambda k, c, tau, dx2, dy2: (dx2 * c.norm_A**2 * tau + dy2 / tau) / (2.0 * k),
        rate=(-1.3, -0.7)),
}


def edpd_schedule(regime: EdpdRegime, t: int, consts: SolverConsts) -> EdpdParams:
    """Step sizes for iteration t (1-based) under the given regime."""
    if not consts.norm_A > 0.0:
        raise ConfigurationError("the coupling operator must be nonzero")
    return REGIMES[regime.variant].step_sizes(regime, t, consts)


def edpd_step(state: SolverState, problem: SaddleProblem, params: EdpdParams,
              alpha: float, mu_g: float, weight: float) -> SolverState:
    """Advance the solver by one iteration, in place, and return the state.

    The primal prox is taken against the extrapolated dual point
    `state.yhat`; `alpha` extrapolates the new dual for the next
    iteration, `mu_g` is the dual smoothing weight and `weight` this
    iterate's weight in the running aggregate. The prox input is formed
    in the run's spare primal buffer and the prox writes its result, the
    new `state.x`, over it; the old iterate's buffer becomes the spare
    (see `solver.Workspace`). A step outside a run makes a workspace of
    its own.
    """
    if problem.f.prox is None:
        raise ConfigurationError(
            "this solver takes proximal primal steps; the oracle has no prox"
        )
    work = state.work if state.work is not None else Workspace(problem)
    eta = params.eta
    z = work.coupling(state)
    z *= eta
    np.subtract(state.x, z, out=z)
    x_old = state.x
    accept_primal(state, work.f_prox(z, eta, out=z), weight, x_old)
    work.x = x_old
    return dual_step(state, work, params.tau, alpha, mu_g, weight)


def run_edpd(problem: SaddleProblem, regime: EdpdRegime, x1, y1, iters: int,
             observer: Optional[Observer] = None,
             mu_g: Optional[Callable[[int], float]] = None) -> RunResult:
    """Run the proximal solver for `iters` iterations from (x1, y1).

    Parameters
    ----------
    problem : SaddleProblem
        Problem with a prox-capable primal oracle.
    regime : EdpdRegime
        Step-size regime.
    x1, y1 : array
        Starting points.
    iters : int
        Number of iterations to run.
    observer : callable, optional
        Called once per iteration with an IterationSnapshot whose (x, y)
        is the weighted aggregate pair the guarantees refer to.
    mu_g : callable, optional
        Continuation schedule: mu_g(t) is the dual smoothing weight that
        iteration t's step sizes and dual prox use, in place of
        `problem.g.mu_g`. The problem itself is left unchanged. A
        shrinking weight voids the fixed-constant guarantees, so such
        runs are heuristic.
    """
    return run(problem, regime, x1, y1, iters, observer, schedule=edpd_schedule,
               step=edpd_step, weight=REGIMES[regime.variant].weight,
               alpha_shift=0, mu_g=mu_g)
