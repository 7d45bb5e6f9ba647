"""The accelerated primal-dual recursion both solver families share.

One iteration updates the primal block against the extrapolated dual
point yhat, takes a dual prox step at the new primal point, and
extrapolates the dual for the next iteration:

    x+    = primal update (a gradient step for ldpd, a prox step for edpd)
    y+    = prox_{tau g}(y + tau A x+)
    yhat+ = y+ + alpha (y+ - y)

The two families differ only in the primal update, their step-size
schedules, their aggregation weights, and which schedule entry supplies
alpha. This module holds everything else: the state record a run
updates in place, the buffers and oracle calls a run owns, the primal
bookkeeping and the dual half of the step, and the run loop, which
builds and validates the whole schedule before the first iteration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .linops import staggered_empty, with_out
from .model import Array, IterationSnapshot, Observer, SaddleProblem, SolverConsts


@dataclass
class SolverState:
    """Solver state whose newest primal iterate `x` is iterate t.

    Between steps, `t - 1` iterations have completed and `x` and `y` are
    the current iterates. A step advances `t` as soon as it accepts its
    primal iterate, so after a step fails in its dual half `t` already
    counts the new primal iterate (and the primal aggregate holds it),
    while `y` is still the old one. `yhat` is the extrapolated
    dual point the next primal update sees; at initialization it is the
    dual start. The `agg_*` fields accumulate the weighted averages the
    guarantees speak about; the linearized family also takes its
    gradient at a blend of `x` and the primal aggregate (see
    `ldpd.gradient_point`).

    A step updates the state in place and returns it: `x`, `yhat` and
    the `agg_num_*` accumulators are written over, and `y` (and, after a
    prox step, `x`) is replaced by the step's new iterate, formed in a
    spare buffer; the replaced array becomes the next spare and is
    overwritten by the next step. A run owns one state for all its
    iterations, so an array read from it is valid only until the next
    step begins; copy what must outlive that. `work` is internal to a
    run: it holds the run's buffers and gradient worker and is set only
    while the run is in progress (see `Workspace`); the state a run
    returns holds none of them.
    """

    t: int
    x: Array
    y: Array
    yhat: Array
    agg_num_x: Array
    agg_num_y: Array
    agg_den: float
    work: Optional["Workspace"] = field(default=None, init=False, repr=False)

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
    the dual start. The state owns copies of x1 and y1, each array at its
    own offset within a page (see `linops.staggered_empty`)."""
    x1 = np.asarray(x1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    x, agg_num_x = staggered_empty(x1.shape), staggered_empty(x1.shape)
    y, yhat, agg_num_y = (staggered_empty(y1.shape) for _ in range(3))
    x[...], y[...], yhat[...] = x1, y1, y1
    agg_num_x.fill(0.0)
    agg_num_y.fill(0.0)
    return SolverState(t=1, x=x, y=y, yhat=yhat, agg_num_x=agg_num_x,
                       agg_num_y=agg_num_y, agg_den=0.0)


class Workspace:
    """The buffers a run owns and the oracle calls it makes.

    `x` and `y` are the spare primal and dual buffers. A step forms its
    new dual iterate (and, for a prox step, its new primal iterate) in
    the spare and hands the replaced iterate's buffer back as the next
    spare, so the buffers rotate with the iterates.

    Whether each of `A.apply`, `A.adjoint`, `f.grad`, `f.prox` and
    `g.prox` takes `out=` is decided once, here: the calls below pass
    `out=` either way (see `linops.with_out`), and the steps use the
    array that comes back, which is the buffer they passed when the
    callable writes into it and a fresh array when it does not.

    A workspace made with `grad_point` (see `run`) also owns the
    gradient buffer and the gradient-point buffer, and a step gets its
    gradient from `gradient`. Given the run's step sizes `params` on a
    problem with at least GRAD_AHEAD_MIN_PRIMAL_DIM primal unknowns, it
    owns a one-thread pool as well, shut down by `close`, on which
    `request_gradient` takes the next gradient while the current
    iteration finishes.
    """

    def __init__(self, problem: SaddleProblem, grad_point=None,
                 params: Sequence = ()):
        self.apply = with_out(problem.A.apply)
        self.adjoint = with_out(problem.A.adjoint)
        self.g_prox = with_out(problem.g.prox)
        f = problem.f
        self.f_grad = None if f.grad is None else with_out(f.grad)
        self.f_prox = None if f.prox is None else with_out(f.prox)
        self.x = staggered_empty(problem.primal_dim)
        self.y = staggered_empty(problem.dual_dim)
        self._pool = self._pending = None
        if grad_point is None:
            return
        self._grad_point = grad_point
        self._params = params
        self._grad = staggered_empty(problem.primal_dim)
        self._point = staggered_empty(problem.primal_dim)
        if params and problem.primal_dim >= GRAD_AHEAD_MIN_PRIMAL_DIM:
            # imported here: concurrent.futures adds about 10 ms to every
            # import of the package, and only a threaded run needs it
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1)

    def gradient(self, state: SolverState, params) -> Array:
        """The gradient for an iteration with step sizes `params`, in the
        gradient buffer: the one `request_gradient` started, or one taken
        on the spot. An exception from f.grad is raised here."""
        pending, self._pending = self._pending, None
        if pending is not None:
            return pending.result()
        point = self._grad_point(state, params, self._point, self._grad)
        return self.f_grad(point, out=self._grad)

    def request_gradient(self, state: SolverState, t: int) -> None:
        """Start iteration t's gradient on the pool, unless there is none
        or the run ends before iteration t. Until `gradient` returns it,
        the caller leaves `state.x` and the primal aggregate as they are,
        and the point and gradient buffers are the worker's."""
        if self._pool is None or t > len(self._params):
            return
        point = self._grad_point(state, self._params[t - 1], self._point,
                                 self._grad)
        self._pending = self._pool.submit(self.f_grad, point, out=self._grad)

    def close(self) -> None:
        """Shut the pool down, waiting for a gradient still running."""
        if self._pool is not None:
            self._pool.shutdown()


def _all_finite(v: Array) -> bool:
    """Whether every entry of v is finite, by its extremes (a nan
    propagates into both, an infinity is one of them), so that no
    boolean temporary is made."""
    v = np.asarray(v)
    return math.isfinite(v.min()) and math.isfinite(v.max())


def _add_weighted(acc: Array, v: Array, weight: float, scratch: Array) -> None:
    """acc += weight * v, forming the product in `scratch` (an array the
    caller may overwrite, other than v)."""
    acc += np.multiply(v, weight, out=scratch)


def accept_primal(state: SolverState, x_next: Array, weight: float,
                  scratch: Array) -> None:
    """Make `x_next` the primal iterate t + 1, add it to the primal
    aggregate with weight `weight`, and advance `t`. `scratch` is a
    primal-size array other than x_next that the call may overwrite once
    x_next is accepted (it may be the replaced iterate)."""
    if not _all_finite(x_next):
        raise DivergenceError(f"primal iterate {state.t + 1} is not finite")
    state.x = x_next
    _add_weighted(state.agg_num_x, x_next, weight, scratch)
    state.agg_den += weight
    state.t += 1


def dual_step(state: SolverState, work: Workspace, tau: float, alpha: float,
              mu_g: float, weight: float) -> SolverState:
    """Finish an iteration from the primal point `accept_primal` took.

    Applies the dual prox with step `tau` and smoothing weight `mu_g`,
    extrapolates the dual by `alpha`, adds the new dual iterate to the
    running aggregate with weight `weight`. `A x` goes into the spare
    dual buffer, the prox input is formed there and the prox writes the
    new iterate over it; the old iterate's buffer serves as scratch for
    the aggregate and then becomes the spare.
    """
    z = work.apply(state.x, out=work.y)
    z *= tau
    z += state.y
    y_next = work.g_prox(z, tau, mu_g, out=z)
    if not _all_finite(y_next):
        raise DivergenceError(f"dual iterate {state.t} is not finite")
    y_old = state.y
    np.subtract(y_next, y_old, out=state.yhat)
    state.yhat *= alpha
    state.yhat += y_next
    _add_weighted(state.agg_num_y, y_next, weight, y_old)
    state.y = y_next
    work.y = y_old
    return state


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


# A linearized run takes each next gradient on a second thread when the
# problem has at least this many primal unknowns; below, each step calls
# f.grad itself. Handing a call over costs GIL switches, and the short
# numpy calls of a small problem hold the GIL, so every hand-off waits.
# deblur-gauss, ldpd, 200 iterations, medians of 6 runs on a 2-vCPU
# Xeon VM, threaded against in line: 0.51 s against 0.24 s at 128 x 128,
# 0.68 against 0.58 s at 192 x 192, 0.97 against 1.15 s at 256 x 256.
# From there up, the FFT pair of an imaging gradient, which releases the
# GIL, runs while the dual half does. The gate does not ask for a second
# CPU: pinned to one (taskset -c 0), the threaded run was no slower,
# medians of 6 alternating runs in process, 1.30 against 1.32 s at
# 256 x 256 and 5.48 against 5.94 s at 512 x 512.
GRAD_AHEAD_MIN_PRIMAL_DIM = 256 * 256


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
        mu_g: Optional[Callable[[int], float]] = None,
        grad_point=None) -> RunResult:
    """Run one solver family for `iters` iterations from (x1, y1).

    Parameters
    ----------
    problem, regime, x1, y1, iters, observer
        As for `run_ldpd` / `run_edpd`.
    schedule : callable
        schedule(regime, t, consts) -> the step sizes of iteration t.
    step : callable
        step(state, problem, params, alpha, mu_g, weight) updates the
        state by one iteration in place.
    weight : callable
        weight(regime, t, consts) -> iterate t's aggregation weight.
    alpha_shift : int
        Iteration t extrapolates the dual with the alpha of schedule
        entry t + alpha_shift.
    mu_g : callable, optional
        mu_g(t) -> the dual smoothing weight of iteration t, in place of
        the problem's constant one (continuation).
    grad_point : callable, optional
        For a family that takes gradient steps: grad_point(state, params,
        out, scratch) -> the point iteration t's gradient is taken at,
        given its step sizes, formed in `out` with `scratch`. f.grad is
        called exactly `iters` times, each after the first on a worker
        thread when the problem is at or above the gate (see `Workspace`).

    The problem constants are read once; the whole schedule is built and
    validated before the first iteration, so a bad configuration fails
    with ConfigurationError before any step runs. The run keeps one
    state, copied from (x1, y1), and the observer's `snap.state` is that
    state: its arrays are valid until the next step begins. The run's
    buffers and worker (see `Workspace`) are made once, before the first
    step; the buffers are dropped, and the worker joined, before the run
    returns or raises.
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
    # no local name holds the workspace, so that its buffers are freed
    # before the aggregates below are formed
    state.work = Workspace(problem, grad_point, params[:iters])
    try:
        for t in range(1, iters + 1):
            step(state, problem, params[t - 1],
                 params[t - 1 + alpha_shift].alpha, mu_gs[t - 1],
                 weights[t - 1])
            if observer is not None:
                observer(IterationSnapshot(t=t, params=params[t - 1],
                                           state=state))
    finally:
        state.work.close()
        state.work = None
    return RunResult(x=state.aggregate_x, y=state.aggregate_y, state=state,
                     params_history=params[:iters])
