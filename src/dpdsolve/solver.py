"""The accelerated primal-dual recursion both solver families share.

One iteration updates the primal block against the extrapolated dual
point yhat, takes a dual prox step at the new primal point, and
extrapolates the dual for the next iteration:

    x+    = primal update (a gradient step for ldpd, a prox step for edpd)
    y+    = prox_{tau g}(y + tau A x+)
    yhat+ = y+ + alpha (y+ - y)

The two families differ only in the primal update, their step-size
schedules, their aggregation weights, and which schedule entry supplies
alpha. This module holds everything else: the record type in which each
family states its published regimes, the state record a run updates in
place, the buffers and oracle calls a run owns, the primal bookkeeping
and the dual half of the step (generic, and fused for the TV dual), and
the run loop, which builds and validates the whole schedule before the
first iteration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import linops
from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .linops import DifferenceOperator2D, staggered_empty, sum_of_squares, with_out
from .model import (Array, IterationSnapshot, Observer, SaddleProblem, SolverConsts,
                    _check_point)
from .prox import project_pair_block, prox_smoothed_tv_dual


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

    def primal_aggregate(self, out: Optional[Array] = None) -> Array:
        """The primal aggregate `agg_num_x / agg_den`, written into `out`
        (a float64 array of the primal shape) when one is given, else a
        fresh array."""
        return _weighted_average(self.agg_num_x, self.agg_den, out)

    @property
    def aggregate_x(self) -> Array:
        return _weighted_average(self.agg_num_x, self.agg_den)

    @property
    def aggregate_y(self) -> Array:
        return _weighted_average(self.agg_num_y, self.agg_den)


def _weighted_average(num: Array, den: float, out: Optional[Array] = None) -> Array:
    """num / den, the one formula of both aggregates, into `out` or a
    fresh array."""
    if den <= 0.0:
        raise ContractViolationError("no iterations accumulated yet")
    return np.divide(num, den, out=out)


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
    spare, so the buffers rotate with the iterates. A step forms A* yhat,
    the primal update's coupling term, in the spare primal buffer.

    A problem whose dual half-step `fused_tv_dual_step` fuses gets the
    fused step made here, with its block scratch, and `dual_step` calls
    it in place of `A.apply` and `g.prox`.

    Whether each of `A.apply`, `A.adjoint`, `f.grad`, `f.prox` and
    `g.prox` takes `out=` is decided once, here: the calls below pass
    `out=` either way (see `linops.with_out`), and the steps use the
    array that comes back, which is the buffer they passed when the
    callable writes into it and a fresh array when it does not.

    A workspace made with `grad_point` (see `run`) also owns the
    gradient buffer and the gradient-point buffer, and a step gets its
    gradient from `gradient`. Given the run's step sizes `params` on a
    problem with at least GRAD_AHEAD_MIN_PRIMAL_DIM primal unknowns, it
    owns a one-thread pool as well, shut down by `close`. The worker runs
    one task: `request_gradient` forms the next gradient point there and
    takes f.grad at it, and `gradient` returns what was requested. This
    is the run's one concurrency rule: only f.grad and the forming of
    its point run on the worker, and they may overlap `A.adjoint`,
    `A.apply`, `g.prox`, the fused dual step and the observer; every
    other call runs on the thread that called the step.
    """

    def __init__(self, problem: SaddleProblem, grad_point=None,
                 params: Sequence = ()):
        self.apply = with_out(problem.A.apply)
        self.adjoint = with_out(problem.A.adjoint)
        self.g_prox = with_out(problem.g.prox)
        self.fused_dual = fused_tv_dual_step(problem)
        self.coupling_ready = False
        f = problem.f
        self.f_grad = None if f.grad is None else with_out(f.grad)
        self.f_prox = None if f.prox is None else with_out(f.prox)
        self.x = staggered_empty(problem.primal_dim)
        self.y = staggered_empty(problem.dual_dim)
        self._pool = self._grad_ahead = None
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

    def coupling(self, state: SolverState) -> Array:
        """A* yhat in the spare primal buffer: taken now, or, once a fused
        dual step has run, the one it formed there."""
        return self.x if self.coupling_ready else self.adjoint(state.yhat, out=self.x)

    def gradient(self, state: SolverState, params) -> Array:
        """The gradient for an iteration with step sizes `params`, in the
        gradient buffer: the one `request_gradient` started, or one taken
        on the spot. An exception from f.grad is raised here."""
        pending, self._grad_ahead = self._grad_ahead, None
        if pending is not None:
            return pending.result()
        return self._gradient_at(state, params)

    def _gradient_at(self, state: SolverState, params) -> Array:
        point = self._grad_point(state, params, self._point, self._grad)
        return self.f_grad(point, out=self._grad)

    def request_gradient(self, state: SolverState, t: int) -> None:
        """Start iteration t's gradient, its point included, on the pool,
        unless there is none or the run ends before iteration t. Until
        `gradient` returns it, the caller leaves `state.x` and the primal
        aggregate as they are, and the point and gradient buffers are the
        worker's."""
        if self._pool is None or t > len(self._params):
            return
        self._grad_ahead = self._pool.submit(self._gradient_at, state,
                                             self._params[t - 1])

    def close(self) -> None:
        """Shut the pool down, waiting for a task still running."""
        if self._pool is not None:
            self._pool.shutdown()


def _all_finite(v: Array) -> bool:
    """Whether every entry of v is finite, in one BLAS pass when v . v
    is finite (a nan or an infinity makes it not). A finite v whose
    squares overflow is told apart by its extremes (a nan propagates
    into both, an infinity is one of them). No temporary is made."""
    v = np.asarray(v)
    if math.isfinite(sum_of_squares(v)):
        return True
    return math.isfinite(v.min()) and math.isfinite(v.max())


def accept_primal(state: SolverState, x_next: Array, weight: float,
                  scratch: Array) -> None:
    """Make `x_next` the primal iterate t + 1, add it to the primal
    aggregate with weight `weight`, and advance `t`. `scratch` is a
    primal-size array other than x_next that the call may overwrite once
    x_next is accepted (it may be the replaced iterate)."""
    if not _all_finite(x_next):
        raise DivergenceError(f"primal iterate {state.t + 1} is not finite")
    state.x = x_next
    state.agg_num_x += np.multiply(x_next, weight, out=scratch)
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
    the aggregate and then becomes the spare. The workspace's fused
    step, if it has one (see `fused_tv_dual_step`), does all of this in
    one blocked pass instead; a divergence it finds may leave `yhat` and
    the dual aggregate partly updated.
    """
    y_old = state.y
    if work.fused_dual is not None:
        y_next = work.y
        if not work.fused_dual(state, y_next, work.x, tau, alpha, mu_g, weight):
            raise DivergenceError(f"dual iterate {state.t} is not finite")
        work.coupling_ready = True
    else:
        z = work.apply(state.x, out=work.y)
        z *= tau
        z += y_old
        y_next = work.g_prox(z, tau, mu_g, out=z)
        if not _all_finite(y_next):
            raise DivergenceError(f"dual iterate {state.t} is not finite")
        np.subtract(y_next, y_old, out=state.yhat)
        state.yhat *= alpha
        state.yhat += y_next
        state.agg_num_y += np.multiply(y_next, weight, out=y_old)
    state.y = y_next
    work.y = y_old
    return state


# The fused TV dual half-step takes blocks of FUSED_BLOCKS * linops.BLOCK
# entries, so that its numpy calls are fewer. deblur-gauss --size 512, in
# process on a 2-vCPU Xeon VM, six alternating runs: the median iteration
# read 9.1-11.1 ms with blocks of 1 and 7.4-8.6 ms with blocks of 4, and
# 4, 8 and 16 read the same (1.31, 1.33 and 1.38 s a run, medians of 10).
FUSED_BLOCKS = 4

# The calls the fused step stands for, as linops and prox define them.
_FUSED_CALLS = (DifferenceOperator2D.apply, DifferenceOperator2D.adjoint, prox_smoothed_tv_dual)


def fused_tv_dual_step(problem: SaddleProblem):
    """`dual_step` fused into one pass over blocks of whole image columns,
    about FUSED_BLOCKS * linops.BLOCK pixels each, when A is a
    `DifferenceOperator2D` whose `apply` and `adjoint` are the ones
    linops defines (set neither on the instance nor on the class) and
    g.prox is `prox_smoothed_tv_dual`; None, for the generic path, on
    every other problem.

    step(state, out, coupling, tau, alpha, mu_g, weight) writes the new
    dual iterate into `out`, the extrapolated point into `state.yhat` and
    A* yhat, the next primal update's coupling term, into `coupling`,
    and adds `weight` times the new iterate to `state.agg_num_y`. Each
    entry is formed with the operations of `A.apply`,
    `prox_smoothed_tv_dual`, the generic step and `A.adjoint`, so every
    bit is theirs. It returns False at the first block whose new iterate
    is not finite. It writes neither `state.x`, `state.y` nor the primal
    aggregate, which the gradient worker may be reading. The block
    scratch is made here, once per run.
    """
    D = problem.A
    if (type(D) is not DifferenceOperator2D or "apply" in vars(D) or "adjoint" in vars(D)
            or (type(D).apply, type(D).adjoint, problem.g.prox) != _FUSED_CALLS):
        return None
    m, mn = D.m, D.m * D.n
    width = max(1, FUSED_BLOCKS * linops.BLOCK // m) * m
    scratch, outside = np.empty((2, width)), np.empty(width, bool)

    def step(state, out, coupling, tau, alpha, mu_g, weight) -> bool:
        Y, Z, H, G = (v.reshape(2, mn) for v in (state.y, out, state.yhat, state.agg_num_y))
        for lo in range(0, mn, width):
            hi = min(lo + width, mn)
            k = hi - lo
            z, y = Z[:, lo:hi], Y[:, lo:hi]
            D.apply_columns(state.x, lo, hi, z[0], z[1])
            z *= tau
            z += y
            np.divide(z, tau * mu_g + 1.0, out=z)
            if not project_pair_block(z[0], z[1], *scratch[:, :k], outside[:k]):
                return False
            yhat = np.subtract(z, y, out=H[:, lo:hi])
            yhat *= alpha
            yhat += z
            G[:, lo:hi] += np.multiply(z, weight, out=scratch[:, :k])
            D.adjoint_columns(state.yhat, lo, hi, coupling, scratch[0])
        return True

    return step


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


@dataclass(frozen=True)
class RegimeRule:
    """One published (solver, regime) result, stated once.

    The schedule's one parameter p is the regime field named by `reads`
    ("horizon" or "tau"), or, where `reads` is None, the base dual step
    `base_tau(consts)` that the problem constants fix.

    - `params(t, consts, p)`: the step sizes of iteration t;
    - `weight(t, consts)`: iterate t's aggregation weight;
    - `bound(k, consts, p, dx2, dy2)`: the gap guarantee after k
      iterations, given the squared distances from the start pair to the
      reference pair;
    - `rate`: the window (lo, hi) the log-log slope of the gap must lie
      in (lo None for no lower end), where the paper states one.
    """

    params: Callable
    weight: Callable[[int, SolverConsts], float]
    bound: Callable
    reads: Optional[str] = None
    base_tau: Optional[Callable[[SolverConsts], float]] = None
    rate: Optional[tuple] = None

    def step_sizes(self, regime, t: int, consts: SolverConsts):
        """`params` of iteration t (1-based) under `regime` and `consts`.
        A step size whose formula overflows or divides by zero (say, ldpd
        with L_f = 0 and a zero coupling, or an ||A||^2 that overflows or
        underflows) raises ConfigurationError."""
        if t < 1:
            raise ContractViolationError("iteration counter starts at 1")
        try:
            p = self.base_tau(consts) if self.reads is None else getattr(regime, self.reads)
            return self.params(t, consts, p)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ConfigurationError(
                f"step sizes overflow or divide by zero at iteration {t} (L_f = "
                f"{consts.L_f!r}, norm_A = {consts.norm_A!r}): {exc}"
            ) from exc


def find_rule(rules: dict, regime) -> RegimeRule:
    """`regime`'s record in `rules`, a family's records keyed by variant.
    Refuses an unknown variant, and a field the record reads (the
    horizon, or a free dual step tau) that is not positive."""
    rule = rules.get(regime.variant) if isinstance(regime.variant, str) else None
    if rule is None:
        raise ConfigurationError(f"unknown regime variant {regime.variant!r}")
    if rule.reads is not None and not getattr(regime, rule.reads) > 0:
        raise ConfigurationError(f"the {regime.variant} regime needs a positive {rule.reads}")
    return rule


# A linearized run takes each next gradient on a second thread when the
# problem has at least this many primal unknowns; below, each step calls
# f.grad itself. Handing a call over costs GIL switches, and the short
# numpy calls of a small problem hold the GIL, so every hand-off waits;
# from the gate up, the FFT pair of an imaging gradient, which releases
# the GIL, runs while the dual half does. The gate does not ask for a
# second CPU: pinned to one (taskset -c 0), an earlier version of this
# hand-off was no slower threaded, 1.30 against 1.32 s at 256 x 256 and
# 5.48 against 5.94 s at 512 x 512.
# deblur-gauss, ldpd, 200 iterations, in process, one BLAS thread, on a
# 2-vCPU Xeon VM, with the dual half fused into one blocked pass (see
# `fused_tv_dual_step`); threaded (gate 0) against in line,
# alternating, two sets of medians of 5 runs (s):
#
#   size        threaded       in line        ratio
#   256 x 256   0.541, 0.356   0.429, 0.432   1.26, 0.82
#   320 x 320   0.697, 0.502   0.676, 0.731   1.03, 0.69
#   352 x 352   0.924, 0.800   0.942, 1.009   0.98, 0.79
#   384 x 384   0.682, 0.886   1.019, 1.354   0.67, 0.65
#   416 x 416   0.986, 1.155   1.377, 1.775   0.72, 0.65
#   448 x 448   1.085, 1.210   1.521, 1.831   0.71, 0.66
#   512 x 512   1.264, 1.435   1.846, 2.265   0.68, 0.63
#
# Threading wins in both sets from 352 x 352 up, so the gate stays there.
# The host was noisy: two more sets read ratios 1.00, 0.86 at 352 x 352,
# 1.04, 0.70 at 384 x 384 and 0.69, 0.78 at 416 x 416, so threading
# never lost clearly from the gate up.
GRAD_AHEAD_MIN_PRIMAL_DIM = 352 * 352


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
    finite and positive, and at any iteration whose step sizes the
    schedule refuses (see `RegimeRule.step_sizes`).
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
        p = schedule(regime, t, consts_t)
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
        weight(t, consts) -> iterate t's aggregation weight.
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
        called exactly `iters` times; when the problem is at or above the
        gate, every gradient after the first, its point included, is
        taken on a worker thread, and nothing else is (see `Workspace`).

    The problem constants are read once; the whole schedule is built and
    validated before the first iteration, so a bad configuration fails
    with ConfigurationError before any step runs. The run keeps one
    state, copied from (x1, y1), and the observer's `snap.state` is that
    state: its arrays are valid until the next step begins, and the
    observer must not write them, as the worker may be reading them.
    The run's buffers and worker (see `Workspace`) are made once, before
    the first step; the buffers are dropped, and the worker joined,
    before the run returns or raises.
    """
    if iters < 1:
        raise ConfigurationError("iters must be at least 1")
    x1, y1 = _check_point(problem, x1, y1)
    consts = SolverConsts.from_problem(problem)
    params, mu_gs = _build_schedule(regime, iters, consts, schedule,
                                    alpha_shift, mu_g)
    weights = [weight(t, consts) for t in range(1, iters + 1)]
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
