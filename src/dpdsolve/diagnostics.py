"""Convergence measurement: gaps, guarantee curves, rate checks, histories.

The central quantity is the primal-dual gap at a candidate pair measured
against a fixed reference pair,

    gap = L(x_cand, y_ref) - L(x_ref, y_cand),

which is nonnegative whenever the reference is a saddle point and is
exactly what the solvers' non-asymptotic guarantees bound.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import edpd, ldpd
from .errors import ConfigurationError, ContractViolationError
from .linops import staggered_empty, sum_of_squares
from .model import (
    Array,
    IterationSnapshot,
    SaddleProblem,
    SolverConsts,
    _check_point,
    lagrangian,
)

# The seven published results keyed by bound tag, the solver family then
# its variant, each family in the paper's order.
REGIMES = {f"{family}-{variant}": rule
           for family, rules in (("ldpd", ldpd.REGIMES), ("edpd", edpd.REGIMES))
           for variant, rule in rules.items()}

# Uniform floating-point slack for "guarantee dominates measurement" checks.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class GapReference:
    """Fixed comparison pair for gap evaluation; g must be finite at y_ref."""

    x_ref: Array
    y_ref: Array


def primal_dual_gap(problem: SaddleProblem, x, y, ref: GapReference) -> float:
    """Gap of the candidate (x, y) against the reference pair."""
    return (lagrangian(problem, x, ref.y_ref)
            - lagrangian(problem, ref.x_ref, y))


def _require_positive(name: str, value: Optional[float]) -> float:
    if value is None or not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name} must be provided, positive and finite")
    return float(value)


def theoretical_bound(tag: str, k: int, consts: SolverConsts,
                      dx2: float, dy2: float, *,
                      tau: Optional[float] = None,
                      horizon: Optional[int] = None) -> float:
    """Published gap guarantee after k iterations for the tagged regime.

    Parameters
    ----------
    tag : str
        The solver family and the regime variant, as in
        "ldpd-strongly-convex-dual".
    k : int
        Completed iterations (for the horizon-tuned weakly convex
        schedule of the linearized solver, k must equal the horizon,
        since that guarantee only speaks about the final aggregate).
    consts : SolverConsts
        Problem constants the schedule ran with.
    dx2, dy2 : float
        Squared distances from the start pair to the reference pair.
    tau, horizon : optional
        Schedule parameters. Where a regime fixes tau from the problem
        constants it defaults to that value; free parameters (the
        single-step and weakly convex proximal schedules' tau, the
        horizon) must be passed explicitly.

    Returns
    -------
    float
        The guarantee value; measured gaps must not exceed it by more
        than float slack. A constant the regime needs that is zero
        (mu_g, mu_f, the coupling) raises ConfigurationError.
    """
    rule = REGIMES.get(tag) if isinstance(tag, str) else None
    if rule is None:
        raise ConfigurationError(f"unknown bound tag {tag!r}")
    if k < 1:
        raise ContractViolationError("k must be at least 1")
    if dx2 < 0.0 or dy2 < 0.0:
        raise ContractViolationError("squared distances must be nonnegative")
    if rule.reads == "horizon":
        p = _require_positive("horizon", horizon)
        if k != int(p):
            raise ContractViolationError(
                "the horizon-tuned guarantee is only stated at k = horizon"
            )
    else:
        p = _require_positive("tau", rule.base_tau(consts)
                              if tau is None and rule.base_tau is not None else tau)
    return rule.bound(k, consts, p, dx2, dy2)


def regime_tag(regime) -> str:
    """The bound tag of a regime: its solver family, then its variant."""
    family = "ldpd" if isinstance(regime, ldpd.LdpdRegime) else "edpd"
    return f"{family}-{regime.variant}"


def regime_bound(regime, k: int, consts: SolverConsts,
                 dx2: float, dy2: float) -> Optional[float]:
    """The guarantee of `regime`'s own schedule after k iterations, given
    exactly the fields that schedule reads: the horizon of the
    horizon-tuned schedule, which is stated only at k = horizon (None at
    every other k), and the tau of a schedule that takes tau as a free
    parameter. A schedule that fixes tau from the constants gets its own."""
    tag = regime_tag(regime)
    reads = REGIMES[tag].reads
    if reads == "horizon" and k != regime.horizon:
        return None
    given = {} if reads is None else {reads: getattr(regime, reads)}
    return theoretical_bound(tag, k, consts, dx2, dy2, **given)


@dataclass(frozen=True)
class RateCheckResult:
    """Outcome of a per-iteration dominance check."""

    passed: bool
    first_violation: Optional[int] = None


def dual_distance_rate_check(history: Sequence[tuple[int, float]],
                             consts: SolverConsts, dx2: float, dy2: float,
                             tau: Optional[float] = None) -> RateCheckResult:
    """Check the dual convergence guarantee of the strongly convex dual
    linearized schedule against measured distances.

    `history` holds (k, ||y_k - y_star||) pairs, y_k the aggregate dual
    point after k iterations. The guarantee says
    (mu_g / 2) * dist^2 never exceeds the gap bound at k; the first k
    breaking that (beyond float slack) is reported.
    """
    if not consts.mu_g > 0.0:
        raise ConfigurationError("this check needs mu_g > 0")
    for k, dist in history:
        bound = theoretical_bound("ldpd-strongly-convex-dual", int(k), consts,
                                  dx2, dy2, tau=tau)
        if 0.5 * consts.mu_g * float(dist) ** 2 > bound + BOUND_SLACK:
            return RateCheckResult(passed=False, first_violation=int(k))
    return RateCheckResult(passed=True)


def fit_loglog_slope(history: Sequence[tuple[int, float]], k_min: int = 1) -> float:
    """Least-squares slope of log(value) against log(k) for k >= k_min.

    Nonpositive values cannot be fit on a log scale; they are dropped
    with a warning naming the rejected iterations. At least ten usable
    points must remain.
    """
    kept_k, kept_v, rejected = [], [], []
    for k, v in history:
        if k < k_min:
            continue
        if not v > 0.0:
            rejected.append(int(k))
            continue
        kept_k.append(float(k))
        kept_v.append(float(v))
    if rejected:
        warnings.warn(
            f"dropped {len(rejected)} nonpositive values at k={rejected} "
            f"from the log-log fit",
            stacklevel=2,
        )
    if len(kept_k) < 10:
        raise ContractViolationError(
            f"need at least 10 positive points with k >= {k_min}, "
            f"have {len(kept_k)}"
        )
    slope, _ = np.polyfit(np.log(kept_k), np.log(kept_v), 1)
    return float(slope)


def _flat(image) -> Array:
    return np.asarray(getattr(image, "data", image), dtype=float).reshape(-1)


def _snr_db_of_error(error: Array, signal: float) -> float:
    """20 log10(signal / ||error||), for the error x* - x_k of a
    reconstruction and the centred norm `signal` of its truth. The norm
    is sqrt(error . error), one BLAS pass; an overflow gives inf."""
    noise = math.sqrt(sum_of_squares(error))
    if noise == 0.0:
        return float("inf")
    ratio = signal / noise
    # A flat truth, or an error norm that overflows, leaves no signal.
    if ratio == 0.0:
        return float("-inf")
    return 20.0 * math.log10(ratio)


def snr_db(x_k, x_star) -> float:
    """Signal-to-noise ratio of a reconstruction against the ground truth,
    in decibels: 20 log10(||x* - mean(x*)|| / ||x* - x_k||).

    A perfect reconstruction returns +inf; reconstructing the flat mean
    image returns exactly 0. A flat truth, or an error whose norm
    overflows, returns -inf.
    """
    xs, xk = _flat(x_star), _flat(x_k)
    if xk.shape != xs.shape:
        raise ContractViolationError("reconstruction and truth shapes differ")
    return _snr_db_of_error(xs - xk, float(np.linalg.norm(xs - xs.mean())))


@dataclass
class HistoryRecord:
    """One iteration's diagnostics; fields that do not apply are None."""

    t: int
    gap: Optional[float] = None
    bound: Optional[float] = None
    snr_db: Optional[float] = None
    dist_dual: Optional[float] = None
    theta: Optional[float] = None
    alpha: Optional[float] = None
    tau: Optional[float] = None
    eta: Optional[float] = None
    wall_ms: Optional[float] = None


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(HistoryRecord))


# HistoryRecorder evaluates the pending gaps once their aggregates hold at
# least this many bytes. A gap's f.value streams f's data (C, 0.77 MB and
# 1.28 MB on synth-bench's 400 x 300 instances), and the step between two
# observer calls streams A and, in edpd, f's eigenbasis (1.28 MB): with
# one gap per call, each evicted the other from L2. A batch reads C once
# for many pairs. A 400 x 300 pair takes 5600 B, so 93 fit; a pair of at
# least the budget, as an imaging problem's, is evaluated in the call
# that sees it. Histories are bit for bit the same at every budget.
# synth-bench --dims 400,300 through perfbench/child.py, one BLAS thread,
# on a 2-vCPU Xeon VM with 2 MiB of L2 per core; alternating children,
# three sets of medians of 9, 15 and 15 (iter_ms_p50 in ms, solve_s in s):
#
#   budget     set 1           set 2           set 3
#   0          0.265  0.926    0.257  0.916
#   16 KiB     0.235  0.881
#   128 KiB    0.183  0.761
#   256 KiB                    0.189  0.771
#   384 KiB                                    0.214  0.889
#   512 KiB    0.155  0.688    0.170  0.751    0.215  0.873
#   768 KiB                                    0.212  0.866
#   1 MiB      0.187  0.792    0.189  0.796    0.211  0.838
#   2 MiB      0.178  0.741    0.193  0.789
#   4 MiB      0.172  0.680
#
# Budget 0 evaluates every gap in its own call. From 128 KiB up the
# budgets differ by less than the sets do; 512 KiB keeps a batch and the
# larger C within one L2.
GAP_BATCH_BYTES = 512 * 1024


class HistoryRecorder:
    """Observer that turns iteration snapshots into HistoryRecords.

    Each diagnostic is optional: pass a GapReference (with the problem)
    to record gaps, a bound callable k -> value to record the guarantee
    curve, a ground-truth image for SNR, a dual solution for distances.
    Wall-clock timing is off by default because it makes output
    nondeterministic.

    With a ground truth, the recorder owns one primal-size buffer: each
    call writes the snapshot's primal aggregate into it (through
    `IterationSnapshot.primal_aggregate`, so a late call still raises),
    subtracts it from the truth in place and takes the SNR from that
    error, bit for bit as `snr_db(snap.x, x_true)`. So a call allocates
    nothing image-sized, and reads no `snap.x`, which stays a fresh
    array for any other observer.

    With a GapReference, the gap, whose `f.value` streams f's data, is
    evaluated in batches: a call fills every other field at once and
    keeps the record with `snap.x` and `snap.y`, fresh arrays that
    outlive the run, until the pending pairs reach GAP_BATCH_BYTES; then
    that call evaluates every pending gap, oldest first. Reading
    `records` or `series` evaluates the rest, so both are complete
    whenever read. A pair of at least the budget is evaluated in the call
    that sees it. An exception from `f.value` or `g.value` surfaces at
    that later call or read, and its pair stays pending with those after
    it, so every later read raises it again.
    """

    def __init__(self, problem: Optional[SaddleProblem] = None,
                 ref: Optional[GapReference] = None,
                 bound_fn: Optional[Callable[[int], float]] = None,
                 x_true=None, y_star=None, timing: bool = False):
        if ref is not None and problem is None:
            raise ConfigurationError("gap recording needs the problem")
        self.problem = problem
        self.ref = ref
        self.bound_fn = bound_fn
        self.x_true = None
        if x_true is not None:
            self.x_true = _flat(x_true)
            # snr_db's numerator, fixed for the run.
            self._signal = float(np.linalg.norm(self.x_true - self.x_true.mean()))
            self._error = staggered_empty(self.x_true.shape)
        self.y_star = None if y_star is None else np.asarray(y_star, dtype=float)
        self.timing = timing
        self._records: list[HistoryRecord] = []
        # (record, x, y) whose gap is not evaluated yet, oldest first
        self._pending: list = []
        self._pending_bytes = 0
        self._t_prev = time.perf_counter() if timing else None
        if ref is not None:
            # Everything in the gap that depends on the reference alone,
            # so that each call applies no operator.
            x_ref, y_ref = _check_point(problem, ref.x_ref, ref.y_ref)
            self._At_y_ref = problem.A.adjoint(y_ref)
            self._A_x_ref = problem.A.apply(x_ref)
            self._f_ref = float(problem.f.value(x_ref))
            self._g_ref = float(problem.g.value(y_ref))

    def _gap(self, x: Array, y: Array) -> float:
        """primal_dual_gap(problem, x, y, ref), with <Ax, y_ref> taken as
        <x, A* y_ref>."""
        gy = float(self.problem.g.value(y))
        if gy == np.inf:
            return np.inf
        return ((float(self.problem.f.value(x)) + float(x @ self._At_y_ref)
                 - self._g_ref)
                - (self._f_ref + float(self._A_x_ref @ y) - gy))

    def __call__(self, snap: IterationSnapshot) -> None:
        rec = HistoryRecord(t=snap.t)
        if self.ref is not None:
            x, y = snap.x, snap.y
            self._pending.append((rec, x, y))
            self._pending_bytes += x.nbytes + y.nbytes
        if self.bound_fn is not None:
            value = self.bound_fn(snap.t)
            rec.bound = None if value is None else float(value)
        if self.x_true is not None:
            if snap.state.agg_num_x.shape != self.x_true.shape:
                raise ContractViolationError("reconstruction and truth shapes differ")
            error = snap.primal_aggregate(out=self._error)
            np.subtract(self.x_true, error, out=error)
            rec.snr_db = _snr_db_of_error(error, self._signal)
        if self.y_star is not None:
            rec.dist_dual = float(np.linalg.norm(snap.y - self.y_star))
        p = snap.params
        rec.theta = getattr(p, "theta", None)
        rec.alpha = getattr(p, "alpha", None)
        rec.tau = getattr(p, "tau", None)
        rec.eta = getattr(p, "eta", None)
        if self.timing:
            now = time.perf_counter()
            rec.wall_ms = (now - self._t_prev) * 1e3
            self._t_prev = now
        self._records.append(rec)
        if self._pending_bytes >= GAP_BATCH_BYTES:
            self._evaluate_pending_gaps()

    def _evaluate_pending_gaps(self) -> None:
        """Fill the gap of every pending record, oldest first. A gap that
        raises stays pending, with every pair after it."""
        done = 0
        try:
            for rec, x, y in self._pending:
                rec.gap = self._gap(x, y)
                done += 1
        finally:
            del self._pending[:done]
            self._pending_bytes = sum(x.nbytes + y.nbytes
                                      for _, x, y in self._pending)

    @property
    def records(self) -> list[HistoryRecord]:
        """Every record so far, each gap evaluated."""
        self._evaluate_pending_gaps()
        return self._records

    def series(self, field: str) -> list[tuple[int, float]]:
        """(t, value) pairs for one recorded field, skipping Nones."""
        out = []
        for rec in self.records:
            v = getattr(rec, field)
            if v is not None:
                out.append((rec.t, v))
        return out


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_history_csv(path, records: Iterable[HistoryRecord],
                      label: Optional[str] = None) -> None:
    """Write records to CSV with full float round-trip precision.

    An optional label becomes a leading comment line, used to mark
    heuristic runs whose guarantee column is intentionally empty.
    """
    lines = []
    if label:
        lines.append(f"# {label}")
    lines.append(",".join(CSV_COLUMNS))
    for rec in records:
        lines.append(",".join(_format_cell(getattr(rec, col)) for col in CSV_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_history_csv(path) -> list[HistoryRecord]:
    """Read back a history CSV written by write_history_csv."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ContractViolationError(f"{path} is not a history CSV")
    records = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ContractViolationError(f"malformed history row in {path}: {ln!r}")
        kwargs = {}
        try:
            for col, cell in zip(CSV_COLUMNS, cells):
                if cell == "":
                    kwargs[col] = None
                elif col == "t":
                    kwargs[col] = int(cell)
                else:
                    kwargs[col] = float(cell)
        except ValueError as exc:
            raise ContractViolationError(
                f"malformed history row in {path}: {ln!r}") from exc
        records.append(HistoryRecord(**kwargs))
    return records
