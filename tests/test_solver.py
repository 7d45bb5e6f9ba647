"""Properties of the run loop both solver families share."""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdsolve import edpd, ldpd, solver
from dpdsolve.bench import make_ball_capped_saddle, make_quadratic_saddle
from dpdsolve.cli import _bench_instances, _bench_runs, _run_bench_case
from dpdsolve.diagnostics import BOUND_SLACK, HistoryRecorder
from dpdsolve.errors import ContractViolationError
from dpdsolve.imaging import (
    SaltPepperDeblurSpec,
    build_saltpepper_problem,
    continuation_mu_g,
    make_phantom,
)
from dpdsolve.linops import make_average_kernel


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_every_regime_keeps_its_gap_under_the_bound_at_every_iteration(seed):
    rng = np.random.default_rng(seed)
    n_primal, n_dual = (int(v) for v in rng.integers(5, 16, size=2))
    # the builders refuse dims whose weakly convex instances are degenerate
    # (seed 3 draws 13,5); take the smallest dual dimension it accepts
    n_dual = max(n_dual, n_primal - max(2, 3 * n_primal // 5) + 1)
    args = types.SimpleNamespace(dims=f"{n_primal},{n_dual}", seed=seed)
    iters = 60
    checked = 0
    for inst, regime in _bench_runs(*_bench_instances(args), iters):
        recorder = _run_bench_case(inst, regime, iters)
        assert len(recorder.records) == iters
        for rec in recorder.records:
            if rec.bound is not None:
                assert rec.gap <= rec.bound + BOUND_SLACK, (regime, rec.t)
                checked += 1
    # every iteration of six regimes, the final one of the horizon-tuned one
    assert checked == 6 * iters + 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_regime_keeps_its_gap_under_the_bound_on_drawn_instances(data):
    # the instances of the test above, with drawn sizes, weights and run
    # lengths in place of the CLI's fixed ones
    n_primal = data.draw(st.integers(2, 40), label="n_primal")
    wide_rows = max(2, 3 * n_primal // 5)
    n_dual = data.draw(st.integers(max(1, n_primal - wide_rows + 1), 40), label="n_dual")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    iters = data.draw(st.integers(1, 300), label="iters")
    mu_g, lam = (data.draw(st.floats(1e-4, 10.0), label=name) for name in ("mu_g", "lam"))
    capped_mu_g = data.draw(st.floats(1e-4, 1.0), label="capped mu_g")
    strong = make_quadratic_saddle(n_primal, n_dual, seed=seed, mu_g=mu_g, lam=lam)
    weak = make_quadratic_saddle(n_primal, n_dual, seed=seed, mu_g=mu_g, lam=0.0,
                                 c_rows=wide_rows)
    capped = make_ball_capped_saddle(n_primal, n_dual, seed=seed, mu_g=capped_mu_g,
                                     lam=0.0, c_rows=wide_rows)
    for inst, regime in _bench_runs(strong, weak, capped, iters):
        for rec in _run_bench_case(inst, regime, iters).records:
            if rec.bound is not None:
                assert rec.gap <= rec.bound + BOUND_SLACK, (regime, rec.t)


def test_a_regime_with_the_cli_s_extra_fields_records_its_own_schedule_s_bound():
    # deblur-gauss gives every ldpd regime horizon=iters and, with --tau,
    # a positive tau, and every edpd regime tau = 1/||A||; a schedule
    # that does not read a field must record the same bound with it set
    args = types.SimpleNamespace(dims="8,6", seed=1)
    iters = 20
    for inst, regime in _bench_runs(*_bench_instances(args), iters):
        if isinstance(regime, ldpd.LdpdRegime):
            twin = dataclasses.replace(regime, horizon=iters, tau=regime.tau or 5.0)
        else:
            twin = dataclasses.replace(
                regime, tau=regime.tau or 1.0 / inst.problem.A.norm_bound)
        bounds = [rec.bound for rec in _run_bench_case(inst, regime, iters).records]
        twin_bounds = [rec.bound for rec in _run_bench_case(inst, twin, iters).records]
        assert twin_bounds == bounds, regime
        horizon_tuned = (isinstance(regime, ldpd.LdpdRegime)
                         and regime.variant == ldpd.WEAKLY_CONVEX)
        recorded = [k for k, b in enumerate(bounds, start=1) if b is not None]
        assert recorded == ([iters] if horizon_tuned else list(range(1, iters + 1)))


def test_back_to_back_runs_on_one_problem_are_identical():
    problem = build_saltpepper_problem(SaltPepperDeblurSpec(
        observed=make_phantom(16, 16), kernel=make_average_kernel(3),
        alpha=4.0, mu_g0=0.03))
    x1 = np.zeros(problem.primal_dim)
    y1 = np.zeros(problem.dual_dim)
    regime = edpd.EdpdRegime(edpd.STRONGLY_CONVEX_DUAL)

    def mu_g(t):
        return continuation_mu_g(t, 0.03, 2)

    plain = edpd.run_edpd(problem, regime, x1, y1, 8)
    first = edpd.run_edpd(problem, regime, x1, y1, 8, mu_g=mu_g)
    second = edpd.run_edpd(problem, regime, x1, y1, 8, mu_g=mu_g)
    plain_again = edpd.run_edpd(problem, regime, x1, y1, 8)
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.y, second.y)
    # a continuation run leaves the problem as it found it
    assert np.array_equal(plain.x, plain_again.x)
    assert np.array_equal(plain.y, plain_again.y)
    assert problem.g.mu_g == 0.03


def test_snapshot_aggregates_are_computed_on_first_read_and_cached():
    inst = make_quadratic_saddle(8, 5, seed=2)
    problem = inst.problem
    unread = []
    snaps = []

    def observer(snap):
        unread.append("x" not in vars(snap) and "y" not in vars(snap))
        x = snap.x
        assert snap.x is x
        assert np.array_equal(x, snap.state.agg_num_x / snap.state.agg_den)
        assert np.array_equal(snap.y, snap.state.agg_num_y / snap.state.agg_den)
        snaps.append(snap)

    result = edpd.run_edpd(problem, edpd.EdpdRegime(edpd.STRONGLY_CONVEX_DUAL),
                           np.zeros(problem.primal_dim),
                           np.zeros(problem.dual_dim), 6, observer)
    assert unread == [True] * 6
    assert np.array_equal(snaps[-1].x, result.x)
    assert np.array_equal(snaps[-1].y, result.y)


@pytest.mark.parametrize("family", ["ldpd", "edpd"])
def test_snapshot_aggregates_read_in_the_observer_stay_valid_after_the_run(family):
    inst = make_quadratic_saddle(8, 5, seed=2, mu_g=0.4, lam=1.0)
    problem = inst.problem
    kept, expected, unread = [], [], []

    def observer(snap):
        if snap.t % 2:
            kept.append((snap.x, snap.y))
            expected.append((snap.state.agg_num_x / snap.state.agg_den,
                             snap.state.agg_num_y / snap.state.agg_den))
        else:
            unread.append(snap)

    if family == "ldpd":
        ldpd.run_ldpd(problem, ldpd.LdpdRegime(ldpd.STRONGLY_CONVEX_DUAL),
                      np.zeros(8), np.zeros(5), 6, observer)
    else:
        edpd.run_edpd(problem, edpd.EdpdRegime(edpd.STRONGLY_CONVEX_DUAL),
                      np.zeros(8), np.zeros(5), 6, observer)
    for (x, y), (ex, ey) in zip(kept, expected, strict=True):
        assert np.array_equal(x, ex) and np.array_equal(y, ey)
    # the run updates one state in place, so an aggregate first read
    # after the run moved on would be another iteration's; it raises
    with pytest.raises(ContractViolationError, match="iteration 2"):
        unread[0].x
    # so does an aggregate written into a buffer, and a recorder reading one
    with pytest.raises(ContractViolationError, match="iteration 2"):
        unread[0].primal_aggregate(np.empty(8))
    with pytest.raises(ContractViolationError, match="iteration 2"):
        HistoryRecorder(x_true=np.zeros(8))(unread[0])
    assert np.array_equal(unread[-1].x, unread[-1].state.aggregate_x)
    out = np.empty(8)
    assert unread[-1].primal_aggregate(out) is out
    assert np.array_equal(out, unread[-1].state.aggregate_x)


@pytest.mark.parametrize("entries, finite", [
    ([1.0, -2.0, 0.0], True),
    ([1.0, np.nan, 3.0], False),
    ([np.inf, 1.0], False),
    ([1.0, -np.inf], False),
    ([np.inf, -np.inf], False),
    # squares that overflow: the one-pass test fails, the extremes pass
    ([1e200, -1e200, 3.0], True),
    ([1e200, np.nan], False),
    ([-1e200, np.inf], False),
    # squares that underflow to zero
    ([5e-324, -1e-310, 2.2e-308], True),
    ([5e-324, np.nan], False),
])
def test_all_finite_tells_every_nonfinite_entry_apart(entries, finite):
    # runs under the suite's error::RuntimeWarning filter, so the
    # overflowing and underflowing squares must warn nothing
    v = np.array(entries)
    assert solver._all_finite(v) is finite
    assert solver._all_finite(v[::-1]) is finite
