import dataclasses
import math
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdsolve import diagnostics
from dpdsolve.bench import make_ball_capped_saddle, make_quadratic_saddle
from dpdsolve.cli import _bench_instances, _bench_runs, _run_bench_case
from dpdsolve.diagnostics import (
    REGIMES,
    GapReference,
    HistoryRecord,
    HistoryRecorder,
    dual_distance_rate_check,
    fit_loglog_slope,
    primal_dual_gap,
    read_history_csv,
    regime_tag,
    snr_db,
    theoretical_bound,
    write_history_csv,
)
from dpdsolve.errors import ConfigurationError, ContractViolationError, DivergenceError
from dpdsolve.edpd import run_edpd
from dpdsolve.ldpd import LdpdRegime, STRONGLY_CONVEX_DUAL, run_ldpd
from dpdsolve.imaging import (
    GaussianDeblurSpec,
    build_gaussian_problem,
    make_phantom,
)
from dpdsolve.linops import make_average_kernel, make_motion_kernel
from dpdsolve.model import SolverConsts


def test_gap_is_zero_at_the_reference_pair():
    inst = make_quadratic_saddle(8, 5, seed=5)
    ref = GapReference(inst.x_star, inst.y_star)
    assert primal_dual_gap(inst.problem, inst.x_star, inst.y_star, ref) == 0.0


def test_gap_is_nonnegative_against_a_saddle_reference():
    inst = make_quadratic_saddle(8, 5, seed=5)
    ref = GapReference(inst.x_star, inst.y_star)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = inst.x_star + rng.standard_normal(8)
        y = inst.y_star + rng.standard_normal(5)
        assert primal_dual_gap(inst.problem, x, y, ref) >= -1e-10


def test_bound_value_strongly_convex_dual():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.01, norm_A=1.0)
    got = theoretical_bound("ldpd-strongly-convex-dual", 10, consts, 1.0, 1.0)
    assert got == pytest.approx(302.0 / 110.0 + 1.0 / 33000.0, rel=1e-14)


def test_bound_value_edpd_strongly_convex_dual():
    consts = SolverConsts(L_f=0.0, mu_f=0.0, mu_g=1.0, norm_A=1.0)
    got = theoretical_bound("edpd-strongly-convex-dual", 1, consts, 1.0, 1.0)
    assert got == pytest.approx(1.025, rel=1e-14)


def test_bound_value_single_step():
    consts = SolverConsts(L_f=2.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    got = theoretical_bound("ldpd-single-step", 4, consts, 2.0, 3.0, tau=1.0)
    assert got == pytest.approx((2.0 + 1.0) * 2.0 / 8.0 + 3.0 / 8.0, rel=1e-14)


def test_bound_value_weakly_convex_horizon_only():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    got = theoretical_bound("ldpd-weakly-convex", 100, consts, 1.0, 1.0,
                            horizon=100)
    assert got == pytest.approx(2.0 / 10100.0 + 2.0 / 101.0, rel=1e-14)
    with pytest.raises(ContractViolationError):
        theoretical_bound("ldpd-weakly-convex", 50, consts, 1.0, 1.0,
                          horizon=100)


# The three below are worked by hand from the theorems, with L_f = 1,
# mu_f = 0.5, mu_g = 0, ||A|| = 1 and dx2 = dy2 = 1. The strongly convex
# primal schedules fix tau = mu_f / (2 ||A||^2) = 0.25.
SCP_CONSTS = SolverConsts(L_f=1.0, mu_f=0.5, mu_g=0.0, norm_A=1.0)


def test_bound_value_ldpd_strongly_convex_primal():
    # t0 = ceil(2 (L_f - mu_f) / mu_f) = 2, so at k = 1:
    # (t0 + 2) / (k (k + 3 + 2 t0)) = 4 / 8, times
    # dx2 (L_f - mu_f + 2 tau ||A||^2) + dy2 / (2 tau) = 1 + 2
    got = theoretical_bound("ldpd-strongly-convex-primal", 1, SCP_CONSTS, 1.0, 1.0)
    assert got == pytest.approx(1.5, rel=1e-14)


def test_bound_value_edpd_strongly_convex_primal():
    # (6 tau ||A||^2 dx2 + 1.5 dy2 / tau) / (k (k + 5)) = (1.5 + 6) / 6
    got = theoretical_bound("edpd-strongly-convex-primal", 1, SCP_CONSTS, 1.0, 1.0)
    assert got == pytest.approx(1.25, rel=1e-14)


def test_bound_value_edpd_weakly_convex():
    # (dx2 ||A||^2 tau + dy2 / tau) / (2 k) = (0.5 + 2) / 4 at k = 2
    got = theoretical_bound("edpd-weakly-convex", 2, SCP_CONSTS, 1.0, 1.0, tau=0.5)
    assert got == pytest.approx(0.625, rel=1e-14)


# The seven published bounds, written apart from the package's regime
# tables: each takes (k, consts, dx2, dy2, tau, N) and ignores what its
# theorem does not read. A strongly convex dual schedule fixes tau = c /
# mu_g (c = 3 for ldpd, 2.5 for edpd), and a strongly convex primal one
# tau = mu_f / (2 ||A||^2), which turns its 2 tau ||A||^2 into mu_f and
# its 1 / tau into 2 ||A||^2 / mu_f. The ldpd one shifts its index by
# t0 = ceil(2 (L_f - mu_f) / mu_f). The horizon-tuned ldpd bound speaks
# only of k = N. The hand-worked values above are this table's too.
def _t0(c):
    return math.ceil(2.0 * (c.L_f - c.mu_f) / c.mu_f)


BOUND_TABLE = {
    "ldpd-weakly-convex": lambda k, c, dx2, dy2, tau, N: (
        (2.0 * c.L_f * dx2 / N + c.norm_A**2 * dx2 + dy2) / (N + 1.0)),
    "ldpd-strongly-convex-dual": lambda k, c, dx2, dy2, tau, N: (
        ((2.0 * c.L_f + 3.0 / c.mu_g * c.norm_A**2) * dx2 + c.mu_g * dy2 / 3.0)
        / (k * (k + 1.0))),
    "ldpd-strongly-convex-primal": lambda k, c, dx2, dy2, tau, N: (
        (_t0(c) + 2.0) * (c.L_f * dx2 + c.norm_A**2 * dy2 / c.mu_f)
        / (k * (k + 2.0 * _t0(c) + 3.0))),
    "ldpd-single-step": lambda k, c, dx2, dy2, tau, N: (
        ((c.L_f + tau * c.norm_A**2) * dx2 + dy2 / tau) / (2.0 * k)),
    "edpd-strongly-convex-primal": lambda k, c, dx2, dy2, tau, N: (
        3.0 * (c.mu_f * dx2 + c.norm_A**2 * dy2 / c.mu_f) / (k * (k + 5.0))),
    "edpd-strongly-convex-dual": lambda k, c, dx2, dy2, tau, N: (
        (2.5 / c.mu_g * c.norm_A**2 * dx2 + 1.6 * c.mu_g * dy2) / (k * (k + 3.0))),
    "edpd-weakly-convex": lambda k, c, dx2, dy2, tau, N: (
        (c.norm_A**2 * tau * dx2 + dy2 / tau) / (2.0 * k)),
}

_POSITIVE = st.floats(1e-3, 1e3)


def test_the_bound_table_names_every_published_regime():
    assert list(BOUND_TABLE) == list(REGIMES)


@settings(max_examples=100, deadline=None)
@given(tag=st.sampled_from(sorted(BOUND_TABLE)),
       k=st.integers(1, 10**4), L_f=_POSITIVE, mu_f_share=st.floats(1e-3, 1.0),
       mu_g=_POSITIVE, norm_A=_POSITIVE, tau=_POSITIVE,
       dx2=st.floats(0.0, 1e3), dy2=st.floats(0.0, 1e3))
def test_every_bound_matches_the_table_at_drawn_parameters(
        tag, k, L_f, mu_f_share, mu_g, norm_A, tau, dx2, dy2):
    consts = SolverConsts(L_f=L_f, mu_f=mu_f_share * L_f, mu_g=mu_g, norm_A=norm_A)
    given_ = {}
    if tag == "ldpd-weakly-convex":
        given_["horizon"] = k  # stated only at k = horizon
    elif REGIMES[tag].reads == "tau":
        given_["tau"] = tau
    got = theoretical_bound(tag, k, consts, dx2, dy2, **given_)
    want = BOUND_TABLE[tag](k, consts, dx2, dy2, tau, k)
    assert math.isclose(got, want, rel_tol=1e-12), (got, want)


# max_k gap / bound of each regime's synth-bench run, 500 iterations, in
# REGIMES order, as measured when these floors were set. A bound made 2x
# looser halves its ratio, so each (instance, tag) must keep at least 0.7
# of its own value; the ratios differ too much between instances for one
# floor per tag.
TIGHTNESS = {
    ("20,15", 42): (0.04515, 0.2767, 0.09652, 0.3046, 0.3009, 0.3637, 0.5934),
    ("20,15", 0): (0.08535, 0.3099, 0.1210, 0.2736, 0.2912, 0.3730, 0.4735),
    ("20,15", 7): (0.04909, 0.2795, 0.1040, 0.2981, 0.2591, 0.3679, 0.5111),
    ("40,30", 42): (0.03336, 0.2710, 0.09664, 0.2862, 0.2679, 0.3617, 0.5018),
    ("40,30", 0): (0.05091, 0.2521, 0.09315, 0.2923, 0.2557, 0.3516, 0.5138),
    ("40,30", 7): (0.01193, 0.3092, 0.07530, 0.2842, 0.2606, 0.3965, 0.5095),
}


@pytest.mark.parametrize("dims, seed", list(TIGHTNESS))
def test_every_bound_stays_within_reach_of_its_measured_gaps(dims, seed):
    floors = dict(zip(REGIMES, TIGHTNESS[dims, seed]))
    args = types.SimpleNamespace(dims=dims, seed=seed)
    for inst, regime in _bench_runs(*_bench_instances(args), 500):
        records = _run_bench_case(inst, regime, 500).records
        ratio = max(r.gap / r.bound for r in records if r.bound is not None)
        tag = regime_tag(regime)
        assert ratio >= 0.7 * floors[tag], (tag, ratio, floors[tag])


def test_bound_decreases_in_k_for_anytime_tags():
    consts = SolverConsts(L_f=1.0, mu_f=0.5, mu_g=0.2, norm_A=1.0)
    for tag in REGIMES:
        if tag == "ldpd-weakly-convex":
            continue
        kw = {"tau": 0.7} if tag in ("ldpd-single-step", "edpd-weakly-convex") \
            else {}
        values = [theoretical_bound(tag, k, consts, 1.0, 1.0, **kw)
                  for k in range(1, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_bound_rejects_bad_inputs():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    with pytest.raises(ConfigurationError):
        theoretical_bound("no-such-tag", 1, consts, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        theoretical_bound("ldpd-single-step", 1, consts, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        theoretical_bound("edpd-weakly-convex", 1, consts, 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        theoretical_bound("ldpd-single-step", 0, consts, 1.0, 1.0, tau=1.0)
    with pytest.raises(ContractViolationError):
        theoretical_bound("ldpd-single-step", 1, consts, -1.0, 1.0, tau=1.0)


@pytest.mark.parametrize("tag, kwargs", [
    ("ldpd-weakly-convex", dict(horizon=float("inf"))),
    ("ldpd-weakly-convex", dict(horizon=float("nan"))),
    ("ldpd-single-step", dict(tau=float("inf"))),
    ("edpd-strongly-convex-dual", dict(tau=float("inf"))),
], ids=["horizon-inf", "horizon-nan", "single-step-tau-inf", "edpd-dual-tau-inf"])
def test_bound_refuses_a_non_finite_horizon_or_tau(tag, kwargs):
    # an infinite horizon used to end in int()'s OverflowError
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.5, norm_A=1.0)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        theoretical_bound(tag, 5, consts, 1.0, 1.0, **kwargs)


def test_dual_distance_rate_check_on_a_real_run():
    inst = make_quadratic_saddle(12, 8, seed=9, mu_g=0.5, lam=0.0, c_rows=7)
    dx2, dy2 = inst.initial_distances()
    consts = SolverConsts.from_problem(inst.problem)
    history = []
    run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
             np.zeros(12), np.zeros(8), 300,
             observer=lambda s: history.append(
                 (s.t, float(np.linalg.norm(s.y - inst.y_star)))))
    result = dual_distance_rate_check(history, consts, dx2, dy2)
    assert result.passed and result.first_violation is None


def test_dual_distance_rate_check_reports_first_violation():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.5, norm_A=1.0)
    good = [(k, 0.0) for k in range(1, 10)]
    bad = good + [(7, 1e9)]
    assert dual_distance_rate_check(good, consts, 1.0, 1.0).passed
    result = dual_distance_rate_check(bad, consts, 1.0, 1.0)
    assert not result.passed
    assert result.first_violation == 7
    # (mu_g / 2) dist^2 is held to the bound itself: 0.99 of it passes,
    # 1.5 times it fails
    bound = theoretical_bound("ldpd-strongly-convex-dual", 3, consts, 1.0, 1.0)
    for share, passed in ((0.99, True), (1.5, False)):
        dist = math.sqrt(2.0 * share * bound / consts.mu_g)
        assert dual_distance_rate_check([(3, dist)], consts, 1.0, 1.0).passed is passed


def test_dual_distance_rate_check_needs_mu_g():
    consts = SolverConsts(L_f=1.0, mu_f=0.0, mu_g=0.0, norm_A=1.0)
    with pytest.raises(ConfigurationError):
        dual_distance_rate_check([(1, 0.0)], consts, 1.0, 1.0)


def test_loglog_slope_recovers_power_laws():
    ks = range(1, 101)
    assert fit_loglog_slope([(k, 1.0 / k) for k in ks]) == pytest.approx(-1.0)
    assert fit_loglog_slope([(k, 5.0 / k**2) for k in ks]) == pytest.approx(-2.0)
    assert fit_loglog_slope([(k, 3.0) for k in ks]) == pytest.approx(0.0)


def test_loglog_slope_respects_k_min():
    # steeper tail than head; restricting the window must steepen the fit
    series = [(k, 1.0 / k if k < 50 else 50.0 / k**2) for k in range(1, 200)]
    full = fit_loglog_slope(series)
    tail = fit_loglog_slope(series, k_min=50)
    assert tail == pytest.approx(-2.0)
    assert full > tail


def test_loglog_slope_drops_nonpositive_values_with_warning():
    series = [(k, 1.0 / k) for k in range(1, 30)]
    series[4] = (5, 0.0)
    series[9] = (10, -1e-3)
    with pytest.warns(UserWarning, match=r"k=\[5, 10\]"):
        slope = fit_loglog_slope(series)
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_loglog_slope_needs_enough_points():
    with pytest.raises(ContractViolationError):
        fit_loglog_slope([(k, 1.0 / k) for k in range(1, 10)])
    with pytest.raises(ContractViolationError):
        fit_loglog_slope([(k, 1.0 / k) for k in range(1, 100)], k_min=95)


def test_snr_values():
    truth = np.array([0.0, 1.0, 0.0, 1.0])
    assert snr_db(truth, truth) == float("inf")
    flat = np.full(4, truth.mean())
    assert snr_db(flat, truth) == pytest.approx(0.0, abs=1e-12)
    tenth = truth + (truth - truth.mean()) / 10.0
    assert snr_db(tenth, truth) == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(ContractViolationError):
        snr_db(np.zeros(3), truth)


def test_history_csv_round_trip(tmp_path):
    records = [
        HistoryRecord(t=1, gap=0.125, bound=1.0 / 3.0, snr_db=None,
                      dist_dual=2.0**-40, theta=1.0, alpha=0.0,
                      tau=0.1, eta=0.01, wall_ms=None),
        HistoryRecord(t=2, gap=None, bound=None, snr_db=-3.5,
                      dist_dual=None, theta=None, alpha=None,
                      tau=None, eta=None, wall_ms=1.75),
    ]
    path = tmp_path / "history.csv"
    write_history_csv(path, records)
    back = read_history_csv(path)
    assert back == records


def test_history_csv_label_line(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(path, [HistoryRecord(t=1)], label="heuristic continuation")
    first = path.read_text().splitlines()[0]
    assert first == "# heuristic continuation"
    assert read_history_csv(path) == [HistoryRecord(t=1)]


def test_history_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ContractViolationError):
        read_history_csv(path)
    path.write_text("t,gap,bound,snr_db,dist_dual,theta,alpha,tau,eta,wall_ms\n"
                    "1,2\n")
    with pytest.raises(ContractViolationError):
        read_history_csv(path)


def test_recorder_fills_requested_fields_only():
    inst = make_quadratic_saddle(8, 5, seed=15, mu_g=0.4, lam=1.0)
    ref = GapReference(inst.x_star, inst.y_star)
    consts = SolverConsts.from_problem(inst.problem)
    dx2, dy2 = inst.initial_distances()
    recorder = HistoryRecorder(
        problem=inst.problem, ref=ref,
        bound_fn=lambda k: theoretical_bound(
            "ldpd-strongly-convex-dual", k, consts, dx2, dy2),
        y_star=inst.y_star,
    )
    run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
             np.zeros(8), np.zeros(5), 20, observer=recorder)
    assert len(recorder.records) == 20
    for rec in recorder.records:
        assert rec.gap is not None and rec.bound is not None
        assert rec.dist_dual is not None
        assert rec.snr_db is None and rec.wall_ms is None
        assert rec.theta is not None and rec.eta is not None
    gaps = recorder.series("gap")
    assert [t for t, _ in gaps] == list(range(1, 21))
    assert recorder.series("snr_db") == []


def test_recorder_gap_matches_primal_dual_gap_in_every_regime():
    # 60 iterations keep every gap above 1e-2, so that the two ways of
    # rounding <Ax, y_ref> stay far below the 1e-12 relative tolerance.
    args = types.SimpleNamespace(dims="20,15", seed=42)
    iters = 60
    for inst, regime in _bench_runs(*_bench_instances(args), iters):
        problem = inst.problem
        ref = GapReference(inst.x_star, inst.y_star)
        recorder = HistoryRecorder(problem=problem, ref=ref)
        expected = []

        def observer(snap):
            recorder(snap)
            expected.append(primal_dual_gap(problem, snap.x, snap.y, ref))

        run = run_ldpd if isinstance(regime, LdpdRegime) else run_edpd
        run(problem, regime, np.zeros(problem.primal_dim),
            np.zeros(problem.dual_dim), iters, observer)
        got = [rec.gap for rec in recorder.records]
        assert len(got) == len(expected) == iters
        for t, (a, b) in enumerate(zip(got, expected), start=1):
            assert abs(a - b) <= 1e-12 * abs(b), (regime, t, a, b)


def test_recorder_gap_is_infinite_outside_the_dual_domain():
    balled = make_ball_capped_saddle(8, 5, seed=2)
    recorder = HistoryRecorder(problem=balled.problem,
                               ref=GapReference(balled.x_star, balled.y_star))
    # y* sits on the ball, so 1.5 y* lies outside it
    outside = 1.5 * balled.y_star
    recorder(types.SimpleNamespace(t=1, x=balled.x_star, y=outside, params=None))
    assert recorder.records[0].gap == np.inf
    assert primal_dual_gap(balled.problem, balled.x_star, outside,
                           GapReference(balled.x_star, balled.y_star)) == np.inf


def test_recorder_bound_fn_may_return_none():
    recorder = HistoryRecorder(bound_fn=lambda k: None if k < 3 else 1.0)

    class Snap:
        params = None
        x = y = np.zeros(1)

    for t in (1, 2, 3):
        snap = Snap()
        snap.t = t
        recorder(snap)
    assert [r.bound for r in recorder.records] == [None, None, 1.0]


def test_recorder_timing_is_opt_in():
    recorder = HistoryRecorder(timing=True)

    class Snap:
        t = 1
        params = None
        x = y = np.zeros(1)

    recorder(Snap())
    assert recorder.records[0].wall_ms is not None
    assert recorder.records[0].wall_ms >= 0.0


def test_recorder_requires_problem_for_gap():
    with pytest.raises(ConfigurationError):
        HistoryRecorder(ref=GapReference(np.zeros(2), np.zeros(2)))


def test_recorder_snr_column_equals_snr_db_bitwise():
    truth = make_phantom(16, 12)
    problem = build_gaussian_problem(GaussianDeblurSpec(
        observed=truth, kernel=make_average_kernel(3), mu=300.0, mu_g=0.01))
    recorder = HistoryRecorder(x_true=truth)
    expected = []

    def observer(snap):
        recorder(snap)
        expected.append(snr_db(snap.x, truth))

    run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
             np.zeros(problem.primal_dim), np.zeros(problem.dual_dim), 15,
             observer)
    got = [rec.snr_db for rec in recorder.records]
    assert len(got) == 15
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_recorder_refuses_a_truth_of_another_size():
    truth = make_phantom(16, 12)
    problem = build_gaussian_problem(GaussianDeblurSpec(
        observed=truth, kernel=make_average_kernel(3), mu=300.0, mu_g=0.01))
    recorder = HistoryRecorder(x_true=make_phantom(12, 12))
    with pytest.raises(ContractViolationError, match="shapes differ"):
        run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
                 np.zeros(problem.primal_dim), np.zeros(problem.dual_dim), 2,
                 recorder)


@pytest.mark.parametrize("tag,zero", [
    ("ldpd-strongly-convex-dual", "mu_g"),
    ("edpd-strongly-convex-dual", "mu_g"),
    ("ldpd-strongly-convex-primal", "norm_A"),
    ("edpd-strongly-convex-primal", "norm_A"),
    ("ldpd-strongly-convex-primal", "mu_f"),
    ("edpd-strongly-convex-primal", "mu_f"),
])
def test_bound_refuses_a_regime_constant_that_is_zero(tag, zero):
    # the strongly convex tags used to raise ZeroDivisionError here
    consts = dict(L_f=1.0, mu_f=0.5, mu_g=0.2, norm_A=1.0)
    consts[zero] = 0.0
    with pytest.raises(ConfigurationError):
        theoretical_bound(tag, 5, SolverConsts(**consts), 1.0, 1.0)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_snr_is_minus_infinite_when_the_error_norm_overflows(scale):
    truth = make_phantom(8, 8)
    assert snr_db(np.full(64, scale), truth) == -np.inf
    assert snr_db(np.full(64, -scale), truth) == -np.inf


# A pair of 20-vector and 15-vector aggregates at synth-bench --dims 20,15.
_PAIR_BYTES_20_15 = (20 + 15) * 8


@pytest.mark.parametrize("pairs", [3, None], ids=["three pairs", "default budget"])
def test_batched_gaps_equal_gaps_evaluated_in_every_call(monkeypatch, pairs):
    args = types.SimpleNamespace(dims="20,15", seed=42)
    runs = _bench_runs(*_bench_instances(args), 60)

    def histories(budget):
        monkeypatch.setattr(diagnostics, "GAP_BATCH_BYTES", budget)
        return [[dataclasses.astuple(rec)
                 for rec in _run_bench_case(inst, regime, 60).records]
                for inst, regime in runs]

    per_call = histories(0)
    batched = histories(diagnostics.GAP_BATCH_BYTES if pairs is None
                        else pairs * _PAIR_BYTES_20_15)
    assert batched == per_call
    assert all(rec[1] is not None for history in batched for rec in history)


def test_a_second_observer_reading_the_records_mid_run_sees_every_gap():
    inst = make_quadratic_saddle(20, 15, seed=3, mu_g=0.5, lam=1.0)
    recorder = HistoryRecorder(problem=inst.problem,
                               ref=GapReference(inst.x_star, inst.y_star))
    seen = []

    def reader(snap):
        recorder(snap)
        seen.append([rec.gap for rec in recorder.records])

    run_ldpd(inst.problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
             np.zeros(20), np.zeros(15), 12, reader)
    assert [len(gaps) for gaps in seen] == list(range(1, 13))
    assert all(g is not None for gaps in seen for g in gaps)


def test_a_diverging_run_leaves_every_gap_before_the_failure():
    args = types.SimpleNamespace(dims="20,15", seed=42)
    inst, regime = _bench_runs(*_bench_instances(args), 30)[1]
    g = inst.problem.g
    calls = []

    def nan_at_5(z, step, mu_g):
        calls.append(None)
        y = g.prox(z, step, mu_g)
        return np.full_like(y, np.nan) if len(calls) == 5 else y

    broken = dataclasses.replace(inst, problem=dataclasses.replace(
        inst.problem, g=dataclasses.replace(g, prox=nan_at_5)))
    recorder = HistoryRecorder(problem=broken.problem,
                               ref=GapReference(inst.x_star, inst.y_star))
    with pytest.raises(DivergenceError):
        run_ldpd(broken.problem, regime, np.zeros(20), np.zeros(15), 30, recorder)
    assert [rec.t for rec in recorder.records] == [1, 2, 3, 4]
    assert all(rec.gap is not None for rec in recorder.records)


def test_a_gap_that_raises_stays_pending_and_raises_at_every_read():
    inst = make_quadratic_saddle(8, 5, seed=2)
    f = inst.problem.f

    def value(x):
        if not np.array_equal(x, inst.x_star):
            raise FloatingPointError("f is undefined here")
        return f.value(x)

    problem = dataclasses.replace(inst.problem, f=dataclasses.replace(f, value=value))
    recorder = HistoryRecorder(problem=problem,
                               ref=GapReference(inst.x_star, inst.y_star))
    recorder(types.SimpleNamespace(t=1, x=inst.x_star + 1.0, y=inst.y_star,
                                   params=None))
    for _ in range(2):
        with pytest.raises(FloatingPointError):
            recorder.records
        with pytest.raises(FloatingPointError):
            recorder.series("t")


@pytest.mark.parametrize("pairs_kept", [0, 1])
def test_a_pair_over_the_budget_is_not_kept_past_its_call(monkeypatch, pairs_kept):
    truth = make_phantom(64, 64)
    problem = build_gaussian_problem(GaussianDeblurSpec(
        observed=truth, kernel=make_motion_kernel(9, 30.0), mu=3000.0, mu_g=0.01))
    pair_bytes = 8 * (problem.primal_dim + problem.dual_dim)
    # below one pair, every call evaluates its own; with room for two, each
    # call but every second keeps its pair, which the check must see
    monkeypatch.setattr(diagnostics, "GAP_BATCH_BYTES",
                        pair_bytes // 2 if pairs_kept == 0 else 2 * pair_bytes)
    recorder = HistoryRecorder(problem=problem, ref=GapReference(
        np.zeros(problem.primal_dim), np.zeros(problem.dual_dim)))
    refs, alive = [], []

    def observer(snap):
        alive.append(sum(r() is not None for r in refs))
        recorder(snap)
        refs.append(weakref.ref(snap.x))

    run_ldpd(problem, LdpdRegime(STRONGLY_CONVEX_DUAL),
             np.zeros(problem.primal_dim), np.zeros(problem.dual_dim), 6, observer)
    assert alive == ([0] * 6 if pairs_kept == 0 else [0, 1, 0, 1, 0, 1])
    assert len(recorder.records) == 6
