"""Acceptance run for the shipped guarantees and experiment reproductions.

Every check prints one `[criterion NN] PASS/FAIL` line with the measured
numbers before asserting, so `pytest tests/test_acceptance.py -v -s`
doubles as the acceptance report. The synthetic criteria reuse the exact
instances and schedule wiring of the `synth-bench` CLI command; the
imaging criteria mirror the CLI defaults at desk scale.
"""

from __future__ import annotations

import subprocess
import sys
import time
import types

import numpy as np
import pytest
from conftest import explicit_anchor_ldpd

from dpdsolve import edpd, ldpd
from dpdsolve.cli import _bench_instances, _bench_runs, _run_bench_case
from dpdsolve.diagnostics import (
    HistoryRecorder,
    dual_distance_rate_check,
    fit_loglog_slope,
    regime_tag,
    snr_db,
)
from dpdsolve.imaging import (
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    add_gaussian_noise,
    add_salt_pepper,
    build_gaussian_problem,
    build_saltpepper_problem,
    continuation_mu_g,
    make_phantom,
)
from dpdsolve.ldpd import aggregate_closed_form
from dpdsolve.linops import (
    ImageGrid,
    MatrixOperator,
    make_average_kernel,
    make_convolution_operator,
    make_difference_operator,
    make_motion_kernel,
    make_stacked_operator,
)
from dpdsolve.model import SolverConsts

BENCH_ITERS = 500
BOUND_SLACK = 1e-9


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict}  {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bench():
    """The seven schedule runs on the certified dense instances,
    each paired with its instance and wall time."""
    args = types.SimpleNamespace(dims="20,15", seed=42)
    strong, weak, capped = _bench_instances(args)
    out = {}
    for inst, regime in _bench_runs(strong, weak, capped, BENCH_ITERS):
        start = time.perf_counter()
        recorder = _run_bench_case(inst, regime, BENCH_ITERS)
        out[regime_tag(regime)] = (inst, recorder, time.perf_counter() - start)
    return out


def test_criterion_01_terminal_gap_bound(bench):
    _, rec, wall = bench["ldpd-weakly-convex"]
    final = rec.records[-1]
    ok = (final.t == BENCH_ITERS and final.bound is not None
          and final.gap <= final.bound + BOUND_SLACK and wall < 5.0)
    _report(1, ok, f"gap({BENCH_ITERS})={final.gap:.6e} <= "
                   f"bound={final.bound:.6e} (slack {BOUND_SLACK:g}); "
                   f"wall={wall:.2f}s")


def test_criterion_02_dual_schedule_bound_everywhere(bench):
    _, rec, wall = bench["ldpd-strongly-convex-dual"]
    assert all(r.bound is not None for r in rec.records)
    worst = max(r.gap - r.bound for r in rec.records)
    ok = worst <= BOUND_SLACK and len(rec.records) == BENCH_ITERS and wall < 5.0
    _report(2, ok, f"max(gap - bound)={worst:.3e} over k<=500; wall={wall:.2f}s")


REMAINING_TAGS = (
    "ldpd-strongly-convex-primal",
    "ldpd-single-step",
    "edpd-strongly-convex-primal",
    "edpd-strongly-convex-dual",
    "edpd-weakly-convex",
)


def test_criterion_03_remaining_guarantees_hold(bench):
    ok = True
    parts = []
    for tag in REMAINING_TAGS:
        _, rec, _ = bench[tag]
        with_bound = [r for r in rec.records if r.bound is not None]
        worst = max(r.gap - r.bound for r in with_bound)
        ok = ok and len(with_bound) == BENCH_ITERS and worst <= BOUND_SLACK
        parts.append(f"{tag}={worst:.1e}")
    _report(3, ok, "max(gap - bound): " + ", ".join(parts))


def test_criterion_04_rate_separation(bench):
    slopes = {
        tag: fit_loglog_slope(bench[tag][1].series("gap"), k_min=50)
        for tag in ("ldpd-strongly-convex-dual", "edpd-strongly-convex-dual",
                    "edpd-weakly-convex")
    }
    ok = (slopes["ldpd-strongly-convex-dual"] <= -1.8
          and slopes["edpd-strongly-convex-dual"] <= -1.8
          and -1.3 <= slopes["edpd-weakly-convex"] <= -0.7)
    _report(4, ok, "slopes over k in [50,500]: "
            f"ldpd-scd={slopes['ldpd-strongly-convex-dual']:.3f} (<= -1.8), "
            f"edpd-scd={slopes['edpd-strongly-convex-dual']:.3f} (<= -1.8), "
            f"edpd-wc={slopes['edpd-weakly-convex']:.3f} (in [-1.3,-0.7])")


def test_criterion_05_dual_distance_guarantee(bench):
    inst, rec, _ = bench["ldpd-strongly-convex-dual"]
    consts = SolverConsts.from_problem(inst.problem)
    dx2, dy2 = inst.initial_distances()
    series = rec.series("dist_dual")
    result = dual_distance_rate_check(series, consts, dx2, dy2)
    detail = f"(mu_g/2)*dist^2 under the gap bound at all {len(series)} steps"
    if not result.passed:
        detail = f"first violation at k={result.first_violation}"
    _report(5, result.passed, detail)


def test_criterion_06_blend_equals_weighted_average(bench):
    # The paper's recursion carries its blend anchor xbar explicitly; the
    # solver anchors at the t-weighted aggregate instead. Both must agree:
    # the paper's xbar with the closed-form average of its own iterates,
    # and the solver's iterates and aggregate with the paper's.
    inst = bench["ldpd-weakly-convex"][0]
    iters = 200
    worst = 0.0
    for variant in (ldpd.WEAKLY_CONVEX, ldpd.STRONGLY_CONVEX_DUAL):
        regime = ldpd.LdpdRegime(variant, horizon=iters) \
            if variant == ldpd.WEAKLY_CONVEX else ldpd.LdpdRegime(variant)
        x1 = np.zeros(inst.problem.primal_dim)
        y1 = np.zeros(inst.problem.dual_dim)
        paper = explicit_anchor_ldpd(inst.problem, regime, x1, y1, iters)
        seen = []
        ldpd.run_ldpd(inst.problem, regime, x1, y1, iters,
                      observer=lambda s: seen.append((s.state.x.copy(),
                                                      s.state.y.copy(),
                                                      s.x.copy(), s.y.copy())))
        xs = [x for x, _, _, _ in paper]
        ys = [y for _, _, y, _ in paper]
        for k in range(1, iters + 1):
            weights = np.arange(1, k + 1, dtype=float)
            ref_x, ref_xbar, ref_y, _ = paper[k - 1]
            x, y, agg_x, agg_y = seen[k - 1]
            for got, ref in ((ref_xbar, aggregate_closed_form(xs[:k], weights)),
                             (x, ref_x), (y, ref_y), (agg_x, ref_xbar),
                             (agg_y, aggregate_closed_form(ys[:k], weights))):
                err = np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))
                worst = max(worst, float(err))
    ok = worst <= 1e-10
    _report(6, ok, f"max relative blend error {worst:.2e} "
                   f"across both blended schedules, {iters} iterations")


def test_criterion_07_operator_and_prox_contracts():
    rng = np.random.default_rng(1234)

    # adjoint identity on 100 seeded pairs per operator
    D = make_difference_operator(12, 9)
    K = make_convolution_operator(make_motion_kernel(7.0, 135.0), 12, 9)
    S = make_stacked_operator([(1.0, D), (4.0, K)])
    M = MatrixOperator(rng.standard_normal((10, 14)))
    worst_adj = 0.0
    for op in (D, K, S, M):
        n_in, n_out = op.dims
        for _ in range(100):
            u = rng.standard_normal(n_in)
            v = rng.standard_normal(n_out)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.adjoint(v))
            err = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            worst_adj = max(worst_adj, err)
    adj_ok = worst_adj <= 1e-10

    # prox outputs must beat 100 competitors on the prox objective;
    # competitors are drawn as prox outputs themselves so they are
    # always feasible for the indicator parts
    gauss = build_gaussian_problem(GaussianDeblurSpec(
        observed=make_phantom(16, 16), kernel=make_motion_kernel(5.0, 45.0),
        mu=3000.0, mu_g=0.01))
    sp = build_saltpepper_problem(SaltPepperDeblurSpec(
        observed=make_phantom(16, 16), kernel=make_average_kernel(5),
        alpha=4.0, mu_g0=0.03))
    cases = (
        (gauss.f.value, gauss.f.prox, gauss.primal_dim),
        (gauss.g.value, lambda z, s: gauss.g.prox(z, s, gauss.g.mu_g),
         gauss.dual_dim),
        (sp.f.value, sp.f.prox, sp.primal_dim),
        (sp.g.value, lambda z, s: sp.g.prox(z, s, sp.g.mu_g), sp.dual_dim),
    )
    worst_prox = 0.0
    for value, prox, dim in cases:
        z = rng.standard_normal(dim)
        step = 0.7
        p = prox(z, step)

        def objective(w):
            return value(w) + float((w - z) @ (w - z)) / (2.0 * step)

        base = objective(p)
        for _ in range(100):
            u = prox(z + rng.standard_normal(dim),
                     float(rng.uniform(0.05, 5.0)))
            margin = (base - objective(u)) / max(1.0, abs(objective(u)))
            worst_prox = max(worst_prox, float(margin))
    prox_ok = worst_prox <= 1e-9

    # the difference operator's certified norm against a dense SVD
    D8 = make_difference_operator(8, 8)
    dense = np.column_stack([D8.apply(e) for e in np.eye(64)])
    svd_norm = float(np.linalg.norm(dense, 2))
    norm_ok = abs(D8.norm_bound - svd_norm) <= 1e-12 * svd_norm

    # finite differences against the analytic data-term gradient
    small = build_gaussian_problem(GaussianDeblurSpec(
        observed=make_phantom(8, 8), kernel=make_motion_kernel(5.0, 135.0),
        mu=3000.0, mu_g=0.01))
    x = rng.uniform(0.0, 1.0, small.primal_dim)
    grad = small.f.grad(x)
    h = 1e-5
    fd = np.empty_like(grad)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (small.f.value(x + e) - small.f.value(x - e)) / (2.0 * h)
    fd_rel = float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)))
    fd_ok = fd_rel <= 1e-6

    ok = adj_ok and prox_ok and norm_ok and fd_ok
    _report(7, ok, f"adjoint error<={worst_adj:.1e}; "
                   f"prox margin<={worst_prox:.1e}; "
                   f"|norm_bound-svd|={abs(D8.norm_bound - svd_norm):.1e}; "
                   f"grad fd rel={fd_rel:.1e}")


def test_criterion_08_motion_deblur_ordering():
    start = time.perf_counter()
    clean = make_phantom(64, 64)
    kernel = make_motion_kernel(7.0, 135.0)
    K = make_convolution_operator(kernel, 64, 64)
    observed = add_gaussian_noise(ImageGrid(64, 64, K.apply(clean.data)),
                                  3e-3, seed=0)
    problem = build_gaussian_problem(GaussianDeblurSpec(
        observed=observed, kernel=kernel, mu=3000.0, mu_g=0.01))
    iters = 200
    snrs = {}
    for name, regime in (
        ("strongly-convex-dual", ldpd.LdpdRegime(ldpd.STRONGLY_CONVEX_DUAL)),
        ("weakly-convex", ldpd.LdpdRegime(ldpd.WEAKLY_CONVEX, horizon=iters)),
        ("single-step", ldpd.LdpdRegime(ldpd.SINGLE_STEP, tau=3.0 / 0.01)),
    ):
        result = ldpd.run_ldpd(problem, regime,
                               np.zeros(problem.primal_dim),
                               np.zeros(problem.dual_dim), iters)
        snrs[name] = snr_db(result.x, clean.data)
    wall = time.perf_counter() - start
    ok = (snrs["strongly-convex-dual"] >= snrs["weakly-convex"]
          >= snrs["single-step"]
          and snrs["strongly-convex-dual"] - snrs["single-step"] >= 1.0
          and wall < 30.0)
    _report(8, ok, f"snr_db scd={snrs['strongly-convex-dual']:.3f} >= "
                   f"wc={snrs['weakly-convex']:.3f} >= "
                   f"ss={snrs['single-step']:.3f}, "
                   f"margin={snrs['strongly-convex-dual'] - snrs['single-step']:.2f} dB; "
                   f"wall={wall:.1f}s")


def test_criterion_09_continuation_reaches_plateau_sooner():
    start = time.perf_counter()
    clean = make_phantom(64, 64)
    kernel = make_average_kernel(5)
    K = make_convolution_operator(kernel, 64, 64)
    observed = add_salt_pepper(ImageGrid(64, 64, K.apply(clean.data)),
                               0.2, seed=0)
    iters = 150

    def run(mu_g0, halve_every):
        spec = SaltPepperDeblurSpec(observed=observed, kernel=kernel,
                                    alpha=4.0, mu_g0=mu_g0,
                                    halve_every=halve_every)
        problem = build_saltpepper_problem(spec)
        mu_g = None
        if mu_g0 > 0.0:
            regime = edpd.EdpdRegime(edpd.STRONGLY_CONVEX_DUAL)

            def mu_g(t):
                return continuation_mu_g(t, mu_g0, halve_every)

        else:
            regime = edpd.EdpdRegime(edpd.WEAKLY_CONVEX,
                                     tau=1.0 / problem.A.norm_bound)
        recorder = HistoryRecorder(x_true=clean)
        edpd.run_edpd(problem, regime, np.zeros(problem.primal_dim),
                      np.zeros(problem.dual_dim), iters, recorder,
                      mu_g=mu_g)
        series = recorder.series("snr_db")
        final = series[-1][1]
        k_hit = next(t for t, s in series if s >= final - 0.5)
        return final, k_hit

    final_c, k_c = run(0.03, 10)
    final_p, k_p = run(0.0, 0)
    wall = time.perf_counter() - start
    ok = k_c < k_p and wall < 30.0
    _report(9, ok, f"continuation reaches final-0.5dB at k={k_c} "
                   f"(final {final_c:.2f} dB), fixed mu_g=0 at k={k_p} "
                   f"(final {final_p:.2f} dB); wall={wall:.1f}s")


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    def run(out_dir):
        cmd = [sys.executable, "-m", "dpdsolve.cli", "deblur-gauss",
               "--size", "32", "--iters", "25", "--kernel", "7,135",
               "--seed", "3", "--out-dir", str(out_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    a = tmp_path / "first"
    b = tmp_path / "second"
    a.mkdir()
    b.mkdir()
    run(a)
    run(b)
    same = {name: (a / name).read_bytes() == (b / name).read_bytes()
            for name in ("history.csv", "recovered.dpdf", "degraded.dpdf")}
    ok = all(same.values())
    _report(10, ok, "byte-identical reruns: "
            + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in same.items()))
