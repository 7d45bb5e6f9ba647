import argparse
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

import dpdsolve.cli as cli
from dpdsolve import bench, edpd, ldpd
from dpdsolve.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    _check_kernel_fits,
    main,
)
from dpdsolve.diagnostics import (
    BOUND_SLACK,
    HistoryRecord,
    read_history_csv,
    write_history_csv,
)
from dpdsolve.imaging import make_phantom, read_dpdf, write_dpdf, write_pgm
from dpdsolve.linops import ImageGrid, make_motion_kernel
from dpdsolve.solver import dual_base_step


def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_deblur_gauss_tiny_run_writes_everything(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["deblur-gauss", "--size", "16", "--iters", "3",
                 "--kernel", "3,0", "--out-dir", str(out)])
    assert code == EXIT_OK
    for name in ("recovered.pgm", "recovered.dpdf", "history.csv",
                 "degraded.pgm", "degraded.dpdf"):
        assert (out / name).exists()
    records = read_history_csv(out / "history.csv")
    assert [r.t for r in records] == [1, 2, 3]
    for rec in records:
        assert rec.snr_db is not None
        assert rec.gap is None and rec.bound is None
        assert rec.theta is not None and rec.eta is not None
        assert rec.wall_ms is None
    printed = capsys.readouterr().out
    assert "final snr_db" in printed
    img = read_dpdf(out / "recovered.dpdf")
    assert img.m == 16 and img.n == 16


def test_deblur_gauss_timing_flag_fills_wall_ms(tmp_path):
    out = tmp_path / "run"
    code = main(["deblur-gauss", "--size", "16", "--iters", "2",
                 "--kernel", "3,0", "--out-dir", str(out), "--timing"])
    assert code == EXIT_OK
    records = read_history_csv(out / "history.csv")
    assert all(r.wall_ms is not None for r in records)


def test_deblur_gauss_repeated_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["deblur-gauss", "--size", "16", "--iters", "3",
                     "--kernel", "3,0", "--out-dir", str(out)]) == EXIT_OK
        outs.append(out)
    a, b = outs
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "recovered.dpdf").read_bytes() == (b / "recovered.dpdf").read_bytes()
    assert (a / "degraded.dpdf").read_bytes() == (b / "degraded.dpdf").read_bytes()


def test_deblur_gauss_accepts_an_existing_degraded_image(tmp_path):
    degraded = make_phantom(16, 16)
    path = tmp_path / "degraded.dpdf"
    write_dpdf(path, degraded)
    out = tmp_path / "run"
    code = main(["deblur-gauss", "--degraded-input", str(path),
                 "--iters", "2", "--kernel", "3,0", "--out-dir", str(out)])
    assert code == EXIT_OK
    # nothing was degraded here, so no degraded copies are re-written
    assert not (out / "degraded.pgm").exists()
    records = read_history_csv(out / "history.csv")
    # without a clean reference there is no SNR column to fill
    assert all(r.snr_db is None for r in records)


def test_deblur_gauss_with_clean_input_pgm(tmp_path):
    clean = make_phantom(16, 16)
    path = tmp_path / "clean.pgm"
    write_pgm(path, clean)
    out = tmp_path / "run"
    code = main(["deblur-gauss", "--input", str(path), "--iters", "2",
                 "--kernel", "3,0", "--out-dir", str(out)])
    assert code == EXIT_OK
    records = read_history_csv(out / "history.csv")
    assert all(r.snr_db is not None for r in records)


def test_deblur_gauss_rejects_regimes_the_model_cannot_satisfy(tmp_path, capsys):
    # the quadratic data term has no strong convexity, so the strongly
    # convex primal schedules are not offered: argparse refuses them
    three = "{weakly-convex,strongly-convex-dual,single-step}"
    for solver in ("ldpd", "edpd"):
        with pytest.raises(SystemExit) as exc:
            main(["deblur-gauss", "--solver", solver,
                  "--regime", "strongly-convex-primal",
                  "--out-dir", str(tmp_path / solver)])
        assert exc.value.code == EXIT_CONFIG
        assert three in capsys.readouterr().err
        assert not (tmp_path / solver).exists()
    with pytest.raises(SystemExit) as exc:
        main(["deblur-gauss", "--help"])
    assert exc.value.code == EXIT_OK
    assert three in capsys.readouterr().out
    # single-step is an ldpd schedule only
    code = main(["deblur-gauss", "--size", "16", "--iters", "2",
                 "--kernel", "3,0", "--solver", "edpd",
                 "--regime", "single-step",
                 "--out-dir", str(tmp_path / "z")])
    assert code == EXIT_CONFIG


def test_deblur_gauss_bad_kernel_spec_is_a_config_error(tmp_path):
    code = main(["deblur-gauss", "--size", "16", "--iters", "2",
                 "--kernel", "3", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_deblur_gauss_missing_input_is_an_io_error(tmp_path):
    code = main(["deblur-gauss", "--input", str(tmp_path / "nope.pgm"),
                 "--iters", "2", "--kernel", "3,0",
                 "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_IO


def test_deblur_sp_continuation_labels_the_history(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["deblur-sp", "--size", "16", "--iters", "4",
                 "--kernel", "3", "--mu-g0", "0.03", "--halve-every", "2",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    first = (out / "history.csv").read_text().splitlines()[0]
    assert first == "# heuristic continuation"
    assert "heuristic continuation" in capsys.readouterr().out
    records = read_history_csv(out / "history.csv")
    assert all(r.bound is None for r in records)
    # the dual step tracks the halved smoothing weight: tau jumps up
    # when mu_g halves at t = 3
    assert records[2].tau > records[1].tau


def test_deblur_sp_refuses_a_negative_halve_every_before_the_build(tmp_path,
                                                                  monkeypatch):
    def build(spec):
        raise AssertionError("the problem was built")

    monkeypatch.setattr(cli, "build_saltpepper_problem", build)
    code = main(["deblur-sp", "--size", "16", "--kernel", "3",
                 "--halve-every", "-1", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_deblur_sp_fixed_smoothing_has_no_label(tmp_path):
    out = tmp_path / "run"
    code = main(["deblur-sp", "--size", "16", "--iters", "3",
                 "--kernel", "3", "--mu-g0", "0.03", "--halve-every", "0",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    first = (out / "history.csv").read_text().splitlines()[0]
    assert first.startswith("t,")


def test_deblur_sp_zero_smoothing_runs_the_weakly_convex_regime(tmp_path):
    out = tmp_path / "run"
    code = main(["deblur-sp", "--size", "16", "--iters", "3",
                 "--kernel", "3", "--mu-g0", "0",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    records = read_history_csv(out / "history.csv")
    # constant steps: every iteration uses the same tau
    taus = {r.tau for r in records}
    assert len(taus) == 1
    assert all(r.alpha == 1.0 for r in records)


def test_deblur_sp_even_kernel_is_a_config_error(tmp_path):
    code = main(["deblur-sp", "--size", "16", "--iters", "2",
                 "--kernel", "4", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_synth_bench_small_run_writes_all_histories(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["synth-bench", "--dims", "10,8", "--iters", "40",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    tags = ["ldpd-weakly-convex", "ldpd-strongly-convex-dual",
            "ldpd-strongly-convex-primal", "ldpd-single-step",
            "edpd-strongly-convex-primal", "edpd-strongly-convex-dual",
            "edpd-weakly-convex"]
    for tag in tags:
        records = read_history_csv(out / f"{tag}.csv")
        assert len(records) == 40
        assert all(r.gap is not None for r in records)
    printed = capsys.readouterr().out
    assert "all guarantees hold" in printed
    # the horizon-tuned guarantee exists only at the final iteration
    wc = read_history_csv(out / "ldpd-weakly-convex.csv")
    assert all(r.bound is None for r in wc[:-1])
    assert wc[-1].bound is not None


def test_synth_bench_bad_dims_is_a_config_error(tmp_path):
    code = main(["synth-bench", "--dims", "banana", "--iters", "10",
                 "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["synth-bench", "rates"])
@pytest.mark.parametrize("dims", ["5,1", "13,5"])
def test_degenerate_bench_dims_are_refused_before_any_instance(tmp_path, monkeypatch,
                                                                capsys, command, dims):
    # 3 + 1 <= 5 and 7 + 5 <= 13 constraint-plus-dual rows: 5,1 used to end
    # in a LinAlgError traceback with rc=1
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was assembled")

    monkeypatch.setattr(bench, "_problem_from_data", refuse)
    argv = [command, "--dims", dims, "--iters", "10"]
    if command == "synth-bench":
        argv += ["--out-dir", str(tmp_path / "x")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    n_primal, n_dual = dims.split(",")
    rows = {"5,1": 3, "13,5": 7}[dims]
    assert (f"the {rows} rows of C plus n_dual {n_dual} must exceed "
            f"n_primal {n_primal}") in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("dims", ["400,300", "20,15"])
def test_default_and_benchmark_dims_pass_the_degeneracy_check(monkeypatch, dims):
    # the check is the builders' shared prologue, which runs before any
    # instance is assembled
    assembled = []
    monkeypatch.setattr(bench, "_problem_from_data",
                        lambda *a, **k: assembled.append(a[5]))
    cli._bench_instances(argparse.Namespace(dims=dims, seed=42))
    assert assembled == [0.0, 1.0, 0.0]


def test_rates_from_dir_passes_on_conforming_series(tmp_path):
    ks = range(1, 201)
    by_tag = {
        "ldpd-strongly-convex-dual": [(k, 1.0 / k**2) for k in ks],
        "edpd-strongly-convex-dual": [(k, 3.0 / k**2) for k in ks],
        "edpd-weakly-convex": [(k, 1.0 / k) for k in ks],
    }
    for tag, series in by_tag.items():
        records = [HistoryRecord(t=k, gap=g) for k, g in series]
        write_history_csv(tmp_path / f"{tag}.csv", records)
    assert main(["rates", "--from-dir", str(tmp_path)]) == EXIT_OK


def test_rates_from_dir_fails_on_flat_series(tmp_path, capsys):
    ks = range(1, 201)
    for tag in ("ldpd-strongly-convex-dual", "edpd-strongly-convex-dual"):
        records = [HistoryRecord(t=k, gap=1.0 / k**2) for k in ks]
        write_history_csv(tmp_path / f"{tag}.csv", records)
    flat = [HistoryRecord(t=k, gap=0.5) for k in ks]
    write_history_csv(tmp_path / "edpd-weakly-convex.csv", flat)
    assert main(["rates", "--from-dir", str(tmp_path)]) == EXIT_VIOLATION
    assert "FAIL" in capsys.readouterr().out


def test_rates_from_dir_missing_file_is_an_io_error(tmp_path):
    assert main(["rates", "--from-dir", str(tmp_path)]) == EXIT_IO


def test_recovered_images_round_trip_through_both_formats(tmp_path):
    out = tmp_path / "run"
    assert main(["deblur-gauss", "--size", "16", "--iters", "3",
                 "--kernel", "3,0", "--out-dir", str(out)]) == EXIT_OK
    exact = read_dpdf(out / "recovered.dpdf")
    assert exact.m == 16 and exact.n == 16
    assert np.all(np.isfinite(exact.data))


@pytest.mark.parametrize("argv", [
    ["deblur-gauss", "--size", "32", "--kernel", "7,135", "--mu", "inf"],
    ["deblur-gauss", "--size", "32", "--kernel", "7,135", "--mu-g", "inf"],
    ["deblur-gauss", "--size", "32", "--kernel", "7,135", "--sigma", "nan"],
    ["deblur-gauss", "--size", "32", "--kernel", "nan,135"],
    ["deblur-sp", "--size", "32", "--mu-g0", "nan"],
], ids=["mu-inf", "mu-g-inf", "sigma-nan", "kernel-nan", "mu-g0-nan"])
def test_non_finite_float_flags_are_config_errors(tmp_path, argv, capsys):
    out = tmp_path / "x"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # continuation halves mu_g every step until eta underflows at 1020
    ["deblur-sp", "--size", "16", "--halve-every", "1", "--iters", "2000"],
    # the stacked operator norm is finite, its square in the schedule is not
    ["deblur-sp", "--size", "16", "--alpha", "1e300"],
], ids=["continuation-underflow", "alpha-1e300"])
def test_bad_schedules_fail_before_the_first_iteration(tmp_path, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["deblur-gauss", "--kernel", "1e9,0"],
    ["deblur-gauss", "--kernel", "1e9,45"],
    ["deblur-gauss", "--kernel", "3000,0", "--size", "64"],
    ["deblur-gauss", "--kernel", "17,90", "--size", "16"],
    ["deblur-sp", "--kernel", "1000000001"],
    ["deblur-sp", "--kernel", "65", "--size", "64"],
], ids=["motion-1e9", "motion-1e9-diagonal", "motion-3000", "motion-vertical",
        "average-1e9", "average-65"])
def test_oversized_kernels_are_refused_before_they_are_built(tmp_path, argv, capsys):
    out = tmp_path / "x"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "does not fit" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kernel", ["15,0", "15,90", "21,45"])
def test_motion_kernels_that_fit_after_trimming_are_accepted(tmp_path, kernel):
    # the untrimmed stencils (19x19 and 25x25) are larger than the grid
    out = tmp_path / "x"
    assert main(["deblur-gauss", "--size", "16", "--iters", "2",
                 "--kernel", kernel, "--out-dir", str(out)]) == EXIT_OK
    assert (out / "recovered.dpdf").exists()


def test_motion_fit_check_never_refuses_a_kernel_that_fits():
    # Every built kernel fits a grid of exactly its own size, so the check
    # that runs before the build must accept that grid.
    for length in np.arange(1.0, 25.0, 0.75):
        for theta in np.arange(0.0, 180.0, 7.5):
            h, w = make_motion_kernel(length, theta).weights.shape
            rad = math.radians(theta)
            _check_kernel_fits(abs(length * math.sin(rad)),
                               abs(length * math.cos(rad)),
                               ImageGrid(h, w, np.zeros(h * w)), "kernel")


@pytest.mark.parametrize("sigma", ["1e155", "1e200"])
def test_noise_whose_error_norm_overflows_reports_minus_infinite_snr(tmp_path, capsys,
                                                                    sigma):
    # the SNR's error norm overflows; this used to end in a math domain
    # error traceback with rc=1
    code = main(["deblur-gauss", "--size", "16", "--iters", "2", "--kernel", "3,0",
                 "--sigma", sigma, "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_OK
    assert "final snr_db: -inf" in capsys.readouterr().out


def test_noise_that_overflows_the_degraded_image_is_refused(tmp_path, capsys):
    code = main(["deblur-gauss", "--size", "16", "--iters", "2", "--kernel", "3,0",
                 "--sigma", "1e308", "--out-dir", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


NON_FINITE_CASES = [(bad, flag) for bad in (np.nan, np.inf, -np.inf)
                    for flag in ("--input", "--degraded-input")]
# a finite clean image whose blur overflows
NON_FINITE_CASES.append(("overflow", "--input"))


@pytest.mark.parametrize("command", ["deblur-gauss", "deblur-sp"])
@pytest.mark.parametrize("bad,flag", NON_FINITE_CASES,
                         ids=[f"{bad}-{flag}" for bad, flag in NON_FINITE_CASES])
def test_non_finite_image_inputs_are_refused_before_the_run(tmp_path, monkeypatch,
                                                           capsys, command, flag, bad):
    # one NaN pixel used to exit 4 after an iteration, one inf pixel exit
    # 0 in deblur-sp; an overflowing blur made deblur-sp exit 4 after the
    # run started, and both commands warn of the overflow
    def refuse(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "build_gaussian_problem", refuse)
    monkeypatch.setattr(cli, "build_saltpepper_problem", refuse)
    image = make_phantom(16, 16)
    if bad == "overflow":
        image = ImageGrid(16, 16, image.data * (1.7e308 / image.data.max()))
        assert np.all(np.isfinite(image.data))
    else:
        image.data[37] = bad
    path = tmp_path / "bad.dpdf"
    write_dpdf(path, image)
    argv = [command, flag, str(path), "--iters", "2", "--kernel",
            "3,0" if command == "deblur-gauss" else "3",
            "--out-dir", str(tmp_path / "x")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["deblur-gauss", "--size", "32", "--seed", "-1"],
    ["deblur-sp", "--seed", "-1"],
    ["synth-bench", "--seed", "-1"],
    ["rates", "--seed", "-5"],
], ids=["deblur-gauss", "deblur-sp", "synth-bench", "rates"])
def test_a_negative_seed_is_refused_before_anything_is_built(tmp_path, monkeypatch,
                                                            capsys, argv):
    # numpy's generators reject a negative seed; this used to end in a
    # ValueError traceback with rc=1
    def refuse(*args, **kwargs):
        raise AssertionError("something was built")

    for name in ("make_phantom", "make_quadratic_saddle", "make_ball_capped_saddle"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "x"
    if argv[0] != "rates":
        argv = argv + ["--out-dir", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: --seed") and "Traceback" not in err
    assert not out.exists()


def test_a_malformed_pgm_header_is_a_config_error(tmp_path, capsys):
    # int() on the header used to raise a bare ValueError, rc=1
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nab 4\n255\n" + bytes(16))
    out = tmp_path / "x"
    assert main(["deblur-gauss", "--input", str(path), "--iters", "2",
                 "--kernel", "3,0", "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: malformed PGM header") and str(path) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_malformed_history_cell_is_a_config_error(tmp_path, capsys):
    # int() on the t cell used to raise a bare ValueError, rc=1
    path = tmp_path / "ldpd-strongly-convex-dual.csv"
    write_history_csv(path, [HistoryRecord(t=1, gap=0.5)])
    lines = path.read_text().splitlines()
    lines[1] = "x" + lines[1][1:]
    path.write_text("\n".join(lines) + "\n")
    assert main(["rates", "--from-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: malformed history row") and str(path) in err
    assert repr(lines[1]) in err and "Traceback" not in err


def test_benchmark_sized_bench_keeps_every_gap_under_its_bound(tmp_path):
    # the dims and seed of the synth-dense-400 benchmark workload
    out = tmp_path / "bench"
    assert main(["synth-bench", "--dims", "400,300", "--seed", "0",
                 "--out-dir", str(out)]) == EXIT_OK
    checked = 0
    for path in sorted(out.glob("*.csv")):
        for rec in read_history_csv(path):
            if rec.bound is not None:
                assert rec.gap <= rec.bound + BOUND_SLACK, (path.name, rec.t)
                checked += 1
    # every iteration of six regimes, the final one of the horizon-tuned one
    assert checked == 6 * 500 + 1
    assert main(["rates", "--from-dir", str(out)]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["deblur-gauss", "--size", "10000000"],
    ["synth-bench", "--dims", "100000000,99999999"],
], ids=["phantom-728TiB", "bench-instance-71PiB"])
def test_problems_too_large_to_allocate_are_config_errors(tmp_path, capsys, argv):
    # Each asks numpy for more than the 128 TiB user address space, so the
    # allocation fails at once and nothing is allocated. Both used to end
    # in a MemoryError traceback with rc=1.
    out = tmp_path / "x"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_single_step_without_tau_takes_the_strongly_convex_dual_base_step(tmp_path,
                                                                         monkeypatch):
    regimes = []
    run = ldpd.run_ldpd

    def recorded(problem, regime, *args):
        regimes.append(regime)
        return run(problem, regime, *args)

    monkeypatch.setattr(ldpd, "run_ldpd", recorded)
    assert main(["deblur-gauss", "--size", "16", "--iters", "2", "--kernel", "3,0",
                 "--regime", "single-step", "--mu-g", "0.02",
                 "--out-dir", str(tmp_path / "x")]) == EXIT_OK
    assert [r.tau for r in regimes] == [dual_base_step(ldpd.SCD_STEP_SCALE, 0.02)]


def test_single_step_without_tau_refuses_a_zero_mu_g(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["deblur-gauss", "--size", "16", "--iters", "2", "--kernel", "3,0",
                 "--regime", "single-step", "--mu-g", "0",
                 "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: single-step needs --tau when mu_g is zero\n"
    assert not out.exists()


def test_synth_bench_reports_at_most_ten_violations_and_exits_5(tmp_path, monkeypatch,
                                                                  capsys):
    # a bound below every gap: each of the 7 x 20 records violates it
    monkeypatch.setattr(cli, "regime_bound", lambda *args: -1.0)
    assert main(["synth-bench", "--dims", "8,6", "--iters", "20",
                 "--out-dir", str(tmp_path / "x")]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("guarantee violated: ") for line in lines)
    assert "all guarantees hold" not in captured.out


def test_memory_running_out_during_a_run_is_a_config_error(tmp_path, monkeypatch,
                                                          capsys):
    run = ldpd.run_ldpd

    def starved(problem, regime, x1, y1, iters, observer=None):
        def observe_then_fail(snap):
            observer(snap)
            raise MemoryError("out of memory at iteration 1")

        return run(problem, regime, x1, y1, iters, observe_then_fail)

    monkeypatch.setattr(ldpd, "run_ldpd", starved)
    out = tmp_path / "x"
    assert main(["deblur-gauss", "--size", "16", "--iters", "2", "--kernel", "3,0",
                 "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: out of memory at iteration 1\n"
    assert not out.exists()


def test_an_interrupted_run_prints_one_line_and_exits_130(tmp_path, monkeypatch,
                                                          capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(ldpd, "run_ldpd", interrupted)
    out = tmp_path / "x"
    assert main(["deblur-gauss", "--size", "16", "--iters", "2", "--kernel", "3,0",
                 "--out-dir", str(out)]) == EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, family, run_name", [
    (["deblur-gauss", "--kernel", "3,0"], ldpd, "run_ldpd"),
    (["deblur-gauss", "--kernel", "3,0", "--solver", "edpd"], edpd, "run_edpd"),
    (["deblur-sp", "--kernel", "3", "--halve-every", "1"], edpd, "run_edpd"),
], ids=["gauss-ldpd", "gauss-edpd", "sp-continuation"])
def test_the_blur_operator_is_freed_before_the_run(tmp_path, monkeypatch, argv,
                                                   family, run_name):
    # The solver is reached through the module attribute, looked up at call
    # time, which is where perfbench hooks its run timers.
    made = []
    make = cli.make_convolution_operator

    def recording(*args, **kwargs):
        op = make(*args, **kwargs)
        made.append(weakref.ref(op))
        return op

    seen = []
    run = getattr(family, run_name)

    def wrapped(problem, regime, x1, y1, iters, observer=None, **kwargs):
        def first_call(snap):
            if snap.t == 1:
                seen.append(([ref() is None for ref in made], kwargs))
            observer(snap)

        return run(problem, regime, x1, y1, iters, first_call, **kwargs)

    monkeypatch.setattr(cli, "make_convolution_operator", recording)
    monkeypatch.setattr(family, run_name, wrapped)
    assert main(argv + ["--size", "16", "--iters", "2",
                        "--out-dir", str(tmp_path / "x")]) == EXIT_OK
    [(freed, kwargs)] = seen
    # one operator degraded the phantom, and it is gone by the first
    # observer call
    assert freed == [True]
    if argv[0] == "deblur-sp":
        assert callable(kwargs["mu_g"])


@pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default", "warnings-as-errors"])
def test_an_exact_prox_whose_weight_overflows_exits_4_cleanly(tmp_path, flags):
    # tau 1e-306 gives eta = 1.25e305, so mu * eta overflows; this used to
    # print numpy RuntimeWarnings, or end in a traceback under -W error
    out = tmp_path / "x"
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "dpdsolve.cli", "deblur-gauss", "--size", "32",
         "--iters", "5", "--solver", "edpd", "--regime", "weakly-convex",
         "--tau", "1e-306", "--out-dir", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_DIVERGED
    assert proc.stderr.startswith("numerical error: quadratic prox weight mu * step")
    assert proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
