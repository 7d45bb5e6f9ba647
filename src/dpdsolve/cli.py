"""Experiment command line.

Four subcommands: `deblur-gauss` and `deblur-sp` run the two imaging
models and write the recovered image (PGM plus exact float sidecar) and
a per-iteration history CSV; `synth-bench` checks every published gap
guarantee on seeded dense instances; `rates` fits log-log slopes to the
measured gap histories and compares them against the expected decay.

Exit codes: 0 success, 2 bad configuration, 3 file I/O failure,
4 divergence or numerical failure, 5 a guarantee or rate check failed,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import edpd, ldpd
from .bench import make_ball_capped_saddle, make_quadratic_saddle
from .diagnostics import (
    BOUND_SLACK,
    REGIMES,
    GapReference,
    HistoryRecorder,
    fit_loglog_slope,
    read_history_csv,
    regime_bound,
    regime_tag,
    write_history_csv,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
    NumericalFailureError,
)
from .imaging import (
    GaussianDeblurSpec,
    SaltPepperDeblurSpec,
    add_gaussian_noise,
    add_salt_pepper,
    build_gaussian_problem,
    build_saltpepper_problem,
    continuation_mu_g,
    make_phantom,
    read_dpdf,
    read_pgm,
    write_dpdf,
    write_pgm,
)
from .linops import ImageGrid, make_average_kernel, make_convolution_operator, make_motion_kernel
from .model import SolverConsts
from .solver import dual_base_step

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VIOLATION = 5
EXIT_INTERRUPTED = 130

CONTINUATION_LABEL = "heuristic continuation"


def _read_image(path) -> ImageGrid:
    if str(path).endswith(".dpdf"):
        return read_dpdf(path)
    return read_pgm(path)


def _parse_motion(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(
            f"expected LENGTH,THETA for the motion kernel, got {text!r}"
        )
    try:
        length, theta = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigurationError(f"bad motion kernel spec {text!r}") from exc
    if not (math.isfinite(length) and math.isfinite(theta)):
        raise ConfigurationError(f"motion kernel spec {text!r} must be finite")
    return length, theta


def _check_kernel_fits(rows: float, cols: float, grid: ImageGrid, what: str) -> None:
    """Refuse a blur kernel at least `rows` high and `cols` wide that
    cannot fit the grid, before anything kernel-sized is allocated."""
    # The slack keeps a segment that ends a hair past a pixel edge, whose
    # kernel drops that sliver, from being refused.
    if rows > grid.m + 1e-9 or cols > grid.n + 1e-9:
        raise ConfigurationError(
            f"{what} spans {rows:.1f}x{cols:.1f} pixels and does not fit "
            f"the {grid.m}x{grid.n} grid"
        )


def _require_finite(image: ImageGrid, what: str) -> ImageGrid:
    if not np.all(np.isfinite(image.data)):
        raise ConfigurationError(f"{what} has non-finite pixels")
    return image


def _load_scene(args):
    """The clean image (None when only a degraded one is given) and the
    --degraded-input image (None when the run degrades the clean one)."""
    clean = None
    if args.input:
        clean = _require_finite(_read_image(args.input), args.input)
    if args.degraded_input:
        return clean, _require_finite(_read_image(args.degraded_input),
                                      args.degraded_input)
    if clean is None:
        clean = make_phantom(args.size, args.size)
    return clean, None


def _degrade(clean: ImageGrid, kernel, noise) -> ImageGrid:
    """`noise(blurred)`, where blurred is `clean` convolved with `kernel`,
    refused when the blur or the noise overflows. The blur operator and
    the blurred image are freed on return, so they do not outlive the
    degradation."""
    K = make_convolution_operator(kernel, clean.m, clean.n)
    with np.errstate(over="ignore", invalid="ignore"):
        observed = noise(ImageGrid(clean.m, clean.n, K.apply(clean.data)))
    return _require_finite(observed, "the degraded image")


def _run(problem, regime, iters, observer, mu_g=None):
    """Run `regime`'s solver family on `problem` for `iters` iterations
    from zeros, under the continuation `mu_g` when one is given (edpd
    only). The solver is looked up on its module when called, so a
    wrapper set there sees the run."""
    x1, y1 = np.zeros(problem.primal_dim), np.zeros(problem.dual_dim)
    if isinstance(regime, ldpd.LdpdRegime):
        return ldpd.run_ldpd(problem, regime, x1, y1, iters, observer)
    return edpd.run_edpd(problem, regime, x1, y1, iters, observer, mu_g=mu_g)


def _deblur(args, build) -> int:
    """One deblurring run. `build(args, clean, observed)` returns the
    model's (observed, problem, regime, mu_g): the observed image, made
    from `clean` when `observed` is None; the problem; the regime `_run`
    runs; and its continuation schedule, or None. A continuation run is
    heuristic, and its history is labelled so."""
    clean, observed = _load_scene(args)
    degraded_here = observed is None
    observed, problem, regime, mu_g = build(args, clean, observed)
    label = None if mu_g is None else CONTINUATION_LABEL
    recorder = HistoryRecorder(x_true=clean, timing=args.timing)
    # Only the primal aggregate is kept, so the run's final state is freed
    # before the outputs are written.
    x = _run(problem, regime, args.iters, recorder, mu_g).x
    recovered = ImageGrid(observed.m, observed.n, x)
    os.makedirs(args.out_dir, exist_ok=True)
    write_pgm(os.path.join(args.out_dir, "recovered.pgm"), recovered)
    write_dpdf(os.path.join(args.out_dir, "recovered.dpdf"), recovered)
    write_history_csv(os.path.join(args.out_dir, "history.csv"), recorder.records,
                      label=label)
    if degraded_here:
        write_pgm(os.path.join(args.out_dir, "degraded.pgm"), observed)
        write_dpdf(os.path.join(args.out_dir, "degraded.dpdf"), observed)
    if label:
        print(f"mode: {label} (guarantee column left empty)")
    if clean is not None:
        # the last record's SNR is that of x, bit for bit (HistoryRecorder)
        print(f"final snr_db: {recorder.records[-1].snr_db:.4f}")
    print(f"wrote recovered image and history to {args.out_dir}")
    return EXIT_OK


def _gaussian_model(args, clean, observed):
    """deblur-gauss: motion blur and Gaussian noise, a quadratic fit, and
    the --solver family in the --regime schedule."""
    length, theta = _parse_motion(args.kernel)
    # The trimmed kernel spans at least the segment's extent along each axis.
    rad = math.radians(theta)
    _check_kernel_fits(abs(length * math.sin(rad)), abs(length * math.cos(rad)),
                       clean if observed is None else observed,
                       f"a motion kernel of length {length:g} at {theta:g} degrees")
    kernel = make_motion_kernel(length, theta)
    if observed is None:
        observed = _degrade(clean, kernel, lambda blurred: add_gaussian_noise(
            blurred, args.sigma, args.seed))
    problem = build_gaussian_problem(
        GaussianDeblurSpec(observed=observed, kernel=kernel,
                           mu=args.mu, mu_g=args.mu_g))
    tau = args.tau
    if args.solver == "edpd":
        regime = edpd.EdpdRegime(
            args.regime, tau=1.0 / problem.A.norm_bound if tau is None else tau)
        return observed, problem, regime, None
    if args.regime == ldpd.SINGLE_STEP and tau is None:
        if not args.mu_g > 0.0:
            raise ConfigurationError("single-step needs --tau when mu_g is zero")
        tau = dual_base_step(ldpd.SCD_STEP_SCALE, args.mu_g)
    # each regime reads only its own fields: horizon (weakly convex), tau
    # (single step)
    regime = ldpd.LdpdRegime(args.regime, horizon=args.iters, tau=tau or 0.0)
    return observed, problem, regime, None


def _saltpepper_model(args, clean, observed):
    """deblur-sp: box blur and salt-and-pepper noise, an L1 fit, and edpd,
    under the smoothing continuation when --mu-g0 and --halve-every are
    positive."""
    if args.halve_every < 0:
        raise ConfigurationError(f"--halve-every must be nonnegative, got {args.halve_every}")
    _check_kernel_fits(args.kernel, args.kernel,
                       clean if observed is None else observed,
                       f"a {args.kernel}x{args.kernel} averaging kernel")
    kernel = make_average_kernel(args.kernel)
    if observed is None:
        observed = _degrade(clean, kernel, lambda blurred: add_salt_pepper(
            blurred, args.fraction, args.seed))
    spec = SaltPepperDeblurSpec(observed=observed, kernel=kernel,
                                alpha=args.alpha, mu_g0=args.mu_g0)
    problem = build_saltpepper_problem(spec)
    mu_g = None
    if spec.mu_g0 > 0.0:
        regime = edpd.EdpdRegime(edpd.STRONGLY_CONVEX_DUAL)
        if args.halve_every > 0:
            mu_g = functools.partial(continuation_mu_g, mu_g0=spec.mu_g0,
                                     halve_every=args.halve_every)
    else:
        tau = args.tau if args.tau is not None else 1.0 / problem.A.norm_bound
        regime = edpd.EdpdRegime(edpd.WEAKLY_CONVEX, tau=tau)
    return observed, problem, regime, mu_g


def _bench_instances(args):
    try:
        n_primal, n_dual = (int(v) for v in args.dims.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad --dims {args.dims!r}, expected N,M") from exc
    wide_rows = max(2, (3 * n_primal) // 5)
    # The weak instance comes first: its builder refuses degenerate dims
    # before any instance is assembled.
    weak = make_quadratic_saddle(n_primal, n_dual, seed=args.seed,
                                 mu_g=0.5, lam=0.0, c_rows=wide_rows)
    strong = make_quadratic_saddle(n_primal, n_dual, seed=args.seed,
                                   mu_g=0.5, lam=1.0)
    # Constant-step runs are measured on an instance whose dual solution
    # sits on a binding ball, where the averaged gap genuinely decays
    # like 1/k instead of collapsing quadratically.
    capped = make_ball_capped_saddle(n_primal, n_dual, seed=args.seed,
                                     mu_g=0.05, lam=0.0, c_rows=wide_rows)
    return strong, weak, capped


def _bench_runs(strong, weak, capped, iters):
    """The seven regime runs as (instance, regime) pairs."""
    tau_w = 1.0 / capped.problem.A.norm_bound
    return [
        (weak, ldpd.LdpdRegime(ldpd.WEAKLY_CONVEX, horizon=iters)),
        (weak, ldpd.LdpdRegime(ldpd.STRONGLY_CONVEX_DUAL)),
        (strong, ldpd.LdpdRegime(ldpd.STRONGLY_CONVEX_PRIMAL)),
        (weak, ldpd.LdpdRegime(ldpd.SINGLE_STEP, tau=tau_w)),
        (strong, edpd.EdpdRegime(edpd.STRONGLY_CONVEX_PRIMAL)),
        (weak, edpd.EdpdRegime(edpd.STRONGLY_CONVEX_DUAL)),
        (capped, edpd.EdpdRegime(edpd.WEAKLY_CONVEX, tau=tau_w)),
    ]


def _run_bench_case(instance, regime, iters):
    problem = instance.problem
    consts = SolverConsts.from_problem(problem)
    dx2, dy2 = instance.initial_distances()
    recorder = HistoryRecorder(
        problem=problem,
        ref=GapReference(instance.x_star, instance.y_star),
        bound_fn=lambda k: regime_bound(regime, k, consts, dx2, dy2),
        y_star=instance.y_star,
    )
    _run(problem, regime, iters, recorder)
    return recorder


def cmd_synth_bench(args) -> int:
    """Run every regime on certified dense instances and check the bounds."""
    strong, weak, capped = _bench_instances(args)
    os.makedirs(args.out_dir, exist_ok=True)
    violations = []
    print(f"{'regime':32s} {'final gap':>13s} {'final bound':>13s} {'slope':>8s}")
    for inst, regime in _bench_runs(strong, weak, capped, args.iters):
        tag = regime_tag(regime)
        recorder = _run_bench_case(inst, regime, args.iters)
        write_history_csv(os.path.join(args.out_dir, f"{tag}.csv"),
                          recorder.records)
        for rec in recorder.records:
            if rec.bound is not None and rec.gap > rec.bound + BOUND_SLACK:
                violations.append((tag, rec.t))
        gaps = recorder.series("gap")
        slope = fit_loglog_slope(gaps, k_min=max(10, args.iters // 10)) \
            if len(gaps) >= 20 else float("nan")
        final = recorder.records[-1]
        bound_txt = f"{final.bound:13.5e}" if final.bound is not None else " " * 13
        print(f"{tag:32s} {final.gap:13.5e} {bound_txt} {slope:8.3f}")
    if violations:
        for tag, t in violations[:10]:
            print(f"guarantee violated: {tag} at k={t}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"all guarantees hold; histories in {args.out_dir}")
    return EXIT_OK


RATE_WINDOWS = {tag: rule.rate for tag, rule in REGIMES.items() if rule.rate}


def cmd_rates(args) -> int:
    """Fit gap decay slopes and compare them with the expected windows."""
    series = {}
    if args.from_dir:
        for tag in RATE_WINDOWS:
            path = os.path.join(args.from_dir, f"{tag}.csv")
            records = read_history_csv(path)
            series[tag] = [(r.t, r.gap) for r in records if r.gap is not None]
    else:
        strong, weak, capped = _bench_instances(args)
        for inst, regime in _bench_runs(strong, weak, capped, args.iters):
            tag = regime_tag(regime)
            if tag in RATE_WINDOWS:
                recorder = _run_bench_case(inst, regime, args.iters)
                series[tag] = recorder.series("gap")
    failed = []
    for tag, (lo, hi) in RATE_WINDOWS.items():
        slope = fit_loglog_slope(series[tag], k_min=args.k_min)
        ok = (lo is None or slope >= lo) and slope <= hi
        window = f"[{lo}, {hi}]" if lo is not None else f"<= {hi}"
        print(f"{tag:32s} slope {slope:8.3f}  expected {window:16s} "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failed.append(tag)
    return EXIT_VIOLATION if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdsolve",
        description="Primal-dual saddle point solvers and deblurring experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_io(p):
        p.add_argument("--input", help="clean input image (PGM or DPDF)")
        p.add_argument("--degraded-input",
                       help="already degraded image; skips degradation")
        p.add_argument("--size", type=int, default=64,
                       help="phantom side length when no input is given")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--iters", type=int, required=False)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timing", action="store_true",
                       help="record wall-clock per iteration "
                            "(makes the CSV nondeterministic)")

    pg = sub.add_parser("deblur-gauss",
                        help="quadratic-fit deblurring (Gaussian noise)")
    add_common_io(pg)
    pg.set_defaults(iters=200)
    pg.add_argument("--mu", type=float, default=3000.0)
    pg.add_argument("--mu-g", type=float, default=0.01)
    pg.add_argument("--kernel", default="30,135",
                    help="motion kernel as LENGTH,THETA")
    pg.add_argument("--sigma", type=float, default=3e-3)
    pg.add_argument("--solver", choices=["ldpd", "edpd"], default="ldpd")
    # Both imaging builders set mu_f = 0 (the blur need not be injective),
    # so the strongly convex primal schedules cannot run on them.
    pg.add_argument("--regime", default="strongly-convex-dual",
                    choices=[v for v in ldpd.REGIMES
                             if v != ldpd.STRONGLY_CONVEX_PRIMAL])
    pg.add_argument("--tau", type=float, default=None,
                    help="free dual step for single-step / weakly convex "
                         "proximal regimes")
    pg.set_defaults(func=functools.partial(_deblur, build=_gaussian_model))

    ps = sub.add_parser("deblur-sp",
                        help="L1-fit deblurring (salt-and-pepper noise)")
    add_common_io(ps)
    ps.set_defaults(iters=150)
    ps.add_argument("--alpha", type=float, default=4.0)
    ps.add_argument("--mu-g0", type=float, default=0.03)
    ps.add_argument("--halve-every", type=int, default=10)
    ps.add_argument("--kernel", type=int, default=5,
                    help="odd size of the averaging blur kernel")
    ps.add_argument("--fraction", type=float, default=0.2)
    ps.add_argument("--tau", type=float, default=None,
                    help="dual step when mu_g0 is zero")
    ps.set_defaults(func=functools.partial(_deblur, build=_saltpepper_model))

    pb = sub.add_parser("synth-bench",
                        help="check every gap guarantee on dense instances")
    pb.add_argument("--dims", default="20,15", help="primal,dual dimensions")
    pb.add_argument("--seed", type=int, default=42)
    pb.add_argument("--iters", type=int, default=500)
    pb.add_argument("--out-dir", default="synth-bench-out")
    pb.set_defaults(func=cmd_synth_bench)

    pr = sub.add_parser("rates", help="fit and check gap decay slopes")
    pr.add_argument("--from-dir",
                    help="read synth-bench CSVs instead of running inline")
    pr.add_argument("--dims", default="20,15")
    pr.add_argument("--seed", type=int, default=42)
    pr.add_argument("--iters", type=int, default=500)
    pr.add_argument("--k-min", type=int, default=50)
    pr.set_defaults(func=cmd_rates)

    return parser


def _check_args(args) -> None:
    """Refuse a non-finite float option or a negative --seed, which numpy's
    generators reject, before anything is built."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ConfigurationError(f"{flag} must be finite, got {value!r}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (ConfigurationError, ContractViolationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DivergenceError, NumericalFailureError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
