"""One measured CLI run, executed in a fresh interpreter by run.py.

Usage: python3 perfbench/child.py SRC_DIR OUT_JSON MODE -- CLI_ARGS...

MODE is 0 (untraced), 1 (traced) or `setup` (stop when the first solver
run starts, so that only the set-up time is measured).

The clock starts before `import dpdsolve`, so the recorded set-up time
covers the import, the scene or instance build and the certification.
Two hooks are always installed: the solver entry points (`run_ldpd`,
`run_edpd`) record when each run starts and ends, and the observer they
receive records when it is called, which is the per-iteration interval
the CLI's `--timing` also uses. With MODE=1 the public callables of the
package are wrapped in spans as well (see `Tracer.install`); the spans
stay in memory and are written to OUT_JSON when the run ends. No file
under `src/` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

clock = time.perf_counter

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class Tracer:
    """In-memory span recorder.

    A span is `[name, start, end, parent]`, where `parent` is the index of
    the enclosing span or -1. Calls are single-threaded and properly
    nested, so a stack gives the parent. `counts` holds the counters that
    have no span: FFT calls and points, bytes written.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, size_of_path: bool = False):
        """Return `fn` wrapped in a span; with `size_of_path`, also count
        the size of the file named by the first argument after the call."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent]
            if size_of_path:
                self.add(name + ".bytes", os.path.getsize(args[0]))
            return result

        return traced

    def count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            self.add("fft.calls", 1)
            self.add("fft.points", int(getattr(a, "size", 0)))
            return fn(a, *args, **kwargs)

        return counted

    def install(self, dpdsolve_modules: dict, numpy_module) -> None:
        """Wrap the package's public callables and count numpy entry points.

        Module-level functions are replaced in every package module that
        holds a reference to them, because `from x import f` copies the
        reference. Oracle closures and the coupling operator's methods are
        wrapped per instance, as each SaddleProblem is constructed.
        """
        mods = dpdsolve_modules
        layers = {
            "prox": {
                "pair_norms": "prox.pair_norms",
                "project_ball2_pairs": "prox.ball2",
                "project_box": "prox.box",
                "prox_smoothed_tv_dual": "prox.smoothed_tv_dual",
                "prox_linear_plus_box": "prox.linear_plus_box",
                "prox_quadratic_primal": "prox.quadratic",
            },
            "ldpd": {
                "run_ldpd": "solver.run",
                "ldpd_step": "solver.step",
                "ldpd_schedule": "solver.schedule",
                "init_ldpd_state": "solver.init",
                "scp_shift": "solver.scp_shift",
                "aggregate_closed_form": "solver.aggregate",
            },
            "edpd": {
                "run_edpd": "solver.run",
                "edpd_step": "solver.step",
                "edpd_schedule": "solver.schedule",
                "init_edpd_state": "solver.init",
            },
            "diagnostics": {
                "primal_dual_gap": "diagnostics.gap",
                "theoretical_bound": "diagnostics.bound",
                "snr_db": "diagnostics.snr",
                "fit_loglog_slope": "diagnostics.fit",
                "dual_distance_rate_check": "diagnostics.rate_check",
                "write_history_csv": "diagnostics.csv",
                "read_history_csv": "diagnostics.csv_read",
            },
            "imaging": {
                "make_phantom": "imaging.scene",
                "add_gaussian_noise": "imaging.scene",
                "add_salt_pepper": "imaging.scene",
                "build_gaussian_problem": "imaging.build",
                "build_saltpepper_problem": "imaging.build",
                "continuation_mu_g": "imaging.continuation",
                "write_pgm": "imaging.io",
                "write_dpdf": "imaging.io",
                "read_pgm": "imaging.io",
                "read_dpdf": "imaging.io",
            },
            "bench": {
                "make_quadratic_saddle": "bench.instances",
                "make_ball_capped_saddle": "bench.instances",
            },
            "linops": {
                "make_motion_kernel": "linops.build",
                "make_average_kernel": "linops.build",
                "make_convolution_operator": "linops.build",
                "make_difference_operator": "linops.build",
                "make_stacked_operator": "linops.build",
            },
        }
        replaced = {}
        for mod_name, table in layers.items():
            mod = mods[mod_name]
            for attr, span in table.items():
                fn = getattr(mod, attr)
                sized = span in ("imaging.io", "diagnostics.csv")
                replaced[id(fn)] = self.wrap(span, fn, size_of_path=sized)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

        linops = mods["linops"]
        conv = linops.ConvolutionOperator2D
        conv.apply = self.wrap("linops.conv.apply", conv.apply)
        conv.adjoint = self.wrap("linops.conv.adjoint", conv.adjoint)
        conv.__init__ = self.wrap("linops.conv.init", conv.__init__)

        model = mods["model"]
        consts = model.SolverConsts.from_problem.__func__
        model.SolverConsts.from_problem = classmethod(self.wrap("solver.consts", consts))
        diagnostics = mods["diagnostics"]
        diagnostics.HistoryRecorder.__call__ = self.wrap(
            "diagnostics.observer", diagnostics.HistoryRecorder.__call__)

        post_init = model.SaddleProblem.__post_init__

        def traced_post_init(problem):
            post_init(problem)
            self.wrap_problem(problem)

        model.SaddleProblem.__post_init__ = traced_post_init

        numpy_module.linalg.solve = self.wrap("numpy.linalg.solve",
                                              numpy_module.linalg.solve)
        for attr in FFT_ENTRY_POINTS:
            setattr(numpy_module.fft, attr, self.count_fft(getattr(numpy_module.fft, attr)))

    def wrap_problem(self, problem) -> None:
        """Wrap one problem's oracle closures and coupling operator."""
        for oracle, label in ((problem.f, "f"), (problem.g, "g")):
            for field in ("value", "grad", "prox"):
                fn = getattr(oracle, field, None)
                if fn is not None:
                    setattr(oracle, field, self.wrap(f"model.{label}_{field}", fn))
        problem.A.apply = self.wrap("linops.A.apply", problem.A.apply)
        problem.A.adjoint = self.wrap("linops.A.adjoint", problem.A.adjoint)


class SetupMeasured(Exception):
    """Ends a set-up-only child when its first solver run starts."""


def install_run_hooks(ldpd, edpd, record: dict, setup_only: bool = False) -> None:
    """Time every solver run and every observer call.

    `record["runs"]` gets one `[start, end]` per run and
    `record["observer_calls"]` one list of call times per run. With
    `setup_only`, the first run is recorded as `[start, start]` and
    SetupMeasured is raised instead of running it.
    """

    def timed(run):
        @functools.wraps(run)
        def hooked(problem, regime, x1, y1, iters, observer=None, **kwargs):
            calls = []
            record["observer_calls"].append(calls)

            def stamping_observer(snapshot):
                calls.append(clock())
                if observer is not None:
                    observer(snapshot)

            start = clock()
            if setup_only:
                record["runs"].append([start, start])
                raise SetupMeasured
            try:
                return run(problem, regime, x1, y1, iters, stamping_observer,
                           **kwargs)
            finally:
                record["runs"].append([start, clock()])

        return hooked

    ldpd.run_ldpd = timed(ldpd.run_ldpd)
    edpd.run_edpd = timed(edpd.run_edpd)


def main(argv) -> int:
    t_start = clock()
    src_dir, out_json, mode = argv[1], argv[2], argv[3]
    trace, setup_only = mode == "1", mode == "setup"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src_dir)
    import dpdsolve
    from dpdsolve import bench, cli, diagnostics, edpd, imaging, ldpd, linops, model, prox

    package_dir = os.path.dirname(os.path.abspath(dpdsolve.__file__))
    if package_dir != os.path.join(os.path.abspath(src_dir), "dpdsolve"):
        print(f"dpdsolve imported from {package_dir}, not {src_dir}", file=sys.stderr)
        return 70

    record = {"runs": [], "observer_calls": []}
    tracer = None
    if trace:
        import numpy

        tracer = Tracer()
        tracer.install({"dpdsolve": dpdsolve, "bench": bench, "cli": cli,
                        "diagnostics": diagnostics, "edpd": edpd,
                        "imaging": imaging, "ldpd": ldpd, "linops": linops,
                        "model": model, "prox": prox}, numpy)
    install_run_hooks(ldpd, edpd, record, setup_only)

    t_main = clock()
    try:
        rc = cli.main(cli_args)
    except SetupMeasured:
        rc = 0
    t_end = clock()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(rc=rc, t_start=t_start, t_main=t_main, t_end=t_end,
                  maxrss_kib=usage.ru_maxrss)
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    with open(out_json, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
