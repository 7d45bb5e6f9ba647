"""Hand-run mutation check of the tier-1 suite.

Each mutant replaces one string, which must occur exactly once, in one
file under src/. For each mutant the script copies src/, tests/,
tools/ (which a test runs), pyproject.toml and README.md (which a test
reads) into a fresh temporary directory, applies the mutant there, and
runs tier-1 on the copy without tests/test_byte_identity.py: the
digests are re-recorded whenever bits move on purpose, so they must not
be the only guard of a result. pytest stops at the first failure, so a
killed mutant costs less than a full run; a survivor costs one (about
15 s). The unmutated copy runs first and must pass, or every
mutant would count as killed; when it fails, the end of its pytest
output is printed, so that the failing test is named. The script
prints each mutant's fate, then the survivors, and exits 1 if there
are any.

Run it by hand from the repository root; it is not part of tier-1 or
CI, and pytest does not collect it:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    # Each published bound made looser: 2x, or 2x on one of its terms.
    Mutant("ldpd-weakly-convex bound, second term 2x", "src/dpdsolve/ldpd.py",
           "(c.norm_A**2 * dx2 + dy2) / (N + 1.0)",
           "(c.norm_A**2 * dx2 + dy2) / (0.5 * (N + 1.0))"),
    Mutant("ldpd-strongly-convex-dual bound, dy2 term 2x", "src/dpdsolve/ldpd.py",
           "+ dy2 / (k * (k + 1.0) * tau)),",
           "+ 2.0 * dy2 / (k * (k + 1.0) * tau)),"),
    Mutant("ldpd-strongly-convex-primal bound 2x", "src/dpdsolve/ldpd.py",
           "return ((t0 + 2.0) / (k * (k + 3.0 + 2.0 * t0))",
           "return (2.0 * (t0 + 2.0) / (k * (k + 3.0 + 2.0 * t0))"),
    Mutant("ldpd-single-step bound 2x", "src/dpdsolve/ldpd.py",
           "dx2 / (2.0 * k) + dy2 / (2.0 * k * tau)",
           "dx2 / k + dy2 / (k * tau)"),
    Mutant("edpd-strongly-convex-primal bound 2x", "src/dpdsolve/edpd.py",
           "(6.0 * tau * c.norm_A**2 * dx2 + 1.5 * dy2 / tau) / (k * (k + 5.0))",
           "2.0 * (6.0 * tau * c.norm_A**2 * dx2 + 1.5 * dy2 / tau) / (k * (k + 5.0))"),
    Mutant("edpd-strongly-convex-dual bound 2x", "src/dpdsolve/edpd.py",
           "2.0 / (k * (k + 3.0)) * (", "4.0 / (k * (k + 3.0)) * ("),
    Mutant("edpd-weakly-convex bound 2x", "src/dpdsolve/edpd.py",
           "(dx2 * c.norm_A**2 * tau + dy2 / tau) / (2.0 * k)",
           "(dx2 * c.norm_A**2 * tau + dy2 / tau) / k"),
    # The dense ball indicator's tolerance, raised from 1e-9 to 1e-3.
    Mutant("ball indicator tolerance 1e-3", "src/dpdsolve/bench.py",
           "ball_radius * (1.0 + 1e-9)", "ball_radius * (1.0 + 1e-3)"),
    # Schedules, weights and one bound term that other tests guard.
    Mutant("ldpd strongly-convex-dual eta halved", "src/dpdsolve/ldpd.py",
           "eta=t / (2.0 * c.L_f + tau * c.norm_A**2)",
           "eta=0.5 * t / (2.0 * c.L_f + tau * c.norm_A**2)"),
    Mutant("edpd strongly-convex-dual weight t + 2", "src/dpdsolve/edpd.py",
           "weight=lambda t, c: float(t + 1),", "weight=lambda t, c: float(t + 2),"),
    Mutant("ldpd strongly-convex-primal alpha shifted", "src/dpdsolve/ldpd.py",
           "alpha=(t + t0) / (t + t0 + 1.0)", "alpha=(t + t0) / (t + t0 + 2.0)"),
    Mutant("edpd weakly-convex alpha 0.5", "src/dpdsolve/edpd.py",
           "EdpdParams(alpha=1.0, tau=tau,", "EdpdParams(alpha=0.5, tau=tau,"),
    Mutant("ldpd strongly-convex-dual dy2 over k", "src/dpdsolve/ldpd.py",
           "+ dy2 / (k * (k + 1.0) * tau)),", "+ dy2 / (k * tau)),"),
    # The ball-capped construction and the certificate of both builders.
    Mutant("capped factor 8 -> 1", "src/dpdsolve/bench.py",
           "_saddle_instance(data, mu_g, 8.0 * mu_g)", "_saddle_instance(data, mu_g, 1.0 * mu_g)"),
    Mutant("certificate tolerance 1e-9 -> 1e-1", "src/dpdsolve/bench.py",
           "if not miss <= 1e-9 * scale:", "if not miss <= 1e-1 * scale:"),
    Mutant("radius guard removed", "src/dpdsolve/bench.py",
           "    if radius is not None and not radius > 0.0:\n"
           "        raise ConfigurationError(\"the dual solution is zero; no radius can bind\")\n",
           ""),
    # synth-bench's weak and capped instances share one draw: each must
    # still keep its own operator object and its own multiplier u.
    Mutant("weak and capped share one operator", "src/dpdsolve/bench.py",
           "copy.copy(data.op)", "data.op"),
    Mutant("capped instance takes the weak instance's u", "src/dpdsolve/cli.py",
           "u=8.0 * 0.05)", "u=0.5)"),
    # The dual distance check made 2x more lenient.
    Mutant("dual distance check 2x lenient", "src/dpdsolve/diagnostics.py",
           "0.5 * consts.mu_g * float(dist) ** 2", "0.25 * consts.mu_g * float(dist) ** 2"),
    # The CLI's slope window and two of its refusals before anything is built.
    Mutant("slope window T // 20", "src/dpdsolve/cli.py",
           "k_min=max(10, horizon // 10)", "k_min=max(10, horizon // 20)"),
    Mutant("iters guard < 0", "src/dpdsolve/cli.py",
           'if getattr(args, "iters", 1) < 1:', 'if getattr(args, "iters", 1) < 0:'),
    Mutant("input size check removed", "src/dpdsolve/cli.py",
           "        if clean is not None and (clean.m, clean.n) != (observed.m, observed.n):\n"
           "            raise ConfigurationError(f\"--input is {clean.m}x{clean.n} but --degraded-input \"\n"
           "                                     f\"is {observed.m}x{observed.n}\")\n",
           ""),
    # The disk projection and the fused dual step.
    Mutant("disk projection skips pairs just outside", "src/dpdsolve/prox.py",
           "np.less_equal(s, 1.0, out=outside)", "np.less_equal(s, 1.0 + 1e-15, out=outside)"),
    Mutant("fused dual step ignores a non-finite block", "src/dpdsolve/solver.py",
           "if not project_pair_block(z[0], z[1], *scratch[:, :k], outside[:k]):",
           "if not project_pair_block(z[0], z[1], *scratch[:, :k], outside[:k]) and False:"),
    Mutant("fused dual step ignores a replaced operator or prox", "src/dpdsolve/solver.py",
           'if (type(D) is not DifferenceOperator2D or "apply" in vars(D) or "adjoint" in vars(D)\n'
           "            or (type(D).apply, type(D).adjoint, problem.g.prox) != _FUSED_CALLS):",
           "if type(D) is not DifferenceOperator2D:"),
    Mutant("fused dual step ignores a class patch of the operator", "src/dpdsolve/solver.py",
           "(type(D).apply, type(D).adjoint, problem.g.prox) != _FUSED_CALLS",
           "problem.g.prox is not _FUSED_CALLS[2]"),
]

# Lines of a failing unmutated copy's pytest output to print.
TAIL_LINES = 40


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests", "tools"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def tier1(mutant: Optional[Mutant]) -> subprocess.CompletedProcess:
    """Tier-1, less the digests, on a copy with `mutant` (None: the copy
    as it is), its output and errors in `stdout`."""
    with tempfile.TemporaryDirectory(prefix="dpdsolve-mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: the old string occurs "
                                 f"{text.count(mutant.old)} times in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_byte_identity.py", "tests"],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    unmutated = tier1(None)
    if unmutated.returncode != 0:
        tail = "\n".join(unmutated.stdout.splitlines()[-TAIL_LINES:])
        raise SystemExit(f"tier-1 fails on the unmutated copy; its output ends:\n{tail}")
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        fate = "killed" if tier1(mutant).returncode != 0 else "SURVIVED"
        print(f"{fate:8s} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        if fate == "SURVIVED":
            survivors.append(mutant.name)
    print(f"{len(survivors)} of {len(chosen)} mutants survived")
    for name in survivors:
        print(f"  survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
