"""Hand-run mutation check of the tier-1 suite.

Each mutant replaces one string, which must occur exactly once, in one
file under src/. For each mutant the script copies src/, tests/,
pyproject.toml and README.md (which a test reads) into a fresh
temporary directory, applies the mutant there, and runs tier-1 on the
copy without tests/test_byte_identity.py:
the digests are re-recorded whenever bits move on purpose, so they must
not be the only guard of a result. pytest stops at the first failure,
so a killed mutant costs less than a full run; a survivor costs one
(about 15 s). The unmutated copy runs first and must pass, or every
mutant would count as killed. The script prints each mutant's fate,
then the survivors, and exits 1 if there are any.

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
    # The dual distance check made 2x more lenient.
    Mutant("dual distance check 2x lenient", "src/dpdsolve/diagnostics.py",
           "0.5 * consts.mu_g * float(dist) ** 2", "0.25 * consts.mu_g * float(dist) ** 2"),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def killed(mutant: Optional[Mutant]) -> bool:
    """Whether tier-1, less the digests, fails on a copy with `mutant`
    (None: the copy as it is)."""
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
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return proc.returncode != 0


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    if killed(None):
        raise SystemExit("tier-1 fails on the unmutated copy")
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        fate = "killed" if killed(mutant) else "SURVIVED"
        print(f"{fate:8s} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        if fate == "SURVIVED":
            survivors.append(mutant.name)
    print(f"{len(survivors)} of {len(chosen)} mutants survived")
    for name in survivors:
        print(f"  survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
