"""Byte identity of the four subcommands' outputs, against committed digests.

Small versions of every subcommand run in process: `deblur-gauss` at
64 x 64 with ldpd and with edpd, `deblur-sp` at 64 x 64, and
`synth-bench --dims 20,15` with its seven regimes. The ldpd run is also
made with the gradient worker's gate at 0, and must give the in-line
run's bytes. Their `recovered.dpdf` and `history.csv` (and the seven
synth CSVs) are hashed and compared with the sha256 digests in
`byte_identity/digests.json`, which also names the numpy version and
platform they were recorded on.

Another numpy, BLAS or CPU may round otherwise, so on an environment
other than the recorded one the digest test skips, saying why, and
only the tolerance test checks the outputs: every array must lie
within RTOL of `byte_identity/reference.npz`, relative to the largest
magnitude of its column. The tolerance test runs everywhere, so the
fallback is kept current with the digests.

Recording new digests is a deliberate act, for a change that means to
move output bits:

    PYTHONPATH=src python tests/test_byte_identity.py --record
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import platform
import sys

import numpy as np
import pytest

from dpdsolve import cli, solver
from dpdsolve.diagnostics import read_history_csv
from dpdsolve.imaging import read_dpdf

DATA = pathlib.Path(__file__).with_name("byte_identity")
DIGESTS = DATA / "digests.json"
REFERENCE = DATA / "reference.npz"
RTOL = 1e-8

RUNS = {
    "gauss-ldpd": ["deblur-gauss", "--size", "64"],
    "gauss-edpd": ["deblur-gauss", "--size", "64", "--solver", "edpd"],
    "sp-edpd": ["deblur-sp", "--size", "64"],
    "synth": ["synth-bench", "--dims", "20,15"],
}
# the runs whose outputs must equal another run's
SAME_AS = {"gauss-ldpd-threaded": "gauss-ldpd"}


def environment() -> dict:
    """What the digests depend on besides the code: the numpy version,
    the platform, the BLAS numpy was built with and the CPU features
    numpy dispatches on (which pick BLAS kernels too)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        features = sorted(k for k, on in __cpu_features__.items() if on)
    except ImportError:
        features = []
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}",
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_features": features}


def _run(argv, out_dir) -> dict:
    """Run the CLI in process into out_dir; the output files' bytes by
    name."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--out-dir", str(out_dir)])
    assert rc == 0, argv
    names = (["recovered.dpdf", "history.csv"] if argv[0] != "synth-bench"
             else sorted(p.name for p in out_dir.glob("*.csv")))
    return {name: (out_dir / name).read_bytes() for name in names}


def run_all(root: pathlib.Path) -> dict:
    """Every run's output bytes, by run and file name."""
    outputs = {name: _run(argv, root / name) for name, argv in RUNS.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "GRAD_AHEAD_MIN_PRIMAL_DIM", 0)
        outputs["gauss-ldpd-threaded"] = _run(RUNS["gauss-ldpd"],
                                              root / "gauss-ldpd-threaded")
    return outputs


def _arrays(name: str, blob: bytes, tmp: pathlib.Path) -> np.ndarray:
    """The numbers in an output file: the pixels of a DPDF image, the
    history table of a CSV (nan where a cell is empty)."""
    path = tmp / name
    path.write_bytes(blob)
    if name.endswith(".dpdf"):
        return read_dpdf(path).data
    return np.array([[math.nan if v is None else float(v) for v in vars(rec).values()]
                     for rec in read_history_csv(path)])


def _key(run: str, name: str) -> str:
    return f"{run}/{name}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("byte-identity"))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_the_threaded_run_writes_the_in_line_bytes(outputs):
    for run, twin in SAME_AS.items():
        assert outputs[run] == outputs[twin], run


@pytest.mark.parametrize("run", [*RUNS, *SAME_AS])
def test_outputs_match_the_recorded_digests(outputs, recorded, run):
    here = environment()
    if here != recorded["environment"]:
        differ = sorted(k for k in here if here[k] != recorded["environment"].get(k))
        pytest.skip(f"digests recorded on another environment ({', '.join(differ)} "
                    f"differ); only the tolerance check ran")
    source = SAME_AS.get(run, run)
    expected = {k.split("/", 1)[1]: v for k, v in recorded["sha256"].items()
                if k.startswith(source + "/")}
    got = {name: hashlib.sha256(blob).hexdigest()
           for name, blob in outputs[run].items()}
    assert got == expected, f"{run}: outputs moved bits (sha256 check)"


@pytest.mark.parametrize("run", [*RUNS, *SAME_AS])
def test_outputs_match_the_recorded_arrays(outputs, tmp_path, run):
    source = SAME_AS.get(run, run)
    with np.load(REFERENCE) as reference:
        names = sorted(k.split("/", 1)[1] for k in reference.files
                       if k.startswith(source + "/"))
        assert names == sorted(outputs[run]), run
        for name in names:
            want = reference[_key(source, name)]
            got = _arrays(name, outputs[run][name], tmp_path)
            assert got.shape == want.shape, (run, name)
            assert np.array_equal(np.isnan(got), np.isnan(want)), (run, name)
            assert np.array_equal(np.isinf(got), np.isinf(want)), (run, name)
            finite = np.isfinite(want)
            scale = np.max(np.abs(np.where(finite, want, 0.0)), axis=0)
            err = np.abs(np.where(finite, got - want, 0.0))
            assert np.all(err <= RTOL * scale), \
                f"{run}/{name}: off by more than {RTOL} of a column's largest magnitude"


def record() -> None:
    """Write the digests and reference arrays of this code on this host."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        outputs = run_all(root)
        for run, twin in SAME_AS.items():
            if outputs[run] != outputs[twin]:
                raise SystemExit(f"{run} differs from {twin}; nothing recorded")
        DATA.mkdir(exist_ok=True)
        digests = {_key(run, name): hashlib.sha256(blob).hexdigest()
                   for run in RUNS for name, blob in outputs[run].items()}
        DIGESTS.write_text(json.dumps({"environment": environment(), "sha256": digests},
                                      indent=1, sort_keys=True) + "\n")
        np.savez_compressed(REFERENCE, **{
            _key(run, name): _arrays(name, blob, root)
            for run in RUNS for name, blob in outputs[run].items()})


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
