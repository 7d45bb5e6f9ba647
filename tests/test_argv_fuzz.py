"""Drawn command lines for all four subcommands, run in process.

Whatever the flags, `cli.main` must end in a documented exit code (0, 2,
3, 4 or 5; argparse's own refusal exits 2), raise nothing else, and print
no traceback and no warning. Floats come from the edges of float64
(zero, the smallest subnormal, 1e+-300, nan, infinities) or the flag's
default; ints lie around their limits; paths point to missing, truncated,
wrong-magic or directory inputs as well as good ones. Sizes, iteration
counts and dimensions are capped so that every run stays small.
"""

import contextlib
import io
import itertools
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdsolve.cli import main
from dpdsolve.imaging import DPDF_MAGIC, make_phantom, write_dpdf, write_pgm

DOCUMENTED_CODES = {0, 2, 3, 4, 5}

EDGE_FLOATS = ["0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300", "-1e-300",
               "nan", "inf", "-inf"]


def floats(ordinary: str):
    """An edge of float64 one time in three, else an ordinary value, so
    that runs often get past the checks to the numerics."""
    return st.one_of(st.just(ordinary), st.just(ordinary), st.sampled_from(EDGE_FLOATS))


def ints(ordinary: int, *edges: int):
    """One of `edges` (around the flag's limits) one time in three, else
    `ordinary`."""
    return st.one_of(st.just(str(ordinary)), st.just(str(ordinary)),
                     st.sampled_from([str(v) for v in edges]))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Input files and directories of every kind a path flag is pointed
    at, and a counter for fresh output directories."""
    root = tmp_path_factory.mktemp("argv_fuzz")
    phantom = make_phantom(16, 16)
    write_dpdf(root / "good.dpdf", phantom)
    write_pgm(root / "good.pgm", phantom)
    (root / "truncated.dpdf").write_bytes((root / "good.dpdf").read_bytes()[:100])
    (root / "short-header.dpdf").write_bytes(DPDF_MAGIC + struct.pack("<I", 16))
    (root / "truncated.pgm").write_bytes((root / "good.pgm").read_bytes()[:60])
    (root / "header-only.pgm").write_bytes(b"P5\n16 16\n")
    (root / "magic.dpdf").write_bytes(b"XXXX" + bytes(20))
    (root / "magic.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    (root / "a-directory").mkdir()
    # history directories for `rates --from-dir`: a good one, one whose
    # files are cut short, and an empty one
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth-bench", "--dims", "20,15", "--iters", "60",
                     "--out-dir", str(root / "histories")]) == 0
    (root / "cut-histories").mkdir()
    for csv in (root / "histories").glob("*.csv"):
        (root / "cut-histories" / csv.name).write_text(csv.read_text()[:150])
    (root / "empty-dir").mkdir()
    return {"root": root, "out": itertools.count(),
            "inputs": ["missing.dpdf", "missing.pgm", "good.dpdf", "good.pgm",
                       "truncated.dpdf", "short-header.dpdf", "truncated.pgm",
                       "header-only.pgm", "magic.dpdf", "magic.pgm", "a-directory"],
            "dirs": ["histories", "cut-histories", "empty-dir", "a-directory",
                     "good.dpdf", "missing-dir"]}


def _argv(command: str, flags: dict) -> list:
    """`--flag=value` for each drawn flag, so that a value that starts with
    a minus sign is not read as a flag; None marks a switch."""
    return [command] + [flag if value is None else f"{flag}={value}"
                        for flag, value in flags.items()]


SHARED_DEBLUR = {
    "--size": ints(16, -1, 0, 1, 7, 8, 64),
    "--seed": ints(0, -1, 1),
    "--timing": st.none(),
    "--tau": floats("0.5"),
}

COMMANDS = {
    "deblur-gauss": {
        **SHARED_DEBLUR,
        "--mu": floats("3000"),
        "--mu-g": floats("0.01"),
        "--sigma": floats("0.003"),
        "--solver": st.sampled_from(["ldpd", "edpd", "pdhg"]),
        "--regime": st.sampled_from(["weakly-convex", "strongly-convex-dual",
                                     "strongly-convex-primal", "single-step"]),
    },
    "deblur-sp": {
        **SHARED_DEBLUR,
        "--alpha": floats("4"),
        "--mu-g0": floats("0.03"),
        "--halve-every": ints(5, -1, 0, 1),
        "--kernel": ints(3, -1, 0, 1, 2, 5, 65),
        "--fraction": floats("0.2"),
    },
    "synth-bench": {"--seed": ints(0, -1, 1)},
    "rates": {},
}

# drawn on every deblur-gauss line: the default kernel does not fit 16 x 16
MOTION = st.one_of(st.tuples(floats("9"), floats("135")).map(",".join),
                   st.sampled_from(["3", "a,b", "3,0,0", ""]))
DIMS = st.tuples(ints(12, -3, -1, 0, 1, 2, 40), ints(10, -3, -1, 0, 1, 2, 40)).map(",".join)
ITERS = ints(5, -1, 0, 1)


@st.composite
def command_lines(draw, paths):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    # rates reads a synth-bench directory and takes no other flag
    required = {} if command == "rates" else {"--iters": ITERS}
    flags = draw(st.fixed_dictionaries(required, optional=COMMANDS[command]))
    root = paths["root"]
    if command == "deblur-gauss":
        flags["--kernel"] = draw(MOTION)
    if command == "synth-bench":
        flags["--dims"] = draw(DIMS)
    if command == "rates":
        if draw(st.booleans()):
            flags["--from-dir"] = root / draw(st.sampled_from(paths["dirs"]))
    elif draw(st.integers(0, 3)) == 0:
        flags["--out-dir"] = root / "good.pgm"  # an output directory that is a file
    else:
        flags["--out-dir"] = root / f"out{next(paths['out'])}"
    if command.startswith("deblur"):
        for flag in ("--input", "--degraded-input"):
            if draw(st.integers(0, 2)) == 0:
                flags[flag] = root / draw(st.sampled_from(paths["inputs"]))
    return _argv(command, flags)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_drawn_command_line_ends_in_a_documented_exit_code(paths, data):
    argv = data.draw(command_lines(paths))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    err = err.getvalue()
    assert rc in DOCUMENTED_CODES, (argv, rc, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
