"""The counting scripts under tools/ run on the package and end with
their total line."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("tool", ["code_lines.py", "settable_values.py"])
def test_the_tool_prints_its_total_line(tool):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / tool),
                           str(ROOT / "src" / "dpdsolve")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    label, *counts = proc.stdout.splitlines()[-1].split()
    assert label == "total" and counts and all(c.isdigit() for c in counts)
