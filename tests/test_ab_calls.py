"""tools/ab_calls.py runs each of its loops and prints its ratio line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.mark.parametrize(
    "extra, label",
    [
        (["--limit", "4000"], "oracle-verify's calls for n <= 4000"),
        (["--digits", "50"], "4 point queries at 50 digits"),
        (["--series", "1"], "emit_series on 9 series workload windows"),
    ],
    ids=["oracle", "digits", "series"],
)
def test_each_loop_prints_its_ratio(extra, label):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), SRC, SRC, "--rounds", "4", *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"{label}, 4 rounds, alternating order"
    assert re.fullmatch(r"  b / a per round: median \d+\.\d{4}, quartiles \d+\.\d{4} to \d+\.\d{4}",
                        lines[-1]), done.stdout
