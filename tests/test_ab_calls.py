"""tools/ab_calls.py runs each of its loops and prints its ratio line."""

import re
import shutil
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
        (["--verbs", "1"], "cli.main on 6 pioneers and flock argvs"),
    ],
    ids=["oracle", "digits", "series", "verbs"],
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


def test_verbs_loop_refuses_trees_that_differ(tmp_path):
    # one byte of a list and flock text row changed in a copy of src/: the
    # byte check fails on the first text flock argv, before any round
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "almost_squares" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    member_text = '_MEMBER_TEXT = "{} = {} x {}\\n"'
    assert member_text in source
    cli.write_text(source.replace(member_text, member_text.replace(" x ", " X ")), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), SRC, str(tmp_path / "src"),
         "--rounds", "4", "--verbs", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == (
        "the trees differ on `flock 1215073143 --format text`: exit code, stdout or stderr\n"
    )
