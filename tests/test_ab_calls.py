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
        (["--windows", "1"], "cli.main on 2 dense and sparse list windows"),
    ],
    ids=["oracle", "digits", "series", "verbs", "windows"],
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


def _differing_run(tmp_path, old, new, extra):
    """ab_calls.py run with one loop flag against a copy of src/ with old replaced by new."""
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "almost_squares" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert old in source
    cli.write_text(source.replace(old, new), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), SRC, str(tmp_path / "src"),
         "--rounds", "4", extra, "1"],
        capture_output=True, text=True, timeout=120,
    )


def test_verbs_loop_refuses_trees_that_differ(tmp_path):
    # one byte of a list and flock text row changed in a copy of src/: the
    # byte check fails on the first text flock argv, before any round
    member_text = '_MEMBER_TEXT = "{} = {} x {}\\n"'
    done = _differing_run(tmp_path, member_text, member_text.replace(" x ", " X "), "--verbs")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == (
        "the trees differ on `flock 1215073143 --format text`: exit code, stdout or stderr\n"
    )


def test_windows_loop_refuses_trees_that_differ(tmp_path):
    # one byte of the csv header: the check fails on the first list window
    done = _differing_run(tmp_path, 'head = ",".join(columns)', 'head = ";".join(columns)',
                          "--windows")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == (
        "the trees differ on `list 138 1112701 --format csv`: exit code, stdout or stderr\n"
    )
