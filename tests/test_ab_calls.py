"""tools/ab_calls.py runs each of its loops and prints its ratio line."""

import importlib.util
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from almost_squares import core

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.mark.parametrize(
    "extra, label",
    [
        (["--limit", "4000"], "cli.main on 8 oracle-verify argvs, --limit up to 4000"),
        (["--digits", "50"], "4 point queries at 50 digits"),
        (["--series", "1"], "emit_series on 13 series workload windows and demo plans"),
        (["--verbs", "1"], "cli.main on 6 pioneers and flock argvs"),
        (["--windows", "1"], "cli.main on 2 dense and sparse list windows"),
        (["--points", "1"], "cli.main on 13 point and sparse list argvs"),
    ],
    ids=["oracle", "digits", "series", "verbs", "windows", "points"],
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


def _differing_run(tmp_path, old, new, extra, module="cli.py"):
    """ab_calls.py run with one loop flag against a copy of src/ with old replaced by new."""
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "almost_squares" / module
    source = path.read_text(encoding="utf-8")
    assert old in source
    path.write_text(source.replace(old, new), encoding="utf-8")
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


def test_points_loop_refuses_trees_that_differ(tmp_path):
    # one byte of check's text answer for a non-member: the check fails on
    # the first argv, before any round
    text = 'text = "{0} is not an almost-square\\n"'
    done = _differing_run(tmp_path, text, text.replace("not", "NOT"), "--points")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == (
        "the trees differ on `check 74607 --format text`: exit code, stdout or stderr\n"
    )


def test_series_loop_runs_the_demo_plans():
    # each --series copy runs the four demo plans, and the equal-bytes
    # check before the rounds is reported
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_calls.py"), SRC, SRC, "--rounds", "4",
         "--series", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "emit_series on 26 series workload windows and demo plans, 4 rounds, " \
        "alternating order"
    assert lines[1] == "  equal row counts and bytes in both trees on every plan"
    spec = importlib.util.spec_from_file_location("ab_calls", ROOT / "tools" / "ab_calls.py")
    ab_calls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_calls)
    plans = ab_calls.series_plans(core, 2, random.Random(1))
    assert plans[:4] == plans[13:17] == list(ab_calls._DEMO_PLANS)
    assert [p[0] for p in plans[4:13]] == ["R-normalized"] * 4 + ["R-of-x"] * 5


def test_series_loop_refuses_trees_that_differ(tmp_path):
    # one byte of the remainder series' header: the check fails on the first
    # remainder plan, the R-normalized demo, before any round
    done = _differing_run(tmp_path, '"x,A,R,R_norm,g,h\\n"', '"x;A,R,R_norm,g,h\\n"',
                          "--series", module="analysis.py")
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout == (
        "the trees differ on plan ('R-normalized', 1, 5000): row count or bytes\n"
    )
