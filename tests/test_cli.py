"""CLI behavior: verbs, formats, exit codes, and big-integer handling."""

import argparse
import contextlib
import decimal
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almost_squares import _bigint, analysis, cli, core, oracle
from almost_squares.cli import main
from almost_squares.core import (
    _flock_runs,
    count_le,
    enumerate_range,
    flock_members,
    floor_almost_square,
    is_almost_square,
    nth,
    triangular,
)
from reference_data import FIRST_59
from test_cli_screens import CHECK_USAGE, PARSED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_member_json(self, capsys):
        code, out, _ = run(capsys, "check", "182", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["width"] == "13"
        assert payload["length"] == "14"
        assert payload["semiperimeter"] == "27"

    def test_nonmember_text(self, capsys):
        code, out, _ = run(capsys, "check", "190")
        assert code == 0
        assert "not an almost-square" in out

    def test_nonmember_csv(self, capsys):
        code, out, _ = run(capsys, "check", "190", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "190,0,,,"

    def test_rejects_zero(self, capsys):
        code, _, err = run(capsys, "check", "0")
        assert code == 2
        assert "n must be >= 1" in err


class TestFloor:
    def test_190(self, capsys):
        code, out, _ = run(capsys, "floor", "190")
        assert code == 0
        assert out.startswith("182 = 13 x 14")

    def test_supercoop(self, capsys):
        code, out, _ = run(capsys, "floor", "8675309")
        assert code == 0
        assert out.startswith("8675268 = 2919 x 2972")

    def test_json_matches_text(self, capsys):
        _, text_out, _ = run(capsys, "floor", "8675309")
        _, json_out, _ = run(capsys, "floor", "8675309", "--format", "json")
        payload = json.loads(json_out)
        assert payload["value"] in text_out
        assert payload["width"] in text_out
        assert payload["length"] in text_out


class TestCount:
    def test_200(self, capsys):
        code, out, _ = run(capsys, "count", "200")
        assert code == 0
        assert out.strip() == "59"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "count", "200", "--format", "json")
        assert json.loads(out) == {"n": "200", "count": "59"}


class TestNth:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "nth", "59")
        assert code == 0
        assert out.startswith("196 = 14 x 14")

    def test_zero_rejected(self, capsys):
        code, _, err = run(capsys, "nth", "0")
        assert code == 2
        assert "index must be >= 1" in err


class TestListVerb:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "list", "1", "20")
        values = [int(line.split(" = ")[0]) for line in out.splitlines()]
        assert code == 0
        assert values == [1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 20]

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "list", "170", "200", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "value,width,length,semiperimeter,flock"
        assert lines[1] == "176,11,16,27,27"

    def test_sparse_window_at_1e30(self, capsys):
        lo = 10**30
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "list", str(lo), str(lo + 100))
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        # 10^30 = (10^15)^2 closes its flock; the next member is 10^30 + 10^15
        assert out == f"{lo} = {10**15} x {10**15}\n"

    def test_rejects_swapped(self, capsys):
        code, _, err = run(capsys, "list", "10", "5")
        assert code == 2
        assert "lo" in err

    # 182..196 holds 182, 192, 195 and 196; 183..196 starts past a member
    @pytest.mark.parametrize("lo, rows", [(182, 4), (183, 3)])
    def test_count_at_the_cap(self, capsys, monkeypatch, lo, rows):
        monkeypatch.setattr(cli, "_ROW_CAP", rows)
        code, out, _ = run(capsys, "list", str(lo), "196")
        assert code == 0
        assert [int(line.split(" = ")[0]) for line in out.splitlines()] == (
            [182, 192, 195, 196][-rows:]
        )
        monkeypatch.setattr(cli, "_ROW_CAP", rows - 1)
        code, out, err = run(capsys, "list", str(lo), "196")
        assert code == 2
        assert out == ""
        assert err == (
            f"almost-squares: range holds {rows} members; "
            "use 'count', or 'analyze --grid' with a --step, instead\n"
        )

    def test_memory_does_not_grow_with_the_window(self):
        # about 100 and 9,800 rows: the rows stream from the flock runs to
        # stdout, so the larger window's peak is the smaller one's, while a
        # list of records would hold about 240 B for each of its rows
        class Discard(io.TextIOBase):
            def write(self, s):
                return len(s)

        for fmt in ("text", "json", "csv"):
            peaks = []
            for hi in (10**6 + 4500, 10**6 + 450_000):
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(Discard()):
                        code = main(["list", str(10**6), str(hi), "--format", fmt])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0
            assert peaks[1] <= 2 * peaks[0], (fmt, peaks)

    def test_memory_does_not_grow_with_a_dense_window(self):
        # the windows benchmark's dense shape, about 12,400 and 68,900 rows
        # from 1: runs of small flocks share chunks of at most cli._CHUNK_ROWS
        # rows and take cells from a table sized by the flock, not the window
        for fmt in ("text", "json", "csv"):
            peaks = []
            for hi in (300_000, 3_000_000):
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(_Writes(keep=False)):
                        code = main(["list", "1", str(hi), "--format", fmt])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0
            assert peaks[1] <= 2 * peaks[0], (fmt, peaks)


class TestFlockVerb:
    def test_members(self, capsys):
        code, out, _ = run(capsys, "flock", "16")
        assert code == 0
        assert out.splitlines() == ["60 = 6 x 10", "63 = 7 x 9", "64 = 8 x 8"]

    def test_empty_first_flock(self, capsys):
        code, out, _ = run(capsys, "flock", "1")
        assert code == 0
        assert out == ""

    def test_count_at_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_ROW_CAP", 3)
        code, out, _ = run(capsys, "flock", "28")
        assert code == 0
        assert out.splitlines() == ["192 = 12 x 16", "195 = 13 x 15", "196 = 14 x 14"]
        monkeypatch.setattr(cli, "_ROW_CAP", 2)
        code, out, err = run(capsys, "flock", "28")
        assert code == 2
        assert out == ""
        assert err == "almost-squares: flock 28 holds 3 members, above the cap of 2\n"

    def test_huge_flock_refused_up_front(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "flock", str(10**32))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("almost-squares: flock ") and err.count("\n") == 1


class TestPioneers:
    def test_first_four(self, capsys):
        code, out, _ = run(capsys, "pioneers", "4", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "index,value,width,length,flock"
        assert lines[1] == "1,3,1,3,4"
        assert lines[3] == "3,60,6,10,16"
        assert lines[4] == "4,150,10,15,25"

    def test_count_above_cap_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_ROW_CAP", 5)
        code, out, _ = run(capsys, "pioneers", "5")
        assert code == 0
        assert len(out.splitlines()) == 5
        code, out, err = run(capsys, "pioneers", "6")
        assert code == 2
        assert out == ""
        assert "above the cap" in err and err.count("\n") == 1

    def test_json_rows_are_streamed(self):
        # json holds one row at a time, as csv does, not a list of all rows:
        # into a sink that keeps only a length, neither peak grows with the
        # row count.  The first main call in a process builds the cached
        # parser, so one warm-up call comes before the peaks are taken.
        class Length:
            size = 0

            def write(self, text):
                self.size += len(text)

            def writelines(self, lines):
                for text in lines:
                    self.size += len(text)

        with contextlib.redirect_stdout(Length()):
            main(["pioneers", "1"])
        peaks = {}
        for fmt in ("csv", "json"):
            for count in (5_000, 20_000):
                sink = Length()
                tracemalloc.start()
                try:
                    with contextlib.redirect_stdout(sink):
                        code = main(["pioneers", str(count), "--format", fmt])
                    peaks[fmt, count] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 0 and sink.size > 40 * count
            assert peaks[fmt, 20_000] <= peaks[fmt, 5_000] + 4096, peaks


class TestAnalyze:
    def test_a_series(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "30"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "x,A"
        assert len(lines) == 31

    def test_r_series_at_members(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--plan", "R-normalized", "--lo", "1", "--hi", "200"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "x,A,R,R_norm,g,h"
        assert len(lines) == 60
        assert [int(line.split(",")[0]) for line in lines[1:]] == FIRST_59

    def test_beyond_float_range_refused(self, capsys):
        # rows hold x exactly, so 10^310 is answered; from 2^4092 on R may
        # leave float range, and the plan is refused before any output
        big = str(10**310)
        code, out, _ = run(
            capsys, "analyze", "--plan", "R-of-x", "--grid", "--lo", big, "--hi", big
        )
        assert code == 0 and out.splitlines()[1].startswith(big + ",")
        top = str(2**4092)
        for grid in (["--grid"], []):
            code, out, err = run(
                capsys, "analyze", "--plan", "R-of-x", *grid, "--lo", "1", "--hi", top
            )
            assert code == 2
            assert out == ""
            assert err.startswith("almost-squares: ") and err.count("\n") == 1
            assert "2^4092" in err and "float range" in err


class TestTrigrid:
    def test_default_header(self, capsys):
        code, out, _ = run(capsys, "trigrid", "6")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "m,n,is_member"
        assert len(lines) == 37


# the member one past the ceiling: [1, _PAST_CEILING] holds 10^7 + 1 members
_PAST_CEILING = str(nth(10**7 + 1).area)
_PLAN_REFUSAL = "almost-squares: plan would emit {} rows, above the cap of 10000000\n"


@pytest.mark.parametrize("argv, err", [
    (("list", "1", _PAST_CEILING),
     "almost-squares: range holds 10000001 members; "
     "use 'count', or 'analyze --grid' with a --step, instead\n"),
    (("flock", str(10**32)),
     f"almost-squares: flock {10**32} holds 5000000000000001 members, "
     "above the cap of 10000000\n"),
    (("pioneers", "10000001"),
     "almost-squares: 10000001 pioneers requested, above the cap of 10000000\n"),
    (("analyze", "--plan", "R-normalized", "--lo", "1", "--hi", _PAST_CEILING),
     _PLAN_REFUSAL.format(10**7 + 1)),
    (("analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "10000001"),
     _PLAN_REFUSAL.format(10**7 + 1)),
    (("trigrid", "3163"), _PLAN_REFUSAL.format(3163**2)),
    (("trigrid", str(10**20)), _PLAN_REFUSAL.format(10**40)),
    (("analyze", "--plan", "A-of-x", "--lo", "1", "--hi", str(10**40)),
     _PLAN_REFUSAL.format(10**40)),
], ids=["list", "flock", "pioneers", "analyze-members", "analyze-grid", "trigrid",
        "trigrid-1e20", "analyze-1e40"])
def test_every_streaming_verb_refuses_one_row_past_the_ceiling(capsys, argv, err):
    # list, flock, pioneers, analyze and trigrid share one 10^7-row ceiling,
    # and each refuses a request above it before any output, in closed form
    t0 = time.perf_counter()
    assert run(capsys, *argv) == (2, "", err)
    assert time.perf_counter() - t0 < 1.0


def _verify(monkeypatch, workers, limit="30000"):
    """main's bytes for oracle-verify --limit limit on `workers` CPUs, and its forks.

    The default limit makes three slices of 10^4 n: [1, 10^4], [10^4 + 1,
    2*10^4] and [2*10^4 + 1, 3*10^4].  Every call, failing ones too, must
    leave no child process unreaped.
    """
    forks = []
    fork = os.fork

    def spy():
        forks.append(1)
        return fork()

    with monkeypatch.context() as m:
        m.setattr(cli, "_usable_cpus", lambda: workers)
        m.setattr(os, "fork", spy)
        try:
            outcome = _main_bytes(["oracle-verify", "--limit", limit])
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    return outcome, len(forks)


class TestOracleVerify:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "oracle-verify", "--limit", "2000")
        assert code == 0
        assert "membership: 2000/2000 ok, 0 mismatches" in out
        assert "counts:     2000/2000 ok, 0 mismatches" in out

    def test_huge_limit_refused_up_front(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "oracle-verify", "--limit", "1000000000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "above the oracle scan cap" in err and err.count("\n") == 1

    def test_limit_just_above_cap_refused_up_front(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "oracle-verify", "--limit", "10000001")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "10000000" in err and err.count("\n") == 1

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_limit_below_one_refused(self, capsys, limit):
        # the oracle's own refusal, written as cli's others are
        assert run(capsys, "oracle-verify", "--limit", limit) == (
            2, "", "almost-squares: limit must be >= 1\n"
        )

    def test_mismatch_prints_witness(self, capsys, monkeypatch):
        bad = 1234
        monkeypatch.setattr(cli, "count_le", lambda n: count_le(n) + (n == bad))
        code, out, _ = run(capsys, "oracle-verify", "--limit", "2000")
        assert code == 1
        summary, counts, *witnesses = out.splitlines()
        assert summary == "membership: 2000/2000 ok, 0 mismatches"
        assert counts == "counts:     1999/2000 ok, 1 mismatches"
        want = count_le(bad)
        assert witnesses == [
            f"n={bad}: fast member=False count={want + 1}, "
            f"oracle member=False count={want}"
        ]

    # the sweep in forked slices gives the bytes of one sweep, and leaves no
    # child process behind
    def test_same_bytes_for_every_worker_count(self, monkeypatch):
        serial, forks = _verify(monkeypatch, 1)
        assert serial == (0, "membership: 30000/30000 ok, 0 mismatches\n"
                             "counts:     30000/30000 ok, 0 mismatches\n", "")
        assert forks == 0
        for workers in (2, 3):
            assert _verify(monkeypatch, workers) == (serial, workers - 1)

    def test_witnesses_across_slices_in_n_order(self, monkeypatch):
        bad = {7, 12, 15000, 25001, 29000, 29999}  # two in each slice of three
        monkeypatch.setattr(cli, "count_le", lambda n: count_le(n) + (n in bad))
        serial, _ = _verify(monkeypatch, 1)
        code, out, err = serial
        assert (code, err) == (1, "")
        summary, counts, *witnesses = out.splitlines()
        assert counts == "counts:     29994/30000 ok, 6 mismatches"
        assert [w.split(":")[0] for w in witnesses] == [
            "n=7", "n=12", "n=15000", "n=25001", "n=29000"
        ]
        for workers in (2, 3):
            assert _verify(monkeypatch, workers) == (serial, workers - 1)

    def test_assertion_in_a_child_slice_exits_1(self, monkeypatch):
        located = core._count_located

        def broken(k, offset):  # k > 283 only above n = 2*10^4, in a forked slice
            if k > 283:
                raise AssertionError(f"closed-form count not divisible by 12 at k={k}")
            return located(k, offset)

        monkeypatch.setattr(core, "_count_located", broken)
        serial, _ = _verify(monkeypatch, 1)
        assert serial == (
            1, "", "almost-squares: internal check failed: "
                   "closed-form count not divisible by 12 at k=284\n"
        )
        for workers in (2, 3):
            assert _verify(monkeypatch, workers) == (serial, workers - 1)

    def test_first_slice_in_n_order_raises(self, monkeypatch):
        # a refusal in this process's slice wins over a failure in a child's
        def broken(n):
            if n == 500:
                raise ValueError("refused at 500")
            if n > 20000:
                raise AssertionError("failed above 2*10^4")
            return count_le(n)

        monkeypatch.setattr(cli, "count_le", broken)
        want = (2, "", "almost-squares: refused at 500\n")
        for workers in (1, 3):
            assert _verify(monkeypatch, workers) == (want, workers - 1)

    def test_interrupt_in_this_slice_kills_the_children(self, monkeypatch):
        def interrupted(n):
            if n == 5000:
                raise KeyboardInterrupt
            if n == 25000:  # a worker that would hold the reap for a minute
                time.sleep(60)
            return count_le(n)

        monkeypatch.setattr(cli, "count_le", interrupted)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _verify(monkeypatch, 3)
        assert time.perf_counter() - t0 < 30

    def test_killed_worker_is_an_error(self, monkeypatch):
        def killed(n):
            if n == 25000:  # in the last worker's slice: it dies with no result
                os.kill(os.getpid(), signal.SIGKILL)
            return count_le(n)

        monkeypatch.setattr(cli, "count_le", killed)
        with pytest.raises(ChildProcessError, match="sent no result"):
            _verify(monkeypatch, 3)

    @pytest.mark.parametrize("limit", ["50", "10000", "19999"])
    def test_no_fork_below_two_slices(self, monkeypatch, limit):
        (code, _, _), forks = _verify(monkeypatch, 8, limit)
        assert (code, forks) == (0, 0)

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            (code, out, _), forks = _verify(monkeypatch, 3)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert (code, forks) == (0, 0)
        assert out.startswith("membership: 30000/30000 ok, 0 mismatches\n")

    def test_workers_flush_no_inherited_output(self):
        # into a pipe stdout is block-buffered, so a line written before
        # the fork is still in the buffer every worker inherits; it must
        # reach the reader once, and the summary once
        code = (
            "import sys\n"
            "from almost_squares import cli\n"
            "cli._usable_cpus = lambda: 3\n"
            "print('before')\n"
            "sys.exit(cli.main(['oracle-verify', '--limit', '30000']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "before\nmembership: 30000/30000 ok, 0 mismatches\n"
               "counts:     30000/30000 ok, 0 mismatches\n", ""
        )

    # each forked slice anchors its count at its own first n; the parent holds
    # the anchors against the members before each slice and sweeps a slice
    # again where they differ.  The three slices start at 1, 10001 and 20001
    @pytest.mark.parametrize("shift, counts", [
        (lambda n: n == 10001, "29999/30000 ok, 1 mismatches"),
        (lambda n: n in (20001, 20002), "29998/30000 ok, 2 mismatches"),
        (lambda n: n > 15000, "15000/30000 ok, 15000 mismatches"),
        (lambda n: 2 * (n > 10000), "10000/30000 ok, 20000 mismatches"),
    ], ids=["first-n", "first-two-n", "offset-above-15000", "offset-2-above-10000"])
    def test_count_faults_at_slice_starts(self, monkeypatch, shift, counts):
        monkeypatch.setattr(cli, "count_le", lambda n: count_le(n) + shift(n))
        serial, _ = _verify(monkeypatch, 1)
        assert serial[0] == 1 and serial[1].splitlines()[1] == "counts:     " + counts
        for workers in (2, 3):
            assert _verify(monkeypatch, workers) == (serial, workers - 1)

    def test_membership_fault_at_a_slice_start(self, monkeypatch):
        # the anchor takes lo's brute flag, not its fast one
        flipped = {10001, 20001}
        monkeypatch.setattr(cli, "is_almost_square", lambda n: (
            is_almost_square(n) if n not in flipped else
            None if is_almost_square(n) else "a member"))
        serial, _ = _verify(monkeypatch, 1)
        assert serial[1].startswith("membership: 29998/30000 ok, 2 mismatches\n")
        for workers in (2, 3):
            assert _verify(monkeypatch, workers) == (serial, workers - 1)

    def test_both_fast_calls_raising_at_a_slice_start(self, monkeypatch):
        # membership is called first at each n, as in one sweep
        def member(n):
            if n == 20001:
                raise ValueError("membership refused at 20001")
            return is_almost_square(n)

        def count(n):
            if n == 20001:
                raise AssertionError("count failed at 20001")
            return count_le(n)

        monkeypatch.setattr(cli, "is_almost_square", member)
        monkeypatch.setattr(cli, "count_le", count)
        want = (2, "", "almost-squares: membership refused at 20001\n")
        for workers in (1, 2, 3):
            assert _verify(monkeypatch, workers) == (want, workers - 1)

    def test_parent_sweeps_again_only_a_misanchored_slice(self, monkeypatch):
        # the second of two slices starts at a member, where an anchor that
        # left out lo's brute flag would be one too high
        lo = floor_almost_square(15000).area
        limit = str(2 * (lo - 1))
        sweeps = []
        sweep = cli._sweep

        def spy(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(cli, "_sweep", spy)
        (code, _, _), forks = _verify(monkeypatch, 2, limit)
        assert (code, forks, sweeps) == (0, 1, [(1, lo - 1, 0)])
        sweeps.clear()
        monkeypatch.setattr(cli, "count_le", lambda n: count_le(n) + (n == lo))
        (code, out, _), forks = _verify(monkeypatch, 2, limit)
        assert (code, forks) == (1, 1)
        assert sweeps == [(1, lo - 1, 0), (lo, 2 * (lo - 1), count_le(lo - 1))]
        assert out.splitlines()[2].startswith(f"n={lo}: ")

    def test_parent_never_runs_the_whole_range_scan(self, monkeypatch, record_set_full):
        # each process sieves and scans its own slice: the parent holds
        # [1, 10^5], not the whole range's sieve and member list
        limit, members = record_set_full.limit, record_set_full.members
        whole = 2 * (limit + 1) + sys.getsizeof(members) + sum(map(sys.getsizeof, members))
        calls = []

        def spy(scan_limit):
            calls.append(scan_limit)
            raise AssertionError("brute_record_set called")

        monkeypatch.setattr(oracle, "brute_record_set", spy)
        monkeypatch.setattr(cli, "brute_record_set", spy)
        tracemalloc.start()
        try:
            outcome = _verify(monkeypatch, 2, str(limit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == ((0, "membership: 200000/200000 ok, 0 mismatches\n"
                               "counts:     200000/200000 ok, 0 mismatches\n", ""), 1)
        assert calls == []
        assert peak < whole


def _window_starts():
    """Seeded window starts in [1, 2*10^5], with 1, 2 and each of m^2,
    m^2 + 1, m(m + 1) and m(m + 1) + 1 for some m."""
    rng = random.Random(41)
    starts = [1, 2]
    for m in (2, 3, 7, 100, 141, 316, 446):
        starts += [m * m, m * m + 1, m * (m + 1), m * (m + 1) + 1]
    return starts + [rng.randint(3, 199_000) for _ in range(12)]


@pytest.mark.parametrize("lo", _window_starts())
def test_window_scan_keeps_the_records_of_one_scan(monkeypatch, record_set_full, lo):
    # a slice's scan starts at m^2, m = isqrt(lo - 1), and must flag the
    # members brute_record_set finds from 1: here the fast calls answer from
    # those members, so any disagreement is the window scan's
    members = record_set_full.members
    member_set = set(members)
    monkeypatch.setattr(cli, "is_almost_square", lambda n: n if n in member_set else None)
    monkeypatch.setattr(cli, "count_le", lambda n: bisect_right(members, n))
    hi = min(lo + random.Random(lo).randint(0, 3000), record_set_full.limit)
    below = bisect_left(members, lo)
    want = (below, bisect_right(members, hi) - below, 0, 0, [])
    assert cli._sweep(lo, hi, below) == want
    assert cli._sweep(lo, hi) == want


def test_internal_check_failure_exits_1(monkeypatch):
    # main turns an AssertionError from a verb into exit 1 and one stderr line
    def broken(j):
        raise AssertionError("boom")

    monkeypatch.setattr(cli, "nth", broken)
    assert _main_bytes(["nth", "5"]) == (
        1, "", "almost-squares: internal check failed: boom\n"
    )


class TestBigIntegers:
    def test_thousand_digit_inputs(self, capsys):
        n = "1" + "0" * 999
        code, out, _ = run(capsys, "check", n)
        assert code == 0
        code, out, _ = run(capsys, "floor", n)
        assert code == 0
        value = int(out.split(" = ")[0])
        assert value <= int(n)
        code, out, _ = run(capsys, "count", n)
        assert code == 0
        assert int(out.strip()) == count_le(int(n))

    def test_round_trip(self, capsys):
        for rec in enumerate_range(999_000, 1_000_000):
            _, out, _ = run(capsys, "count", str(rec.area))
            j = out.strip()
            _, out, _ = run(capsys, "nth", j)
            assert int(out.split(" = ")[0]) == rec.area


def _main_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_same_as_int_str_path(monkeypatch, argv):
    """main's bytes for argv in every format, against the int()/str() path alone."""
    for fmt in ("text", "json", "csv"):
        fast = _main_bytes([*argv, "--format", fmt])
        with monkeypatch.context() as m:
            m.setattr(_bigint, "_BIG_DIGITS", 10**9)  # above every input: int() and str()
            assert _main_bytes([*argv, "--format", fmt]) == fast, (argv[0], fmt)


@pytest.mark.usefixtures("no_int_digit_limit")
class TestWideDecimalIO:
    """Past _bigint._BIG_DIGITS digits, parsing and rendering go through _bigint."""

    @pytest.mark.parametrize("verb, digits, member, prefix", [
        ("check", 10_000, True, ""),
        ("check", 40_000, False, ""),
        ("check", 17_000, False, "000"),
        ("check", 12_000, True, "0"),
        ("check", 5, False, "0" * _bigint._BIG_DIGITS),
        ("check", 5, True, "0" * _bigint._BIG_DIGITS),
        ("count", 40_000, True, ""),
        ("count", 25_000, False, ""),
        ("count", 12_000, False, "-"),
        ("count", 17_000, True, "00"),
        ("count", 3_000, False, "0" * 4_000),
        ("floor", 25_000, True, ""),
        ("floor", 17_000, False, ""),
        ("floor", 10_000, False, " "),
        ("nth", 10_000, False, ""),
        ("nth", 20_000, False, ""),
    ])
    def test_point_answers(self, monkeypatch, verb, digits, member, prefix):
        rng = random.Random(digits)
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        if member:
            n = floor_almost_square(n).area
        _assert_same_as_int_str_path(monkeypatch, [verb, prefix + str(n)])

    @pytest.mark.parametrize("verb, member", [
        ("check", True), ("check", False), ("count", True),
    ])
    def test_argument_digits_are_echoed(self, monkeypatch, verb, member):
        # n's cell, and a member's value cell, are the argument's digits: no
        # int as wide as n goes through to_decimal, only a member's width
        # and excess or the count, which has about 3/4 of n's bits, and no
        # value is multiplied out
        n = random.Random(7).randrange(10**29_999, 10**30_000)
        if member:
            n = floor_almost_square(n).area
        widths = []
        to_decimal = _bigint.to_decimal
        monkeypatch.setattr(
            _bigint, "to_decimal", lambda m: widths.append(m.bit_length()) or to_decimal(m)
        )

        class NoProduct(decimal.Context):
            def multiply(self, a, b):
                raise AssertionError("a value was multiplied out")

        exact = _bigint.EXACT
        monkeypatch.setattr(_bigint, "EXACT", NoProduct(
            prec=exact.prec, Emax=exact.Emax, Emin=exact.Emin, traps=[decimal.Inexact]
        ))
        code, out, _ = _main_bytes([verb, "00" + str(n), "--format", "csv"])
        assert code == 0 and out.splitlines()[1].startswith(f"{n},")
        assert max(widths, default=0) <= 3 * n.bit_length() // 4 + 2

    @pytest.mark.parametrize("template", ["{}", "+{}", "-{}", " {} ", "{} ", "\t-{}\n", "+000{}"])
    def test_signed_or_padded_argument_skips_int(self, monkeypatch, template):
        n = random.Random(11).randrange(10**9_999, 10**10_000)
        text = template.format(n)
        parsed = []
        int_from_digits = _bigint.int_from_digits
        monkeypatch.setattr(
            _bigint, "int_from_digits", lambda s: parsed.append(s) or int_from_digits(s)
        )
        assert _bigint.parse_int(text) == int(text)
        assert [s.lstrip("0") for s in parsed] == [str(n)]

    @pytest.mark.parametrize("verb", ["check", "count"])
    def test_signed_or_padded_argument_writes_the_same_bytes(self, verb):
        n = floor_almost_square(random.Random(13).randrange(10**9_999, 10**10_000)).area
        for fmt in ("text", "json", "csv"):
            plain = _main_bytes([verb, str(n), "--format", fmt])
            assert plain[0] == 0
            for text in (f"+{n}", f" {n} "):
                assert _main_bytes([verb, text, "--format", fmt]) == plain, (text, fmt)

    @pytest.mark.parametrize("template", [
        "7_{}", "{}_7", "1_2_3{}", "-7_{}", " +7_{} ", "000_7{}", "{}_0",
    ])
    def test_underscored_argument_skips_int(self, monkeypatch, template):
        # single '_' between two digits, as int() takes them, are dropped
        # before the digit test, so the digits go to int_from_digits too
        n = random.Random(17).randrange(10**9_999, 10**10_000)
        text = template.format(n)
        parsed = []
        int_from_digits = _bigint.int_from_digits
        monkeypatch.setattr(
            _bigint, "int_from_digits", lambda s: parsed.append(s) or int_from_digits(s)
        )
        assert _bigint.parse_int(text) == int(text)
        assert parsed == [text.strip().lstrip("+-").replace("_", "")]

    @pytest.mark.parametrize("template", ["1__{}", "_{}", "{}_", "+_{}", "+{}__1"])
    @pytest.mark.parametrize("digits", [3, 10_000], ids=["short", "long"])
    def test_misplaced_underscores_refused(self, monkeypatch, capsys, template, digits):
        text = template.format("7" * digits)
        monkeypatch.setattr(_bigint, "int_from_digits", None)  # never reached
        with pytest.raises(ValueError):
            _bigint.parse_int(text)
        with pytest.raises(SystemExit) as exc:
            main(["count", text])
        assert exc.value.code == 2
        assert f"argument n: invalid int value: '{text}'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, member", [
        ("check", True), ("check", False), ("count", True), ("count", False),
    ])
    def test_underscored_argument_writes_the_same_bytes(self, verb, member):
        n = random.Random(19).randrange(10**9_999, 10**10_000)
        if member:
            n = floor_almost_square(n).area
        digits = str(n)
        grouped = "_".join(digits[i:i + 3] for i in range(0, len(digits), 3))
        for fmt in ("text", "json", "csv"):
            plain = _main_bytes([verb, digits, "--format", fmt])
            assert plain[0] == 0
            assert _main_bytes([verb, grouped, "--format", fmt]) == plain, fmt

    def test_negative_count_refused_before_rendering(self, monkeypatch):
        # count_le refuses n before n's cell is rendered, so a wide negative
        # n is never converted back to decimal
        text = "-" + "7" * 20_000
        want = _main_bytes(["count", text])
        assert want == (2, "", "almost-squares: n must be >= 1\n")

        def no_render(n):
            raise AssertionError("to_decimal called")

        monkeypatch.setattr(_bigint, "to_decimal", no_render)
        for fmt in ("text", "json", "csv"):
            assert _main_bytes(["count", text, "--format", fmt]) == want, fmt

    def test_list_near_1e20000(self, monkeypatch):
        m = 10**10_000
        lo = m * m - 24  # the window holds m^2 - j^2 for j <= 4, the end of flock 2m
        argv = ["list", str(lo), str(lo + 999)]
        assert len(_main_bytes(argv)[1].splitlines()) == 5
        _assert_same_as_int_str_path(monkeypatch, argv)

    # A-of-x windows of about 10^4 digits: one point, a stepped window, and a
    # grid from 5 whose x and A cells run from one digit to hi's width
    _D = random.Random(23).randrange(10**9_999, 10**10_000)

    # and a carry: x steps from 10^10000 - 5, all nines but its last digit,
    # past 10^10000 to one digit more
    @pytest.mark.parametrize("lo, hi, step", [
        (_D, _D, 1), (_D, _D + 60, 7), (5, _D, _D // 4),
        (10**10_000 - 5, 10**10_000 + 20, 3),
    ], ids=["point", "stepped", "mixed", "carry"])
    def test_a_of_x_writes_the_int_str_bytes(self, monkeypatch, lo, hi, step):
        argv = ["analyze", "--plan", "A-of-x", "--lo", str(lo), "--hi", str(hi),
                "--step", str(step)]
        fast = _main_bytes(argv)
        assert fast[0] == 0 and len(fast[1].splitlines()) == (hi - lo) // step + 2
        with monkeypatch.context() as m:
            m.setattr(_bigint, "_BIG_DIGITS", 10**9)  # above every input: str()
            assert _main_bytes(argv) == fast

    def test_a_of_x_renders_wide_cells_by_to_decimal(self, monkeypatch):
        # the A cells; the first x is --lo, written back from the digits
        # parse_int kept, and each later x is an exact Decimal step from it,
        # so no x is converted
        rendered = []
        to_decimal = _bigint.to_decimal
        monkeypatch.setattr(
            _bigint, "to_decimal", lambda m: rendered.append(m) or to_decimal(m)
        )
        argv = ["analyze", "--plan", "A-of-x", "--lo", str(self._D), "--hi",
                str(self._D + 60), "--step", "7"]
        code, out, _ = _main_bytes(argv)
        assert code == 0
        cells = [c for row in out.splitlines()[1:] for c in row.split(",")]
        assert len(cells) == 18 and cells[0] == str(self._D)
        assert rendered == [int(c) for c in cells[1::2]]

    @pytest.mark.parametrize("argv", [
        ["--plan", "A-of-x", "--lo", "1", "--hi", "5000"],
        ["--plan", "R-of-x", "--lo", "1", "--hi", "5000"],
        ["--plan", "R-normalized", "--lo", f"1{0:01000}", "--hi", f"1{9999:01000}",
         "--grid", "--step", "97"],
    ], ids=["A-of-x", "R-of-x", "R-normalized-1e1000-grid"])
    def test_narrow_series_call_nothing_new(self, monkeypatch, argv):
        def no_render(n):
            raise AssertionError("wide-cell rendering reached")

        monkeypatch.setattr(analysis, "cell", no_render)
        monkeypatch.setattr(_bigint, "to_decimal", no_render)
        code, out, _ = _main_bytes(["analyze", *argv])
        assert code == 0 and out.count("\n") > 100


class TestParser:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "12abc"])
        assert exc.value.code == 2
        assert "argument n: invalid int value: '12abc'" in capsys.readouterr().err

    # int() also takes whitespace, '_', a sign and non-ASCII digits, short
    # or past the threshold where plain digits go to _bigint
    @pytest.mark.parametrize(
        "digits", ["182", "1" + "0" * _bigint._BIG_DIGITS], ids=["short", "long"]
    )
    @pytest.mark.parametrize("spell", [
        lambda d: " " + d,
        lambda d: d[:1] + "_" + d[1:],
        lambda d: "+" + d,
        lambda d: d.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    ], ids=["space", "underscore", "plus", "arabic-indic"])
    def test_int_syntax(self, capsys, digits, spell):
        assert run(capsys, "check", spell(digits)) == run(capsys, "check", digits)


# --------------------------------------------------------------------------
# rows streamed from the flock runs against the record lists
# --------------------------------------------------------------------------

def _listed(argv, fmt):
    """main's rows for argv in fmt as int tuples: value, width, length for
    text, all five record columns for json and csv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", fmt]) == 0
    text = out.getvalue()
    if fmt == "json":
        members = json.loads(text)["members"]
        return [tuple(int(m[c]) for c in cli._RECORD) for m in members]
    if fmt == "csv":
        header, *lines = text.splitlines()
        assert header == ",".join(cli._RECORD)
        return [tuple(map(int, line.split(","))) for line in lines]
    return [
        tuple(map(int, line.replace(" = ", " x ").split(" x ")))
        for line in text.splitlines()
    ]


def _assert_rows(argv, recs):
    expected = [(r.area, r.width, r.length, r.semiperimeter, r.semiperimeter)
                for r in recs]
    for fmt in ("json", "csv"):
        assert _listed(argv, fmt) == expected, (argv, fmt)
    assert _listed(argv, "text") == [row[:3] for row in expected], argv


@st.composite
def list_windows(draw):
    """A list window up to about 10^300, mostly near flock k's end floor(k^2/4).

    Windows start anywhere, start or stop at the flock's end, stop in the
    gap past flock k-1's end where no member is, or hold one point, a
    member or not.
    """
    k = draw(st.integers(2, 10**150))
    width = draw(st.integers(0, 3000))
    lo = draw(st.integers(1, 10**300))
    end = k * k // 4
    extent = (isqrt(k) - k % 2) // 2
    first = end - extent * (extent + k % 2)  # flock k's least member
    prev = (k - 1) ** 2 // 4  # flock k-1's end
    gap = draw(st.integers(prev + 1, first - 1)) if first - prev > 1 else end
    offset = draw(st.integers(0, extent))
    member = end - offset * (offset + k % 2)
    return draw(st.sampled_from([
        (lo, lo + width),
        (end, end + width),
        (max(1, end - width), end),
        (max(1, gap - width), gap),
        (gap, gap + width),
        (member, member),
        (gap, gap),  # not a member, once flock k has a gap before it
        (end + 1, end + 1 + width),
        (end + 1 + width, end),  # hi < lo: an empty window
    ]))


@settings(max_examples=100, deadline=None)
@given(list_windows())
def test_list_rows_match_enumerate_range(window):
    lo, hi = window
    count, below, runs = _flock_runs(lo, hi)
    walked = sum(len(widths) for _, widths, _ in runs)
    if hi < lo:
        assert count == walked == below == 0
        return
    recs = enumerate_range(lo, hi)
    # the members by the membership test alone, which does not walk flocks
    assert [r.area for r in recs] == [
        n for n in range(lo, hi + 1) if is_almost_square(n) is not None
    ]
    # the counts by count_le at the window's ends, which does not walk
    assert below == (count_le(lo - 1) if lo > 1 else 0)
    assert count == walked == len(recs) == count_le(hi) - below
    _assert_rows(["list", str(lo), str(hi)], recs)


@settings(deadline=None)
@given(st.integers(1, 10**6))
@example(1)  # the empty flock
@example(99**2)  # an odd square k = s^2, where count_at_square's own root is s - 1
def test_flock_rows_match_flock_members(k):
    recs = flock_members(k)
    assert len(recs) == ((isqrt(k) - k % 2) // 2 + 1 if k > 1 else 0)
    _assert_rows(["flock", str(k)], recs)


@pytest.mark.parametrize("argv, locates", [
    (["list", "170", "200"], 2),
    (["flock", "28"], 2),
    (["count", "12345"], 1),
    # the window's two ends and none per sample: A at a member is the count
    # below lo plus the sample's index
    (["analyze", "--plan", "R-normalized", "--lo", "170", "--hi", "200"], 2),
])
def test_each_window_end_is_located_once(monkeypatch, argv, locates):
    calls = []
    locate = core._locate

    def counted(n):
        calls.append(n)
        return locate(n)

    monkeypatch.setattr(core, "_locate", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(calls) == locates, calls


_E30000 = "1" + "0" * 30_000  # 10^30000, the square of 10^15000: a member


@pytest.mark.parametrize("argv, roots", [
    # a member and a floor take _locate's two roots, and test the flock's
    # extent by a square, (2o + k%2)^2 <= k, with no root of k
    (["check", "182"], 2),
    (["check", str(10**40)], 2),
    (["check", "190"], 2),  # a non-member needs no extent
    (["check", str(10**40 + 1)], 2),
    (["floor", "190"], 2),
    (["count", "12345"], 3),
    (["nth", "59"], 0),  # one cube root, of 3j, and no square root
    (["nth", str(10**40)], 0),
    # at 3*10^4 digits each root is one _bigint.sqrtrem, whose recursion
    # ends in one math.isqrt of at most _ROOT_BITS bits
    (["check", _E30000], 2),
    (["check", _E30000[:-1] + "1"], 2),  # 10^30000 + 1, past its flock's extent
    (["floor", _E30000[:-1] + "1"], 2),
    (["count", "7" * 30_000], 3),
    (["nth", "7" * 30_000], 0),  # _bigint.cbrtrem, which takes no square root
])
def test_roots_per_verb(monkeypatch, argv, roots):
    # every math.isqrt call, from core or from sqrtrem, is counted, so a wide
    # root that fell back to the quadratic builtin would show as a wide argument
    calls = []

    def counted(n):
        calls.append(n)
        return isqrt(n)

    monkeypatch.setattr(core, "isqrt", counted)
    monkeypatch.setattr(_bigint, "isqrt", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(calls) == roots, [n.bit_length() for n in calls]
    assert all(n.bit_length() <= _bigint._ROOT_BITS for n in calls), [
        n.bit_length() for n in calls
    ]


def test_nth_divides_nothing_as_wide_as_j(monkeypatch):
    # nth's cube root, its rank in its block and the rendering of its record
    # all divide by _bigint.divmod; none divides an int wider than about 2/3
    # of j, as the rank is about mu^2 for mu the cube root of 3j
    j = "7" * 30_000
    bits = _bigint.int_from_digits(j).bit_length()
    widths = []
    divide = _bigint.divmod

    def spied(a, b):
        widths.append(a.bit_length())
        return divide(a, b)

    monkeypatch.setattr(_bigint, "divmod", spied)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["nth", j]) == 0
    assert widths and max(widths) <= 2 * bits // 3 + 64, (bits, sorted(widths)[-3:])


@pytest.mark.parametrize("argv", [
    ["list", "1", "3000000"],
    ["pioneers", "100000"],
    ["analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "300000"],
])
def test_closed_pipe_exits_quietly(argv):
    # as `almost-squares ... | head -1`: the reader takes one line and closes
    # the pipe; the writer stops with SIGPIPE's exit status and no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "almost_squares", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this OS")
@pytest.mark.parametrize("argv", [["check", "182"], ["list", "1", "3000000"], ["-h"]],
                         ids=["point", "streaming", "help"])
def test_failed_write_exits_1_with_one_line(argv):
    # /dev/full refuses every write with ENOSPC.  Without PYTHONUNBUFFERED,
    # stdout is block-buffered as in a shell, so the help screen's write
    # fails at the flush and not inside argparse, which would drop the error
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "almost_squares", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (1, "almost-squares: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this OS")
@pytest.mark.parametrize("argv", [["-h"], ["check", "-h"]], ids=["help", "verb-help"])
def test_unbuffered_help_into_a_full_disk_exits_1(argv):
    # with PYTHONUNBUFFERED the help screen's write fails inside argparse,
    # whose own _print_message would swallow the error and exit 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONUNBUFFERED="1")
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "almost_squares", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (1, "almost-squares: No space left on device\n")


@pytest.mark.parametrize("k", [10**10 - 1, 10**10])
def test_flock_rows_match_flock_members_at_1e10(k):
    # an odd and an even flock of about 50,000 members each, values past
    # 2^64; csv alone, as every format renders the same cells
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["flock", str(k), "--format", "csv"]) == 0
    header = ",".join(cli._RECORD) + "\n"
    assert out.getvalue() == header + "".join(
        f"{r.area},{r.width},{r.length},{r.semiperimeter},{r.semiperimeter}\n"
        for r in flock_members(k)
    )


class _Writes:
    """A stdout that keeps each write, or, with keep=False, only their length."""

    def __init__(self, keep=True):
        self.writes = [] if keep else None
        self.size = 0

    def write(self, text):
        self.size += len(text)
        if self.writes is not None:
            self.writes.append(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)


def _member_bytes(recs, fmt):
    """The bytes list and flock write for the members recs in fmt, one row at a time."""
    rows = [(r.area, r.width, r.length, r.semiperimeter, r.semiperimeter) for r in recs]
    if fmt == "json":
        members = [dict(zip(cli._RECORD, map(str, row))) for row in rows]
        return json.dumps({"members": members}) + "\n"
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in [cli._RECORD, *rows])
    return "".join(f"{v} = {w} x {l}\n" for v, w, l, _, _ in rows)


_K = 25_000_000  # an even flock of 2501 members, more than a chunk of rows in any format
_END = _K * _K // 4  # its end; its members are _END - o*o for o <= 2500
_END_NEXT = (_K + 1) ** 2 // 4  # flock _K + 1's end; its members are _END_NEXT - o*(o + 1)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("big_digits", [None, 5], ids=["narrow", "wide"])
@pytest.mark.parametrize("argv, lo, hi", [
    (["flock", str(_K)], _END - 2500**2, _END),
    # from between offsets 2000 and 1999 of flock _K to just below offset
    # 1000 of flock _K + 1: 2000 and 1499 rows
    (["list", str(_END - 2000**2 + 1), str(_END_NEXT - 1000 * 1001 - 1)],
     _END - 2000**2 + 1, _END_NEXT - 1000 * 1001 - 1),
    (["list", str(_END + 1), str(_END + 1000)], _END + 1, _END + 1000),
], ids=["flock", "mid-run-window", "empty-window"])
def test_rows_across_chunk_joins(monkeypatch, argv, lo, hi, big_digits, fmt):
    # list and flock write each run's rows in chunks of whole rows; the bytes
    # must be those of the records, joined as if written one row at a time
    recs = enumerate_range(lo, hi)
    rendered = []

    def counted(*sides):
        rendered.append(sides)
        return _bigint.record_cells(*sides)

    if big_digits is not None:  # below the values' width: the record_cells path
        monkeypatch.setattr(_bigint, "_BIG_DIGITS", big_digits)
        monkeypatch.setattr(cli, "record_cells", counted)
    sink = _Writes()
    with contextlib.redirect_stdout(sink):
        assert main([*argv, "--format", fmt]) == 0
    # compared as a flag, as pytest's diff of two long strings takes minutes
    same = "".join(sink.writes) == _member_bytes(recs, fmt)
    assert same, (argv, fmt)
    assert len(rendered) == (len(recs) if big_digits else 0)
    if recs:  # the head with the first chunk, at least one more, and the tail
        assert len(recs) > 1000 and len(sink.writes) >= 3, len(sink.writes)


_TABLE_K = cli._TABLE_K  # the first flock past list's table of cells


def _end(k):
    return k * k // 4  # flock k's greatest member


def _assert_dense(argv, recs):
    # runs of flocks below _TABLE_K share chunks and take their width and
    # length cells from a table: the ints of each format, then its bytes
    _assert_rows(argv, recs)
    for fmt in ("text", "json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0
        same = out.getvalue() == _member_bytes(recs, fmt)  # a flag, as for long strings above
        assert same, (argv, fmt)


@pytest.mark.parametrize("lo, hi", [
    (1, 6),  # flocks 2 to 5; the squares 1 and 4 end a length slice at the table's base
    (4, 4),
    # the member closing flock 35, then flock 36, whose cells fit below the
    # table's top but start below its base
    (_end(35), _end(36)),
    (1, 100_000),  # about 630 flocks, refilling the table as the cells slide
    (777, 98_765),  # starts and stops between two members of a flock
    # the square closing flock _TABLE_K - 2 alone, then flock _TABLE_K - 1,
    # which refills the table, and flocks _TABLE_K and _TABLE_K + 1 past it
    (_end(_TABLE_K - 2), _end(_TABLE_K + 1)),
    # from offset 59 of flock _TABLE_K - 1 to offset 8 of flock _TABLE_K
    (_end(_TABLE_K - 1) - 60 * 61 + 1, _end(_TABLE_K) - 7 * 7 - 1),
])
def test_dense_list_rows_match_enumerate_range(lo, hi):
    _assert_dense(["list", str(lo), str(hi)], enumerate_range(lo, hi))


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 1000), st.integers(0, 10**5))
def test_dense_list_windows_from_a_low_start(lo, width):
    _assert_dense(["list", str(lo), str(lo + width)], enumerate_range(lo, lo + width))


@pytest.mark.parametrize("k", [_TABLE_K - 1, _TABLE_K])  # 128 and 129 members
def test_flock_rows_at_the_table_bound(k):
    _assert_dense(["flock", str(k)], flock_members(k))


@pytest.mark.usefixtures("no_int_digit_limit")
def test_wide_rows_are_written_a_chunk_at_a_time():
    # 3000 members of about 5000 digits, about 15 kB a row: one chunk of a
    # fixed 1024 rows would hold about 15 MB, so rows per chunk follow the
    # width of k.  The first main call in a process builds the cached parser,
    # so one warm-up call comes before the peak is taken.
    m = 10**2500
    lo, hi = m * m - 2999**2, m * m  # m^2 - j^2 for j <= 2999, the end of flock 2m
    with contextlib.redirect_stdout(_Writes(keep=False)):
        main(["list", "1", "2"])
    sink = _Writes(keep=False)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["list", str(lo), str(hi), "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 3000 * 15_000
    assert peak < 1 << 20, peak


_WIDE = "1" + "0" * 7000  # A-of-x cells past _bigint's 6000 digits
# m^2 - 199^2 = 10^7000 - 39601 for m = 10^3500: the last 200 members of
# flock 2m, m^2 - j^2 for j <= 199, rows of about 7000-digit cells
_WIDE_MEMBERS = "9" * 6995 + "60399"


@pytest.mark.parametrize("argv", [
    ["list", "1000000", "1450000", "--format", "json"],
    ["list", _WIDE_MEMBERS, _WIDE, "--format", "csv"],
    ["flock", "10000000000", "--format", "csv"],
    ["pioneers", "5000", "--format", "json"],
    ["analyze", "--plan", "R-of-x", "--lo", "1", "--hi", "20000"],  # the flock walk
    ["analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "20000"],  # a grid with A off the walk
    ["analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "100000000", "--step", "20000"],  # count_le
    ["analyze", "--plan", "A-of-x", "--lo", _WIDE, "--hi", _WIDE[:-3] + "200"],
    ["trigrid", "500"],
], ids=["list", "list-wide", "flock", "pioneers", "analyze-walk", "analyze-grid-walk",
        "analyze-grid-count", "analyze-wide", "trigrid"])
def test_every_streaming_verb_holds_under_a_quarter_of_its_output(argv):
    # a verb that streams holds a chunk of rows at most, so into a sink that
    # keeps only a length its peak stays a fraction of the bytes it writes;
    # one that held its rows, as text or as records, would pass them.  The
    # warm-up builds the cached parser and imports analysis first.
    with contextlib.redirect_stdout(_Writes(keep=False)):
        main(["trigrid", "2"])
    sink = _Writes(keep=False)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.size // 4, (peak, sink.size)


_DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


@pytest.mark.parametrize("argv, rows, demo", [
    (["analyze", "--plan", "R-normalized", "--lo", "1", "--hi", "5000"], 600,
     "remainder_series.csv"),
    (["analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "5000"], 5000, "count_series.csv"),
    (["analyze", "--plan", "R-of-x", "--grid", "--lo", str(10**40), "--hi", str(10**40 + 299)],
     300, None),
    (["pioneers", "3000", "--format", "json"], 3000, None),
    (["pioneers", "3000", "--format", "csv"], 3000, None),
], ids=["remainder", "a-of-x", "remainder-grid", "pioneers-json", "pioneers-csv"])
def test_rows_are_written_a_chunk_at_a_time(monkeypatch, argv, rows, demo):
    # unbuffered, each write is a syscall: rows go out joined into chunks of
    # at most about core._JOIN_BYTES, one write each, at least ten rows a
    # write for these, and the bytes are those of one row at a time
    sink = _Writes()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0
    text = "".join(sink.writes)
    if argv[-1] == "json":
        assert text.count('"index"') == rows
    else:
        assert text.count("\n") == rows + 1  # and the header
    assert len(sink.writes) <= rows // 10 + 2, len(sink.writes)
    assert max(map(len, sink.writes)) <= core._JOIN_BYTES
    if demo:
        assert text == (_DEMO_OUTPUT / demo).read_text(encoding="ascii")
    monkeypatch.setattr(core, "_JOIN_BYTES", 1)  # one row a write, as before the chunks
    one_by_one = _Writes()
    with contextlib.redirect_stdout(one_by_one):
        assert main(argv) == 0
    assert len(one_by_one.writes) >= rows
    assert "".join(one_by_one.writes) == text


# --------------------------------------------------------------------------
# fuzzed argv
# --------------------------------------------------------------------------

# mostly positive, so that most argvs reach the verb instead of its refusal
INTS = st.integers(1, 10**60) | st.integers(-(10**60), 10**60)


@st.composite
def argvs(draw):
    """An argv for any verb; work stays small (narrow windows, few rows)."""
    verb = draw(st.sampled_from(
        ["check", "floor", "count", "nth", "list", "flock", "pioneers",
         "analyze", "trigrid", "oracle-verify"]
    ))
    fmt = draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"],
                                ["--format", "csv"]]))
    if verb in ("check", "floor", "count", "nth"):
        args = [draw(INTS), *fmt]
    elif verb == "list":
        lo = draw(INTS)
        args = [lo, lo + draw(st.integers(-10, 1000)), *fmt]
    elif verb == "flock":
        # small flocks, and flocks above the row cap (refused in closed form)
        args = [draw(st.integers(-10, 10**6) | st.integers(10**15, 10**60)), *fmt]
    elif verb == "pioneers":
        args = [draw(st.integers(-10, 100)), *fmt]
    elif verb == "analyze":
        lo = draw(INTS)
        plan = draw(st.sampled_from(["A-of-x", "R-of-x", "R-normalized"]))
        args = ["--plan", plan, "--lo", lo, "--hi", lo + draw(st.integers(-10, 300)),
                "--step", draw(st.integers(-1, 50))]
        args += draw(st.sampled_from([[], ["--grid"]]))
    elif verb == "trigrid":
        args = [draw(st.integers(-5, 40))]
    else:
        args = ["--limit", draw(st.integers(-5, 2000))]
    argv = [verb, *map(str, args)]
    if draw(st.integers(0, 3)) == 0:  # a token argparse must refuse
        junk = draw(st.sampled_from(["x1", "--bogus", "1.5", ""]))
        argv.insert(draw(st.integers(1, len(argv))), junk)
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse refusing the argv
            code = stop.code
    assert time.perf_counter() - t0 < 5.0, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# --------------------------------------------------------------------------
# one parser per process, one row template per call
# --------------------------------------------------------------------------

def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


# argparse refusals between good argvs, a flag then its absence, and the
# defaults of trigrid's size and oracle-verify's --limit after explicit values
PARSER_SEQUENCE = [
    ["list", "170", "x1"],
    ["analyze", "--plan", "R-of-x", "--lo", "1", "--hi", "30", "--step", "7", "--grid"],
    ["analyze", "--plan", "R-of-x", "--lo", "1", "--hi", "30"],
    ["check", "--bogus", "182"],
    ["trigrid", "5"],
    ["trigrid"],
    ["count", "1.5"],
    ["oracle-verify", "--limit", "50"],
    ["oracle-verify"],
    [],
    ["check", "182", "--format", "json"],
    ["check", "182"],
]


@settings(max_examples=40, deadline=None)
@given(st.lists(argvs(), min_size=2, max_size=8))
@example(PARSER_SEQUENCE)
def test_reused_parser_answers_as_a_fresh_one(argv_list):
    reused = [_outcome(argv) for argv in argv_list]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parser", cli.build_parser)  # a new parser on every call
        fresh = [_outcome(argv) for argv in argv_list]
    for argv, got, want in zip(argv_list, reused, fresh):
        assert got == want, argv


def test_main_builds_one_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)  # a verb's subparser is "almost-squares <verb>"

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        for argv in PARSER_SEQUENCE[:8] * 3:
            _outcome(argv)
        assert built.count("almost-squares") == 1
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert built.count("almost-squares") == 3
    finally:
        cli._parser.cache_clear()  # the next main builds a plain parser


# --------------------------------------------------------------------------
# the table parse: argparse's fields, or None to leave the argv to argparse
# --------------------------------------------------------------------------

# tokens that argparse reads as help, an end of options, an abbreviation, an
# attached value or a negative number, and positionals that int() may or may
# not take
TRICKY_TOKENS = ["-h", "--help", "--", "--format=csv", "--form", "--lo=5", "-5", "-", "",
                 " 7 ", "+5", "1_000", "\u0663"]


@st.composite
def edited_argvs(draw):
    """An argvs() argv with tricky tokens inserted, tokens deleted or options edited.

    An option may be repeated, or left without its value; deleting an
    option or a positional leaves a required argument missing.
    """
    argv = draw(argvs())
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.integers(0, len(argv)))
        options = [i for i, token in enumerate(argv) if token.startswith("--")]
        edit = draw(st.sampled_from(["insert", "delete", "repeat", "drop a value"]))
        if edit == "insert":
            argv.insert(where, draw(st.sampled_from(TRICKY_TOKENS)))
        elif edit == "delete" and where < len(argv):
            del argv[where]
        elif options:
            i = draw(st.sampled_from(options))
            if edit == "repeat":
                argv[where:where] = argv[i:i + 2]  # the option and its value, if any
            else:
                del argv[i + 1:i + 2]
    return argv


def _argparse_fields(argv):
    """vars() of a new parser's namespace for argv, or None for a screen or a refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(edited_argvs())
@example(["list", "1", "--format", "csv", "9"])
@example(["analyze", "--grid", "--hi", "2", "--plan", "R-of-x", "--lo", "1"])
@example(["trigrid"])
@example(["check", "182", "--format", "json", "--format", "csv"])
@example(["check", "--format"])
@example(["oracle-verify", "--limit"])
@example(["check", "1", "--format", "xml"])
@example(["analyze", "--lo", "1", "--hi", "2"])
@example(["trigrid", "-5"])
def test_table_parse_answers_as_argparse(argv):
    parsed = cli._table_parse(argv)
    if parsed is not None:
        assert vars(parsed) == _argparse_fields(argv), argv


@settings(max_examples=100, deadline=None)
@given(edited_argvs())
def test_main_answers_alike_without_the_table_parse(argv):
    with_table = _outcome(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_table_parse", lambda argv: None)  # argparse parses every argv
        assert _outcome(argv) == with_table, argv


def _no_parser():
    raise RuntimeError("argparse was asked to parse a well-formed argv")


# one argv of each shape the benchmark's workloads run, all well-formed
BENCHMARK_SHAPES = [
    ["check", "182", "--format", "json"],
    ["count", "999999999999999999", "--format", "csv"],
    ["floor", "123456789012345678", "--format", "text"],
    ["nth", "98765432109876543", "--format", "json"],
    ["list", "1000000000000", "1000000000999", "--format", "csv"],
    ["list", "17", "300016", "--format", "csv"],
    ["analyze", "--plan", "R-of-x", "--grid", "--lo", "10000000", "--hi", "10000900",
     "--step", "100"],
    ["analyze", "--plan", "R-normalized", "--lo", "1000000", "--hi", "1002000"],
    ["analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "400"],
    ["trigrid", "40"],
    ["oracle-verify", "--limit", "5000"],
]


@pytest.mark.parametrize("argv", BENCHMARK_SHAPES, ids=[argv[0] for argv in BENCHMARK_SHAPES])
def test_benchmark_argvs_skip_argparse(monkeypatch, argv):
    monkeypatch.setattr(cli, "_parser", _no_parser)
    code, out, err = _outcome(argv)
    assert (code, err) == (0, ""), argv
    assert out


@pytest.mark.parametrize("argv, fields", PARSED, ids=[" ".join(p[0]) for p in PARSED])
def test_table_parse_answers_every_pinned_namespace(monkeypatch, argv, fields):
    monkeypatch.setattr(cli, "_parser", _no_parser)
    assert vars(cli._table_parse(list(argv))) == {"command": argv[0], **fields}


# a fresh interpreter, without site, as pytest itself imports argparse
NO_ARGPARSE = (
    "import sys; from almost_squares.cli import main; "
    "main(['check', '182']); main(['list', '10', '20', '--format', 'csv']); "
    "assert 'argparse' not in sys.modules, 'argparse was imported'"
)


def test_well_formed_calls_never_import_argparse():
    refusal = (
        "\ntry:\n    main(['check', 'x'])\nexcept SystemExit as stop:\n"
        "    assert 'argparse' in sys.modules and stop.code == 2\n"
        "else:\n    raise AssertionError('check x was not refused')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), COLUMNS="80")
    done = subprocess.run([sys.executable, "-S", "-c", NO_ARGPARSE + refusal],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "182 is an almost-square: 13 x 14 (semiperimeter 27, flock 27)\n"
        "value,width,length,semiperimeter,flock\n"
        "12,3,4,7,7\n15,3,5,8,8\n16,4,4,8,8\n18,3,6,9,9\n20,4,5,9,9\n"
    )
    assert done.stderr == (
        CHECK_USAGE + "almost-squares check: error: argument n: invalid int value: 'x'\n"
    )


def _record_cells(rec):
    return {"value": rec.area, "width": rec.width, "length": rec.length,
            "semiperimeter": rec.semiperimeter, "flock": rec.semiperimeter}


def _pioneer_cells(j):
    width, length = triangular(j + 1), triangular(j + 2)
    return {"index": j, "value": width * length, "width": width, "length": length,
            "flock": (j + 1) ** 2}


def _json_answer(verb, args):
    """The answer of ``verb`` as an object of ints and bools, from the core alone.

    Raises ValueError where the CLI refuses the request.
    """
    if verb == "check":
        rec = floor_almost_square(args[0])
        member = rec.area == args[0]
        return {"n": args[0], "member": member, **(_record_cells(rec) if member else {})}
    if verb == "floor":
        return _record_cells(floor_almost_square(args[0]))
    if verb == "count":
        return {"n": args[0], "count": count_le(args[0])}
    if verb == "nth":
        return _record_cells(nth(args[0]))
    if verb == "list":
        return {"members": list(map(_record_cells, enumerate_range(*args)))}
    if verb == "flock":
        return {"members": list(map(_record_cells, flock_members(args[0])))}
    if args[0] < 1:
        raise ValueError("count must be >= 1")
    return {"pioneers": [_pioneer_cells(j) for j in range(1, args[0] + 1)]}


def _json_cells(obj):
    """obj with every int cell, but not a bool, as its decimal string."""
    if isinstance(obj, dict):
        return {c: _json_cells(v) for c, v in obj.items()}
    if isinstance(obj, list):
        return list(map(_json_cells, obj))
    return obj if isinstance(obj, bool) else str(obj)


@st.composite
def json_requests(draw):
    """A json verb and its int arguments: negative, members and non-members, and
    windows that are empty, hold one point or cross flocks."""
    verb = draw(st.sampled_from(["check", "floor", "count", "nth", "list", "flock", "pioneers"]))
    n = draw(st.integers(-(10**40), 10**40) | st.integers(1, 10**40).map(lambda j: nth(j).area))
    if verb == "list":
        return verb, [n, n + draw(st.integers(-5, 300))]
    if verb == "flock":
        return verb, [draw(st.integers(-5, 10**6))]
    if verb == "pioneers":
        return verb, [draw(st.integers(-5, 40))]
    return verb, [n]


@settings(max_examples=300, deadline=None)
@given(json_requests())
@example(("check", [182]))
@example(("check", [190]))
@example(("list", [5, 5]))
@example(("flock", [1]))
def test_json_rows_render_as_json_dumps(request):
    verb, args = request
    code, out, _ = _outcome([verb, *map(str, args), "--format", "json"])
    try:
        want = _json_cells(_json_answer(verb, args))
    except ValueError:
        assert (code, out) == (2, "")
        return
    assert code == 0
    assert json.loads(out) == want
    # compared as a flag, as pytest's diff of two long one-line strings takes minutes
    same = out == json.dumps(want) + "\n"
    assert same, (verb, args, out[:300])


# --------------------------------------------------------------------------
# output matrix
# --------------------------------------------------------------------------

S = 3**628  # a 300-digit square, so a member; S + 1 is not

# (argv, exit code, stdout, stderr) for every verb but analyze, trigrid and
# oracle-verify, in all three formats: members and non-members, 0, a
# negative n, 300 digits, empty results, a swapped window and the cap
# refusals.  The bytes are the output contract that README's CLI table
# describes.
OUTPUT_MATRIX = [
    (
        ("check", "182"),
        0,
        "182 is an almost-square: 13 x 14 (semiperimeter 27, flock 27)\n",
        "",
    ),
    (
        ("check", "182", "--format", "json"),
        0,
        (
            '{"n": "182", "member": true, "value": "182", "width": "13", "length": "14"'
            ', "semiperimeter": "27", "flock": "27"}\n'
        ),
        "",
    ),
    (
        ("check", "182", "--format", "csv"),
        0,
        "n,member,width,length,semiperimeter\n182,1,13,14,27\n",
        "",
    ),
    (("check", "190"), 0, "190 is not an almost-square\n", ""),
    (("check", "190", "--format", "json"), 0, '{"n": "190", "member": false}\n', ""),
    (
        ("check", "190", "--format", "csv"),
        0,
        "n,member,width,length,semiperimeter\n190,0,,,\n",
        "",
    ),
    (
        ("check", "1"),
        0,
        "1 is an almost-square: 1 x 1 (semiperimeter 2, flock 2)\n",
        "",
    ),
    (
        ("check", "1", "--format", "json"),
        0,
        (
            '{"n": "1", "member": true, "value": "1", "width": "1", "length": "1", "sem'
            'iperimeter": "2", "flock": "2"}\n'
        ),
        "",
    ),
    (
        ("check", "1", "--format", "csv"),
        0,
        "n,member,width,length,semiperimeter\n1,1,1,1,2\n",
        "",
    ),
    (("check", "0"), 2, "", "almost-squares: n must be >= 1\n"),
    (("check", "0", "--format", "json"), 2, "", "almost-squares: n must be >= 1\n"),
    (("check", "0", "--format", "csv"), 2, "", "almost-squares: n must be >= 1\n"),
    (("check", "-3"), 2, "", "almost-squares: n must be >= 1\n"),
    (("check", "-3", "--format", "json"), 2, "", "almost-squares: n must be >= 1\n"),
    (("check", "-3", "--format", "csv"), 2, "", "almost-squares: n must be >= 1\n"),
    (
        ("check", str(S)),
        0,
        (
            "42869455157374046128907284769938501207428478110726879601255183296284571189"
            "87540465725915967777102409501569842971718570571459613587568955688612487480"
            "71196991531661519158084558865709211873476784795381454819216894414171505441"
            "86165433308429571386227871874197065738264734316763843026931455314493955230"
            "6961 is an almost-square: 654747700701377386126856657861679570529800895801"
            "42457318255913325894648406106558087677197823626938030281903131436254696896"
            "1704181923607153180171236969 x 6547477007013773861268566578616795705298008"
            "95801424573182559133258946484061065580876771978236269380302819031314362546"
            "968961704181923607153180171236969 (semiperimeter 1309495401402754772253713"
            "31572335914105960179160284914636511826651789296812213116175354395647253876"
            "0605638062628725093937923408363847214306360342473938, flock 13094954014027"
            "54772253713315723359141059601791602849146365118266517892968122131161753543"
            "956472538760605638062628725093937923408363847214306360342473938)\n"
        ),
        "",
    ),
    (
        ("check", str(S), "--format", "json"),
        0,
        (
            '{"n": "4286945515737404612890728476993850120742847811072687960125518329628'
            "45711898754046572591596777710240950156984297171857057145961358756895568861"
            "24874807119699153166151915808455886570921187347678479538145481921689441417"
            "15054418616543330842957138622787187419706573826473431676384302693145531449"
            '39552306961", "member": true, "value": "4286945515737404612890728476993850'
            "12074284781107268796012551832962845711898754046572591596777710240950156984"
            "29717185705714596135875689556886124874807119699153166151915808455886570921"
            "18734767847953814548192168944141715054418616543330842957138622787187419706"
            '57382647343167638430269314553144939552306961", "width": "65474770070137738'
            "61268566578616795705298008958014245731825591332589464840610655808767719782"
            '36269380302819031314362546968961704181923607153180171236969", "length": "6'
            "54747700701377386126856657861679570529800895801424573182559133258946484061"
            "06558087677197823626938030281903131436254696896170418192360715318017123696"
            '9", "semiperimeter": "1309495401402754772253713315723359141059601791602849'
            "14636511826651789296812213116175354395647253876060563806262872509393792340"
            '8363847214306360342473938", "flock": "130949540140275477225371331572335914'
            "10596017916028491463651182665178929681221311617535439564725387606056380626"
            '28725093937923408363847214306360342473938"}\n'
        ),
        "",
    ),
    (
        ("check", str(S), "--format", "csv"),
        0,
        (
            "n,member,width,length,semiperimeter\n4286945515737404612890728476993850120"
            "74284781107268796012551832962845711898754046572591596777710240950156984297"
            "17185705714596135875689556886124874807119699153166151915808455886570921187"
            "34767847953814548192168944141715054418616543330842957138622787187419706573"
            "82647343167638430269314553144939552306961,1,654747700701377386126856657861"
            "67957052980089580142457318255913325894648406106558087677197823626938030281"
            "9031314362546968961704181923607153180171236969,654747700701377386126856657"
            "86167957052980089580142457318255913325894648406106558087677197823626938030"
            "2819031314362546968961704181923607153180171236969,130949540140275477225371"
            "33157233591410596017916028491463651182665178929681221311617535439564725387"
            "60605638062628725093937923408363847214306360342473938\n"
        ),
        "",
    ),
    (
        ("check", str(S + 1)),
        0,
        (
            "42869455157374046128907284769938501207428478110726879601255183296284571189"
            "87540465725915967777102409501569842971718570571459613587568955688612487480"
            "71196991531661519158084558865709211873476784795381454819216894414171505441"
            "86165433308429571386227871874197065738264734316763843026931455314493955230"
            "6962 is not an almost-square\n"
        ),
        "",
    ),
    (
        ("check", str(S + 1), "--format", "json"),
        0,
        (
            '{"n": "4286945515737404612890728476993850120742847811072687960125518329628'
            "45711898754046572591596777710240950156984297171857057145961358756895568861"
            "24874807119699153166151915808455886570921187347678479538145481921689441417"
            "15054418616543330842957138622787187419706573826473431676384302693145531449"
            '39552306962", "member": false}\n'
        ),
        "",
    ),
    (
        ("check", str(S + 1), "--format", "csv"),
        0,
        (
            "n,member,width,length,semiperimeter\n4286945515737404612890728476993850120"
            "74284781107268796012551832962845711898754046572591596777710240950156984297"
            "17185705714596135875689556886124874807119699153166151915808455886570921187"
            "34767847953814548192168944141715054418616543330842957138622787187419706573"
            "82647343167638430269314553144939552306962,0,,,\n"
        ),
        "",
    ),
    (("floor", "190"), 0, "182 = 13 x 14 (semiperimeter 27, flock 27)\n", ""),
    (
        ("floor", "190", "--format", "json"),
        0,
        (
            '{"value": "182", "width": "13", "length": "14", "semiperimeter": "27", "fl'
            'ock": "27"}\n'
        ),
        "",
    ),
    (
        ("floor", "190", "--format", "csv"),
        0,
        "value,width,length,semiperimeter,flock\n182,13,14,27,27\n",
        "",
    ),
    (("floor", "1"), 0, "1 = 1 x 1 (semiperimeter 2, flock 2)\n", ""),
    (
        ("floor", "1", "--format", "json"),
        0,
        (
            '{"value": "1", "width": "1", "length": "1", "semiperimeter": "2", "flock":'
            ' "2"}\n'
        ),
        "",
    ),
    (
        ("floor", "1", "--format", "csv"),
        0,
        "value,width,length,semiperimeter,flock\n1,1,1,2,2\n",
        "",
    ),
    (("floor", "0"), 2, "", "almost-squares: n must be >= 1\n"),
    (("floor", "0", "--format", "json"), 2, "", "almost-squares: n must be >= 1\n"),
    (("floor", "0", "--format", "csv"), 2, "", "almost-squares: n must be >= 1\n"),
    (("floor", "-3"), 2, "", "almost-squares: n must be >= 1\n"),
    (("floor", "-3", "--format", "json"), 2, "", "almost-squares: n must be >= 1\n"),
    (("floor", "-3", "--format", "csv"), 2, "", "almost-squares: n must be >= 1\n"),
    (
        ("floor", str(S + 1)),
        0,
        (
            "42869455157374046128907284769938501207428478110726879601255183296284571189"
            "87540465725915967777102409501569842971718570571459613587568955688612487480"
            "71196991531661519158084558865709211873476784795381454819216894414171505441"
            "86165433308429571386227871874197065738264734316763843026931455314493955230"
            "6961 = 6547477007013773861268566578616795705298008958014245731825591332589"
            "46484061065580876771978236269380302819031314362546968961704181923607153180"
            "171236969 x 65474770070137738612685665786167957052980089580142457318255913"
            "32589464840610655808767719782362693803028190313143625469689617041819236071"
            "53180171236969 (semiperimeter 13094954014027547722537133157233591410596017"
            "91602849146365118266517892968122131161753543956472538760605638062628725093"
            "937923408363847214306360342473938, flock 130949540140275477225371331572335"
            "91410596017916028491463651182665178929681221311617535439564725387606056380"
            "62628725093937923408363847214306360342473938)\n"
        ),
        "",
    ),
    (
        ("floor", str(S + 1), "--format", "json"),
        0,
        (
            '{"value": "428694551573740461289072847699385012074284781107268796012551832'
            "96284571189875404657259159677771024095015698429717185705714596135875689556"
            "88612487480711969915316615191580845588657092118734767847953814548192168944"
            "14171505441861654333084295713862278718741970657382647343167638430269314553"
            '144939552306961", "width": "6547477007013773861268566578616795705298008958'
            "01424573182559133258946484061065580876771978236269380302819031314362546968"
            '961704181923607153180171236969", "length": "654747700701377386126856657861'
            "67957052980089580142457318255913325894648406106558087677197823626938030281"
            '9031314362546968961704181923607153180171236969", "semiperimeter": "1309495'
            "40140275477225371331572335914105960179160284914636511826651789296812213116"
            '1753543956472538760605638062628725093937923408363847214306360342473938", "'
            'flock": "13094954014027547722537133157233591410596017916028491463651182665'
            "17892968122131161753543956472538760605638062628725093937923408363847214306"
            '360342473938"}\n'
        ),
        "",
    ),
    (
        ("floor", str(S + 1), "--format", "csv"),
        0,
        (
            "value,width,length,semiperimeter,flock\n4286945515737404612890728476993850"
            "12074284781107268796012551832962845711898754046572591596777710240950156984"
            "29717185705714596135875689556886124874807119699153166151915808455886570921"
            "18734767847953814548192168944141715054418616543330842957138622787187419706"
            "57382647343167638430269314553144939552306961,65474770070137738612685665786"
            "16795705298008958014245731825591332589464840610655808767719782362693803028"
            "19031314362546968961704181923607153180171236969,65474770070137738612685665"
            "78616795705298008958014245731825591332589464840610655808767719782362693803"
            "02819031314362546968961704181923607153180171236969,13094954014027547722537"
            "13315723359141059601791602849146365118266517892968122131161753543956472538"
            "760605638062628725093937923408363847214306360342473938,1309495401402754772"
            "25371331572335914105960179160284914636511826651789296812213116175354395647"
            "2538760605638062628725093937923408363847214306360342473938\n"
        ),
        "",
    ),
    (("count", "200"), 0, "59\n", ""),
    (("count", "200", "--format", "json"), 0, '{"n": "200", "count": "59"}\n', ""),
    (("count", "200", "--format", "csv"), 0, "n,count\n200,59\n", ""),
    (("count", "0"), 2, "", "almost-squares: n must be >= 1\n"),
    (("count", "0", "--format", "json"), 2, "", "almost-squares: n must be >= 1\n"),
    (("count", "0", "--format", "csv"), 2, "", "almost-squares: n must be >= 1\n"),
    (("count", "-3"), 2, "", "almost-squares: n must be >= 1\n"),
    (("count", "-3", "--format", "json"), 2, "", "almost-squares: n must be >= 1\n"),
    (("count", "-3", "--format", "csv"), 2, "", "almost-squares: n must be >= 1\n"),
    (
        ("count", str(S + 1)),
        0,
        (
            "49949910194212638417810318605208962135750880720047913914997176616758270680"
            "39957087335514721379053980706455254132386306606219691259508711443065208563"
            "38436401476789989488277398452965305489987557782869079078460187739882779842"
            "569\n"
        ),
        "",
    ),
    (
        ("count", str(S + 1), "--format", "json"),
        0,
        (
            '{"n": "4286945515737404612890728476993850120742847811072687960125518329628'
            "45711898754046572591596777710240950156984297171857057145961358756895568861"
            "24874807119699153166151915808455886570921187347678479538145481921689441417"
            "15054418616543330842957138622787187419706573826473431676384302693145531449"
            '39552306962", "count": "49949910194212638417810318605208962135750880720047'
            "91391499717661675827068039957087335514721379053980706455254132386306606219"
            "69125950871144306520856338436401476789989488277398452965305489987557782869"
            '079078460187739882779842569"}\n'
        ),
        "",
    ),
    (
        ("count", str(S + 1), "--format", "csv"),
        0,
        (
            "n,count\n42869455157374046128907284769938501207428478110726879601255183296"
            "28457118987540465725915967777102409501569842971718570571459613587568955688"
            "61248748071196991531661519158084558865709211873476784795381454819216894414"
            "17150544186165433308429571386227871874197065738264734316763843026931455314"
            "4939552306962,499499101942126384178103186052089621357508807200479139149971"
            "76616758270680399570873355147213790539807064552541323863066062196912595087"
            "11443065208563384364014767899894882773984529653054899875577828690790784601"
            "87739882779842569\n"
        ),
        "",
    ),
    (("nth", "59"), 0, "196 = 14 x 14 (semiperimeter 28, flock 28)\n", ""),
    (
        ("nth", "59", "--format", "json"),
        0,
        (
            '{"value": "196", "width": "14", "length": "14", "semiperimeter": "28", "fl'
            'ock": "28"}\n'
        ),
        "",
    ),
    (
        ("nth", "59", "--format", "csv"),
        0,
        "value,width,length,semiperimeter,flock\n196,14,14,28,28\n",
        "",
    ),
    (("nth", "1"), 0, "1 = 1 x 1 (semiperimeter 2, flock 2)\n", ""),
    (
        ("nth", "1", "--format", "json"),
        0,
        (
            '{"value": "1", "width": "1", "length": "1", "semiperimeter": "2", "flock":'
            ' "2"}\n'
        ),
        "",
    ),
    (
        ("nth", "1", "--format", "csv"),
        0,
        "value,width,length,semiperimeter,flock\n1,1,1,2,2\n",
        "",
    ),
    (("nth", "0"), 2, "", "almost-squares: index must be >= 1\n"),
    (("nth", "0", "--format", "json"), 2, "", "almost-squares: index must be >= 1\n"),
    (("nth", "0", "--format", "csv"), 2, "", "almost-squares: index must be >= 1\n"),
    (("nth", "-3"), 2, "", "almost-squares: index must be >= 1\n"),
    (("nth", "-3", "--format", "json"), 2, "", "almost-squares: index must be >= 1\n"),
    (("nth", "-3", "--format", "csv"), 2, "", "almost-squares: index must be >= 1\n"),
    (
        ("list", "1", "20"),
        0,
        (
            "1 = 1 x 1\n2 = 1 x 2\n3 = 1 x 3\n4 = 2 x 2\n6 = 2 x 3\n8 = 2 x 4\n9 = 3 x "
            "3\n12 = 3 x 4\n15 = 3 x 5\n16 = 4 x 4\n18 = 3 x 6\n20 = 4 x 5\n"
        ),
        "",
    ),
    (
        ("list", "1", "20", "--format", "json"),
        0,
        (
            '{"members": [{"value": "1", "width": "1", "length": "1", "semiperimeter": '
            '"2", "flock": "2"}, {"value": "2", "width": "1", "length": "2", "semiperim'
            'eter": "3", "flock": "3"}, {"value": "3", "width": "1", "length": "3", "se'
            'miperimeter": "4", "flock": "4"}, {"value": "4", "width": "2", "length": "'
            '2", "semiperimeter": "4", "flock": "4"}, {"value": "6", "width": "2", "len'
            'gth": "3", "semiperimeter": "5", "flock": "5"}, {"value": "8", "width": "2'
            '", "length": "4", "semiperimeter": "6", "flock": "6"}, {"value": "9", "wid'
            'th": "3", "length": "3", "semiperimeter": "6", "flock": "6"}, {"value": "1'
            '2", "width": "3", "length": "4", "semiperimeter": "7", "flock": "7"}, {"va'
            'lue": "15", "width": "3", "length": "5", "semiperimeter": "8", "flock": "8'
            '"}, {"value": "16", "width": "4", "length": "4", "semiperimeter": "8", "fl'
            'ock": "8"}, {"value": "18", "width": "3", "length": "6", "semiperimeter": '
            '"9", "flock": "9"}, {"value": "20", "width": "4", "length": "5", "semiperi'
            'meter": "9", "flock": "9"}]}\n'
        ),
        "",
    ),
    (
        ("list", "1", "20", "--format", "csv"),
        0,
        (
            "value,width,length,semiperimeter,flock\n1,1,1,2,2\n2,1,2,3,3\n3,1,3,4,4\n4"
            ",2,2,4,4\n6,2,3,5,5\n8,2,4,6,6\n9,3,3,6,6\n12,3,4,7,7\n15,3,5,8,8\n16,4,4,"
            "8,8\n18,3,6,9,9\n20,4,5,9,9\n"
        ),
        "",
    ),
    (("list", "5", "5"), 0, "", ""),
    (("list", "5", "5", "--format", "json"), 0, '{"members": []}\n', ""),
    (
        ("list", "5", "5", "--format", "csv"),
        0,
        "value,width,length,semiperimeter,flock\n",
        "",
    ),
    (("list", "20", "1"), 2, "", "almost-squares: lo must not exceed hi\n"),
    (
        ("list", "20", "1", "--format", "json"),
        2,
        "",
        "almost-squares: lo must not exceed hi\n",
    ),
    (
        ("list", "20", "1", "--format", "csv"),
        2,
        "",
        "almost-squares: lo must not exceed hi\n",
    ),
    (("list", "0", "5"), 2, "", "almost-squares: lo must be >= 1\n"),
    (
        ("list", "0", "5", "--format", "json"),
        2,
        "",
        "almost-squares: lo must be >= 1\n",
    ),
    (("list", "0", "5", "--format", "csv"), 2, "", "almost-squares: lo must be >= 1\n"),
    (("list", "-3", "-1"), 2, "", "almost-squares: lo must be >= 1\n"),
    (
        ("list", "-3", "-1", "--format", "json"),
        2,
        "",
        "almost-squares: lo must be >= 1\n",
    ),
    (
        ("list", "-3", "-1", "--format", "csv"),
        2,
        "",
        "almost-squares: lo must be >= 1\n",
    ),
    (
        ("list", "170", "200"),
        0,
        (
            "176 = 11 x 16\n180 = 12 x 15\n182 = 13 x 14\n192 = 12 x 16\n195 = 13 x 15"
            "\n196 = 14 x 14\n"
        ),
        "",
    ),
    (
        ("list", "170", "200", "--format", "json"),
        0,
        (
            '{"members": [{"value": "176", "width": "11", "length": "16", "semiperimete'
            'r": "27", "flock": "27"}, {"value": "180", "width": "12", "length": "15", '
            '"semiperimeter": "27", "flock": "27"}, {"value": "182", "width": "13", "le'
            'ngth": "14", "semiperimeter": "27", "flock": "27"}, {"value": "192", "widt'
            'h": "12", "length": "16", "semiperimeter": "28", "flock": "28"}, {"value":'
            ' "195", "width": "13", "length": "15", "semiperimeter": "28", "flock": "28'
            '"}, {"value": "196", "width": "14", "length": "14", "semiperimeter": "28",'
            ' "flock": "28"}]}\n'
        ),
        "",
    ),
    (
        ("list", "170", "200", "--format", "csv"),
        0,
        (
            "value,width,length,semiperimeter,flock\n176,11,16,27,27\n180,12,15,27,27\n"
            "182,13,14,27,27\n192,12,16,28,28\n195,13,15,28,28\n196,14,14,28,28\n"
        ),
        "",
    ),
    (("flock", "1"), 0, "", ""),
    (("flock", "1", "--format", "json"), 0, '{"members": []}\n', ""),
    (
        ("flock", "1", "--format", "csv"),
        0,
        "value,width,length,semiperimeter,flock\n",
        "",
    ),
    (("flock", "16"), 0, "60 = 6 x 10\n63 = 7 x 9\n64 = 8 x 8\n", ""),
    (
        ("flock", "16", "--format", "json"),
        0,
        (
            '{"members": [{"value": "60", "width": "6", "length": "10", "semiperimeter"'
            ': "16", "flock": "16"}, {"value": "63", "width": "7", "length": "9", "semi'
            'perimeter": "16", "flock": "16"}, {"value": "64", "width": "8", "length": '
            '"8", "semiperimeter": "16", "flock": "16"}]}\n'
        ),
        "",
    ),
    (
        ("flock", "16", "--format", "csv"),
        0,
        (
            "value,width,length,semiperimeter,flock\n60,6,10,16,16\n63,7,9,16,16\n64,8,"
            "8,16,16\n"
        ),
        "",
    ),
    (("flock", "0"), 2, "", "almost-squares: flock index k must be >= 1\n"),
    (
        ("flock", "0", "--format", "json"),
        2,
        "",
        "almost-squares: flock index k must be >= 1\n",
    ),
    (
        ("flock", "0", "--format", "csv"),
        2,
        "",
        "almost-squares: flock index k must be >= 1\n",
    ),
    (
        ("flock", "100000000000000000000000000000000"),
        2,
        "",
        (
            "almost-squares: flock 100000000000000000000000000000000 holds 500000000000"
            "0001 members, above the cap of 10000000\n"
        ),
    ),
    (
        ("flock", "100000000000000000000000000000000", "--format", "json"),
        2,
        "",
        (
            "almost-squares: flock 100000000000000000000000000000000 holds 500000000000"
            "0001 members, above the cap of 10000000\n"
        ),
    ),
    (
        ("flock", "100000000000000000000000000000000", "--format", "csv"),
        2,
        "",
        (
            "almost-squares: flock 100000000000000000000000000000000 holds 500000000000"
            "0001 members, above the cap of 10000000\n"
        ),
    ),
    (
        ("pioneers", "4"),
        0,
        (
            "1: 3 = 1 x 3 (flock 4)\n2: 18 = 3 x 6 (flock 9)\n3: 60 = 6 x 10 (flock 16)"
            "\n4: 150 = 10 x 15 (flock 25)\n"
        ),
        "",
    ),
    (
        ("pioneers", "4", "--format", "json"),
        0,
        (
            '{"pioneers": [{"index": "1", "value": "3", "width": "1", "length": "3", "f'
            'lock": "4"}, {"index": "2", "value": "18", "width": "3", "length": "6", "f'
            'lock": "9"}, {"index": "3", "value": "60", "width": "6", "length": "10", "'
            'flock": "16"}, {"index": "4", "value": "150", "width": "10", "length": "15'
            '", "flock": "25"}]}\n'
        ),
        "",
    ),
    (
        ("pioneers", "4", "--format", "csv"),
        0,
        (
            "index,value,width,length,flock\n1,3,1,3,4\n2,18,3,6,9\n3,60,6,10,16\n4,150"
            ",10,15,25\n"
        ),
        "",
    ),
    (("pioneers", "0"), 2, "", "almost-squares: count must be >= 1\n"),
    (
        ("pioneers", "0", "--format", "json"),
        2,
        "",
        "almost-squares: count must be >= 1\n",
    ),
    (
        ("pioneers", "0", "--format", "csv"),
        2,
        "",
        "almost-squares: count must be >= 1\n",
    ),
    (
        ("pioneers", "20000000"),
        2,
        "",
        "almost-squares: 20000000 pioneers requested, above the cap of 10000000\n",
    ),
    (
        ("pioneers", "20000000", "--format", "json"),
        2,
        "",
        "almost-squares: 20000000 pioneers requested, above the cap of 10000000\n",
    ),
    (
        ("pioneers", "20000000", "--format", "csv"),
        2,
        "",
        "almost-squares: 20000000 pioneers requested, above the cap of 10000000\n",
    ),
]


def test_output_matrix_is_pinned(capsys):
    for argv, code, out, err in OUTPUT_MATRIX:
        assert run(capsys, *argv) == (code, out, err), argv
