"""CLI behavior: verbs, formats, exit codes, and big-integer handling."""

import json
import time

import pytest

from almost_squares import cli
from almost_squares.cli import main
from almost_squares.core import count_le, enumerate_range
from reference_data import FIRST_59


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


class TestFlockVerb:
    def test_members(self, capsys):
        code, out, _ = run(capsys, "flock", "16")
        assert code == 0
        assert out.splitlines() == ["60 = 6 x 10", "63 = 7 x 9", "64 = 8 x 8"]

    def test_empty_first_flock(self, capsys):
        code, out, _ = run(capsys, "flock", "1")
        assert code == 0
        assert out == ""

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
        monkeypatch.setattr(cli, "_LIST_ROW_CAP", 5)
        code, out, _ = run(capsys, "pioneers", "5")
        assert code == 0
        assert len(out.splitlines()) == 5
        code, out, err = run(capsys, "pioneers", "6")
        assert code == 2
        assert out == ""
        assert "above the cap" in err and err.count("\n") == 1


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

    def test_row_cap(self, capsys):
        code, out, err = run(
            capsys,
            "analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "10000000",
            "--max-rows", "10",
        )
        assert code == 2
        assert out == ""
        assert "rows" in err

    def test_beyond_float_range_refused(self, capsys):
        big = str(10**310)
        code, out, err = run(
            capsys, "analyze", "--plan", "R-of-x", "--grid", "--lo", big, "--hi", big
        )
        assert code == 2
        assert out == ""
        assert err.startswith("almost-squares: ") and err.count("\n") == 1
        assert "float range" in err


class TestTrigrid:
    def test_default_header(self, capsys):
        code, out, _ = run(capsys, "trigrid", "6")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "m,n,is_member"
        assert len(lines) == 37


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
            _, out, _ = run(capsys, "count", str(rec.value))
            j = out.strip()
            _, out, _ = run(capsys, "nth", j)
            assert int(out.split(" = ")[0]) == rec.value


class TestParser:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "12abc"])
        assert exc.value.code == 2
