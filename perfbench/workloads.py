"""The four benchmark workloads: seeded inputs and the checks on their answers.

Each workload is a list of blocks.  A block holds every stratum of the
workload once, in seeded order, so any whole number of blocks has the same
mix; the runner stops only at a block boundary.  Within a stratum, sizes
(digit counts, window widths and magnitudes, limits, row counts) are
placed on a log scale over a band of about three to one or wider, so the
costs around the median and the p90 tail of a run are spread out rather
than bunched.  Each stratum takes its positions in the band from its own
seeded low-discrepancy sequence (``Spread``), so a run of a few blocks
covers every band evenly and its median does not rest on where a handful
of independent draws happened to fall.

An operation is one ``cli.main(argv)`` call.  Its check gets the exit
code and captured output, raises on a wrong answer, and returns the
number of rows the operation produced.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from reference import (
    Rect,
    Reference,
    ceil_sqrt,
    even_extent,
    formula_count,
    formula_members,
    next_member,
    odd_extent,
    rank,
    remainder_row,
)

FORMATS = ("text", "json", "csv")
_DIGITS = "0123456789"


class Wrong(Exception):
    """The program's answer did not match the reference."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[Reference | None, int, str, str], int]


@dataclass(frozen=True)
class Workload:
    imports: tuple[str, ...]  # modules the workload's verbs load; part of setup_s
    needs_oracle: bool
    pool_blocks: int  # distinct blocks generated; a run ends early if it uses them all
    make_blocks: Callable[..., list[list[Op]]]  # (rng, root, n) -> n blocks
    probes: Callable[..., list[Op]] | None = None  # known-defect inputs, run untimed
    bigint_kernel: bool = False  # whether speed.kernel takes big-integer roots too


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------

def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _expect_ok(rc: int, err: str) -> None:
    _expect(rc == 0, f"exit code {rc}, stderr {err[:200]!r}")
    _expect(err == "", f"unexpected stderr {err[:200]!r}")


def _canonical_int(s: str) -> int:
    _expect(s.isascii() and s.isdigit() and (s == "0" or s[0] != "0"),
            f"not a canonical decimal: {s[:40]!r}")
    return int(s)


def _fields(rect: Rect) -> tuple[str, ...]:
    w, l = rect
    return str(w * l), str(w), str(l), str(w + l), str(w + l)


RECORD_KEYS = ("value", "width", "length", "semiperimeter", "flock")
RECORD_HEADER = ",".join(RECORD_KEYS)
_TEXT_RECORD = re.compile(r"(\d+) = (\d+) x (\d+) \(semiperimeter (\d+), flock (\d+)\)")


def _lines(out: str) -> list[str]:
    _expect(out.endswith("\n"), "output does not end with a newline")
    return out[:-1].split("\n")


def _json_record(d: dict) -> tuple[str, ...]:
    _expect(sorted(d) == sorted(RECORD_KEYS), f"record keys {sorted(d)}")
    return tuple(d[k] for k in RECORD_KEYS)


def _one_record(out: str, fmt: str) -> tuple[str, ...]:
    if fmt == "json":
        return _json_record(json.loads(out))
    lines = _lines(out)
    if fmt == "csv":
        _expect(len(lines) == 2 and lines[0] == RECORD_HEADER, "bad csv record")
        return tuple(lines[1].split(","))
    _expect(len(lines) == 1, "text record is not one line")
    match = _TEXT_RECORD.fullmatch(lines[0])
    _expect(match is not None, f"bad text record {lines[0][:80]!r}")
    return match.groups()


def _csv_records(out: str) -> list[tuple[str, ...]]:
    lines = _lines(out)
    _expect(lines[0] == RECORD_HEADER, "bad csv header")
    return [tuple(line.split(",")) for line in lines[1:]]


class Spread:
    """Seeded positions in [0, 1), one sequence per stratum key.

    Each sequence starts at a random point and steps by the golden ratio
    modulo 1, so any run of consecutive positions covers [0, 1) about
    evenly, wherever it starts.
    """

    STEP = (5**0.5 - 1) / 2

    def __init__(self, rng) -> None:
        self.rng = rng
        self.last: dict = {}

    def __call__(self, key) -> float:
        u = self.last.get(key)
        u = self.rng.random() if u is None else (u + self.STEP) % 1
        self.last[key] = u
        return u


def _log_size(u: float, lo: int, hi: int, part: int = 0, parts: int = 1) -> int:
    """The size at position u in [lo, hi] on a log scale, within the part-th of `parts` slices."""
    return round(lo * (hi / lo) ** ((part + u) / parts))


def _random_digits(rng, d: int) -> str:
    return str(rng.randint(1, 9)) + "".join(rng.choices(_DIGITS, k=d - 1))


def _member_near(rng, x: int) -> Rect:
    """A member of a flock next to x, at a seeded side and offset."""
    m = ceil_sqrt(x)
    if m >= 2 and rng.random() < 0.5:
        a = rng.randint(0, odd_extent(m))
        return m - a - 1, m + a
    b = rng.randint(0, even_extent(m))
    return m - b, m + b


# --------------------------------------------------------------------------
# point-queries
# --------------------------------------------------------------------------

# digit classes about 10^3, 10^4 and 3*10^4 digits, each a log-uniform band
# around that size; None draws 1..18 digits per input
POINT_CLASSES = (None, (500, 2_000), (5_000, 20_000), (25_000, 36_000))
POINT_VERBS = ("check", "count", "floor", "nth")


def _check_check(nstr, fmt, ref, rc, out, err):
    _expect_ok(rc, err)
    w, l = ref.floor(int(nstr))
    member = w * l == int(nstr)
    if fmt == "json":
        want = {"n": nstr, "member": member}
        if member:
            want.update(zip(RECORD_KEYS, _fields((w, l))))
        _expect(json.loads(out) == want, "check json differs")
    elif fmt == "csv":
        row = f"{nstr},1,{w},{l},{w + l}" if member else f"{nstr},0,,,"
        _expect(out == f"n,member,width,length,semiperimeter\n{row}\n", "check csv differs")
    elif member:
        want = (f"{nstr} is an almost-square: {w} x {l} "
                f"(semiperimeter {w + l}, flock {w + l})\n")
        _expect(out == want, "check text differs")
    else:
        _expect(out == f"{nstr} is not an almost-square\n", "check text differs")
    return 1


def _check_count(nstr, fmt, ref, rc, out, err):
    _expect_ok(rc, err)
    count = str(ref.count(int(nstr)))
    if fmt == "json":
        _expect(json.loads(out) == {"n": nstr, "count": count}, "count json differs")
    elif fmt == "csv":
        _expect(out == f"n,count\n{nstr},{count}\n", "count csv differs")
    else:
        _expect(out == f"{count}\n", "count text differs")
    return 1


def _check_floor(nstr, fmt, ref, rc, out, err):
    _expect_ok(rc, err)
    _expect(_one_record(out, fmt) == _fields(ref.floor(int(nstr))), "floor differs")
    return 1


def _check_nth(jstr, fmt, ref, rc, out, err):
    _expect_ok(rc, err)
    j = int(jstr)
    got = _one_record(out, fmt)
    known = ref.nth(j)
    if known is not None:
        _expect(got == _fields(known), "nth differs from the oracle")
        return 1
    value, w, l, k, flock = map(_canonical_int, got)
    _expect(value == w * l and k == flock == w + l, "nth record is inconsistent")
    _expect(rank(w, l) == j, f"nth returned a member of rank {rank(w, l)}")
    return 1


_POINT_CHECKS = {"check": _check_check, "count": _check_count,
                 "floor": _check_floor, "nth": _check_nth}


def _point_input(rng, verb: str, digits: int, member: bool) -> str:
    if not member:
        return _random_digits(rng, digits)
    if verb != "nth":
        w, l = _member_near(rng, int(_random_digits(rng, digits)))
        return str(w * l)
    # a member whose rank has about `digits` digits: ranks grow like x^(3/4)
    w, l = _member_near(rng, int(_random_digits(rng, max(1, round(digits * 4 / 3)))))
    return str(rank(w, l))


def _point_block(rng, spread: Spread, index: int) -> list[Op]:
    ops = []
    for digits in POINT_CLASSES:
        for verb in POINT_VERBS:
            for member in (0, 1):
                # from block to block each stratum takes the three formats in turn
                fmt = FORMATS[(index + len(ops)) % 3]
                d = (rng.randint(1, 18) if digits is None
                     else _log_size(spread((digits, verb, member)), *digits))
                arg = _point_input(rng, verb, d, bool(member))
                ops.append(Op([verb, arg, "--format", fmt],
                              partial(_POINT_CHECKS[verb], arg, fmt)))
    rng.shuffle(ops)
    return ops


def _point_blocks(rng, root: Path, n: int) -> list[list[Op]]:
    spread = Spread(rng)
    return [_point_block(rng, spread, i) for i in range(n)]


# --------------------------------------------------------------------------
# windows
# --------------------------------------------------------------------------

# Windows render as CSV, whose rows are what rows_per_s counts.  Each block
# takes DENSE_WINDOWS dense windows with widths in successive log slices of
# DENSE_WIDTHS, and one 1000-wide window in each log slice of 10^12..10^20.
DENSE_WINDOWS = 3
DENSE_WIDTHS = (3 * 10**5, 3 * 10**6)
SPARSE_MAGNITUDES = (10**12, 10**20)
SPARSE_WINDOWS = 5


def _check_list(lo, hi, ref, rc, out, err):
    _expect_ok(rc, err)
    want = [_fields(rect) for rect in ref.members(lo, hi)]
    got = _csv_records(out)
    _expect(len(got) == len(want), f"{len(got)} rows, expected {len(want)}")
    _expect(got == want, "listed members differ")
    return len(got)


def _windows_blocks(rng, root: Path, n: int) -> list[list[Op]]:
    spread = Spread(rng)
    blocks = []
    for _ in range(n):
        windows = []
        for j in range(DENSE_WINDOWS):
            lo = rng.randint(1, 1000)
            width = _log_size(spread(("dense", j)), *DENSE_WIDTHS, j, DENSE_WINDOWS)
            windows.append((lo, lo + width - 1))
        for j in range(SPARSE_WINDOWS):
            lo = _log_size(spread(("sparse", j)), *SPARSE_MAGNITUDES, j, SPARSE_WINDOWS)
            windows.append((lo, lo + 999))
        rng.shuffle(windows)
        blocks.append([Op(["list", str(lo), str(hi), "--format", "csv"],
                          partial(_check_list, lo, hi)) for lo, hi in windows])
    return blocks


# --------------------------------------------------------------------------
# series
# --------------------------------------------------------------------------

DEMO_PLANS = (
    (["analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "5000"], "count_series.csv"),
    (["analyze", "--plan", "R-normalized", "--lo", "1", "--hi", "5000"], "remainder_series.csv"),
    (["analyze", "--plan", "R-normalized", "--lo", "640000", "--hi", "643204"],
     "stutter_series.csv"),
    (["trigrid", "60"], "tri_grid.csv"),
)
MEMBER_WINDOW_EXPONENTS = (6, 8, 10, 12)  # enumeration cost grows with flock size
GRID_EXPONENTS = (6, 20, 40, 70, 100)
SERIES_ROWS = (100, 400)  # rows per seeded window, drawn log-uniformly
SERIES_HEADER = "x,A,R,R_norm,g,h"
_REL_TOL = 1e-9


def _check_demo(expected: str, ref, rc, out, err):
    _expect_ok(rc, err)
    _expect(out == expected, "demo plan output differs from demos/output")
    return out.count("\n") - 1


def _check_remainder_rows(xs: list[int], counts: list[int], out: str) -> int:
    lines = _lines(out)
    _expect(lines[0] == SERIES_HEADER, "bad series header")
    _expect(len(lines) - 1 == len(xs), f"{len(lines) - 1} rows, expected {len(xs)}")
    for line, x, a in zip(lines[1:], xs, counts):
        parts = line.split(",")
        _expect(len(parts) == 6 and parts[0] == str(x) and parts[1] == str(a),
                f"row for x={x} differs")
        for text, want in zip(parts[2:], remainder_row(x, a)):
            got = float(text)
            _expect(format(got, ".17g") == text, f"{text!r} is not at 17 digits")
            _expect(abs(got - want) <= _REL_TOL * max(1.0, abs(want)),
                    f"x={x}: {got} against reference {want}")
    return len(xs)


def _check_member_window(lo, hi, ref, rc, out, err):
    _expect_ok(rc, err)
    xs = [w * l for w, l in formula_members(lo, hi)]
    below = formula_count(lo - 1)
    return _check_remainder_rows(xs, [below + i + 1 for i in range(len(xs))], out)


def _check_grid(lo, hi, step, ref, rc, out, err):
    _expect_ok(rc, err)
    xs = list(range(lo, hi + 1, step))
    return _check_remainder_rows(xs, [formula_count(x) for x in xs], out)


def _grid_op(lo: int, step: int, rows: int) -> Op:
    hi = lo + (rows - 1) * step
    argv = ["analyze", "--plan", "R-of-x", "--grid", "--lo", str(lo), "--hi", str(hi),
            "--step", str(step)]
    return Op(argv, partial(_check_grid, lo, hi, step))


def _series_block(rng, spread: Spread, demos: list[Op]) -> list[Op]:
    block = list(demos)
    for e in MEMBER_WINDOW_EXPONENTS:
        # from a seeded member near 10^e to the member `rows` - 1 places later
        first = last = _member_near(rng, 10**e + rng.randrange(10**e // 10))
        for _ in range(_log_size(spread(("members", e)), *SERIES_ROWS) - 1):
            last = next_member(*last)
        lo, hi = first[0] * first[1], last[0] * last[1]
        argv = ["analyze", "--plan", "R-normalized", "--lo", str(lo), "--hi", str(hi)]
        block.append(Op(argv, partial(_check_member_window, lo, hi)))
    for e in GRID_EXPONENTS:
        block.append(_grid_op(10**e + rng.randrange(10**e // 10), rng.randint(1, 1000),
                              _log_size(spread(("grid", e)), *SERIES_ROWS)))
    rng.shuffle(block)
    return block


def _check_overflow_probe(lo, ref, rc, out, err):
    """Either the rows are right, or the CLI refuses with a one-line message."""
    if rc == 2:
        _expect(err.startswith("almost-squares: ") and err.count("\n") == 1,
                f"exit 2 without a one-line message: {err[:200]!r}")
        return 0
    return _check_grid(lo, lo, 1, ref, rc, out, err)


def _series_probes(rng) -> list[Op]:
    """Grid points above 10^308, where float(x) overflows inside analysis."""
    ops = []
    for _ in range(3):
        e = rng.randint(309, 400)
        lo = 10**e + rng.randrange(10**(e - 1))
        argv = ["analyze", "--plan", "R-of-x", "--grid", "--lo", str(lo), "--hi", str(lo)]
        ops.append(Op(argv, partial(_check_overflow_probe, lo)))
    return ops


def _series_blocks(rng, root: Path, n: int) -> list[list[Op]]:
    out_dir = root / "demos" / "output"
    demos = [Op(argv, partial(_check_demo, (out_dir / name).read_bytes().decode("ascii")))
             for argv, name in DEMO_PLANS]
    spread = Spread(rng)
    return [_series_block(rng, spread, demos) for _ in range(n)]


# --------------------------------------------------------------------------
# oracle-verify
# --------------------------------------------------------------------------

# per block one limit near the top of [2*10^4, 2*10^5], where the brute scan
# takes most of the time, and six that split [2*10^4, 8*10^4] evenly on a log
# scale, so that the median of a run rests on three dozen samples
ORACLE_LARGE = (150_000, 200_000)
ORACLE_SMALL = (20_000, 80_000, 6)
_ESTIMATE = re.compile(r"oracle scan estimate: ~\d+s for limit (\d+)\n")


def _check_oracle_verify(limit, ref, rc, out, err):
    _expect(rc == 0, f"exit code {rc}, stderr {err[:200]!r}")
    if err:
        match = _ESTIMATE.fullmatch(err)
        _expect(match is not None and int(match.group(1)) == limit,
                f"unexpected stderr {err[:200]!r}")
    want = (f"membership: {limit}/{limit} ok, 0 mismatches\n"
            f"counts:     {limit}/{limit} ok, 0 mismatches\n")
    _expect(out == want, f"oracle-verify output {out[:200]!r}")
    return limit


def _oracle_blocks(rng, root: Path, n: int) -> list[list[Op]]:
    lo, hi, parts = ORACLE_SMALL
    spread = Spread(rng)
    blocks = []
    for _ in range(n):
        limits = [_log_size(spread("large"), *ORACLE_LARGE)]
        limits += [_log_size(spread(j), lo, hi, j, parts) for j in range(parts)]
        rng.shuffle(limits)
        blocks.append([Op(["oracle-verify", "--limit", str(limit)],
                          partial(_check_oracle_verify, limit)) for limit in limits])
    return blocks


# --------------------------------------------------------------------------

CLI_ONLY = ("almost_squares.cli",)

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "point-queries": Workload(
        imports=CLI_ONLY, needs_oracle=True, pool_blocks=14,
        make_blocks=_point_blocks, bigint_kernel=True),
    "windows": Workload(
        imports=CLI_ONLY, needs_oracle=True, pool_blocks=40,
        make_blocks=_windows_blocks),
    "series": Workload(
        imports=CLI_ONLY + ("almost_squares.analysis",), needs_oracle=False, pool_blocks=120,
        make_blocks=_series_blocks, probes=_series_probes),
    "oracle-verify": Workload(
        imports=CLI_ONLY, needs_oracle=False, pool_blocks=16,
        make_blocks=_oracle_blocks),
}

