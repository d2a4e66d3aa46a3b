"""Command-line front door for almost-square queries.

Verbs: check, floor, count, nth, list, flock, pioneers, analyze,
trigrid, oracle-verify.  Integer arguments are parsed as
arbitrary-precision decimals (inputs of thousands of digits are fine),
and JSON output renders every integer as a decimal string so consumers
never overflow a machine word.

Exit codes: 0 success, 2 argument parse or validation error, 1 internal
consistency failure, 141 when the reader closes stdout early (as
``| head`` does), with nothing on stderr.

The seven verbs that take only int arguments and --format (check,
floor, count, nth, list, flock, pioneers) are built from one table,
_FORMAT_VERBS.  main builds its argument parser on its first call and
reuses it for every later call in the process; build_parser() returns a
new one each time.

Wide int arguments and answers are parsed and rendered by the one
decimal-I/O rule of ``_digits``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain, islice, repeat, starmap
from operator import mul

from ._digits import cell, parse_int, record_cells, wide

# list and flock write their rows straight from the flock runs, so nothing
# here calls enumerate_range or flock_members.  Both names stay imported all
# the same: perfbench/tracing.py replaces cli.enumerate_range and
# cli.flock_members by name, and its getattr raises AttributeError on a
# missing name, which would fail every traced benchmark run.
from .core import (
    AlmostSquareRecord,
    FlockId,
    _flock_runs,
    count_le,
    enumerate_range,
    flock_members,
    floor_almost_square,
    is_almost_square,
    nth,
    pioneer,
    triangular,
)
from .oracle import DEFAULT_SCAN_CAP, brute_record_set

__all__ = ["build_parser", "main", "run_main"]

_LIST_ROW_CAP = 10_000_000

# oracle-verify prints at most this many mismatching n after its summary
_WITNESS_LINES = 5

_RECORD = ("value", "width", "length", "semiperimeter", "flock")
_RECORD_TEXT = "{} = {} x {} (semiperimeter {}, flock {})\n"
_MEMBER_TEXT = "{} = {} x {}\n"  # one line per member of a list or flock


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _record_cells(rec: AlmostSquareRecord) -> tuple[int | str, ...]:
    return record_cells(rec.rect.width, rec.rect.length)


def _run_rows(k: int, widths: range, lengths: range) -> Iterator[tuple[int | str, ...]]:
    """The cells of a run's members in _RECORD order, from its sides alone.

    The path is chosen once per run, as every member's value is near k^2/4.
    """
    if wide(2 * k.bit_length()):
        return map(record_cells, widths, lengths)
    return zip(map(mul, widths, lengths), widths, lengths, repeat(k), repeat(k))


def _emit(
    fmt: str,
    columns: tuple[str, ...],
    rows: Iterable[tuple[object, ...]],
    text: str,
    key: str | None = None,
) -> None:
    """Write rows (tuples in column order) to stdout in one of the three formats.

    Every format fills one template with each row's cells by position.
    text uses the template ``text``.  csv writes the column names, then
    each row's cells joined by commas.  json quotes every cell, so ints
    render as decimal strings, except ``member``, a bare JSON bool that
    check passes as ``true`` or ``false``; with no ``key`` the single row
    is a bare object, otherwise the rows are a list under ``key``.
    """
    head, sep, tail = "", "", ""
    if fmt == "csv":
        head = ",".join(columns) + "\n"
        text = ",".join(["{}"] * len(columns)) + "\n"
    elif fmt == "json":
        cells = (f'"{c}": {{}}' if c == "member" else f'"{c}": "{{}}"' for c in columns)
        text = "{{" + ", ".join(cells) + "}}"
        head, sep, tail = (f'{{"{key}": [', ", ", "]}\n") if key else ("", "", "\n")
    out = sys.stdout
    rows = iter(rows)
    out.write(head)
    out.writelines(starmap(text.format, islice(rows, 1)))
    out.writelines(starmap((sep + text).format, rows))
    out.write(tail)


# --------------------------------------------------------------------------
# verb handlers
# --------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    rect = is_almost_square(args.n)
    n_cell = cell(args.n)
    if rect:  # member is json's bool; text skips it and csv replaces it
        cells = record_cells(rect.width, rect.length, n_cell)  # n is the record's value
        columns, row = ("n", "member", *_RECORD), (n_cell, "true", *cells)
        text = "{0} is an almost-square: {3} x {4} (semiperimeter {5}, flock {6})\n"
    else:
        columns, row = ("n", "member"), (n_cell, "false")
        text = "{0} is not an almost-square\n"
    if args.format == "csv":  # one column set for both answers: 1/0 and blank cells
        columns = ("n", "member", "width", "length", "semiperimeter")
        row = (n_cell, 1, *cells[1:4]) if rect else (n_cell, 0, "", "", "")
    _emit(args.format, columns, [row], text)
    return 0


def cmd_floor(args: argparse.Namespace) -> int:
    rec = floor_almost_square(args.n)
    _emit(args.format, _RECORD, [_record_cells(rec)], _RECORD_TEXT)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    count = count_le(args.n)  # refuses n before n is rendered
    _emit(args.format, ("n", "count"), [(cell(args.n), cell(count))], "{1}\n")
    return 0


def cmd_nth(args: argparse.Namespace) -> int:
    _emit(args.format, _RECORD, [_record_cells(nth(args.index))], _RECORD_TEXT)
    return 0


def _emit_members(fmt: str, lo: int, hi: int, refusal: str) -> int:
    """Write the members in [lo, hi], refused up front with ``refusal`` above the cap.

    The count and the rows come from one flock walk; ``refusal`` takes the
    count as its one field.
    """
    count, _, runs = _flock_runs(lo, hi)
    _require(count <= _LIST_ROW_CAP, refusal.format(count))
    rows = chain.from_iterable(starmap(_run_rows, runs))
    _emit(fmt, _RECORD, rows, _MEMBER_TEXT, key="members")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    _require(args.lo >= 1, "lo must be >= 1")
    _require(args.hi >= args.lo, "lo must not exceed hi")
    refusal = "range holds {} members; use 'count' or 'analyze' instead"
    return _emit_members(args.format, args.lo, args.hi, refusal)


def cmd_flock(args: argparse.Namespace) -> int:
    _require(args.k >= 1, "flock index k must be >= 1")
    lo, hi = FlockId(args.k).value_interval()
    refusal = f"flock {args.k} holds {{}} members, above the cap of {_LIST_ROW_CAP}"
    return _emit_members(args.format, lo + 1, hi, refusal)


def _pioneer_row(j: int) -> tuple[int, int, int, int, int]:
    value, fid = pioneer(j)
    return j, value, triangular(j + 1), triangular(j + 2), fid.k


def cmd_pioneers(args: argparse.Namespace) -> int:
    _require(args.count >= 1, "count must be >= 1")
    _require(
        args.count <= _LIST_ROW_CAP,
        f"{args.count} pioneers requested, above the cap of {_LIST_ROW_CAP}",
    )
    columns = ("index", "value", "width", "length", "flock")
    rows = map(_pioneer_row, range(1, args.count + 1))
    _emit(args.format, columns, rows, "{}: {} = {} x {} (flock {})\n", key="pioneers")
    return 0


def _emit_plan(max_rows: int, **fields: object) -> int:
    """Refuse max_rows outside [0, _LIST_ROW_CAP], then stream the plan's CSV."""
    # analysis is imported here, not at module top.  An eager import made a
    # fresh `import almost_squares.cli` slower (29.4 -> 36.0 ms median over 40
    # alternating fresh interpreters, 2-vCPU host, Python 3.11), and
    # perfbench/tracing.py replaces analysis.emit_series after cli is
    # imported, which a name bound at cli's import time would bypass.
    from .analysis import SamplingPlan, emit_series

    _require(max_rows >= 0, "--max-rows must be >= 0")
    _require(
        max_rows <= _LIST_ROW_CAP,
        f"--max-rows {max_rows} is above the cap of {_LIST_ROW_CAP}",
    )
    emit_series(SamplingPlan(max_rows=max_rows, **fields), sys.stdout)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    return _emit_plan(args.max_rows, kind=args.plan, lo=args.lo, hi=args.hi,
                      step=args.step, at_members=not args.grid)


def cmd_trigrid(args: argparse.Namespace) -> int:
    _require(args.size >= 2, "size must be >= 2")
    return _emit_plan(args.max_rows, kind="tri-grid", lo=1, hi=args.size)


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    limit = args.limit
    record_set = brute_record_set(limit)
    members = record_set.members
    running = 0  # the brute-force count so far, and the index of the next member
    membership_bad = 0
    count_bad = 0
    witnesses = []
    for n in range(1, limit + 1):
        brute_member = running < len(members) and members[running] == n
        # a branch, not running += brute_member: adding the bool took about
        # 25 ns more per n (Python 3.11, 2-vCPU host)
        if brute_member:
            running += 1
        fast_member = is_almost_square(n) is not None
        fast_count = count_le(n)
        if fast_member != brute_member or fast_count != running:
            membership_bad += fast_member != brute_member
            count_bad += fast_count != running
            if len(witnesses) < _WITNESS_LINES:
                witnesses.append((n, fast_member, fast_count, brute_member, running))
    ok = limit - membership_bad
    print(f"membership: {ok}/{limit} ok, {membership_bad} mismatches")
    ok = limit - count_bad
    print(f"counts:     {ok}/{limit} ok, {count_bad} mismatches")
    for w in witnesses:
        print("n={}: fast member={} count={}, oracle member={} count={}".format(*w))
    return 0 if membership_bad == 0 and count_bad == 0 else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

# the verbs whose only options are int arguments and --format, one row each:
# (verb, help, handler, ((int argument, its help or None), ...))
_FORMAT_VERBS = (
    ("check", "test membership and report the rectangle", cmd_check,
     (("n", "integer to test"),)),
    ("floor", "largest almost-square not exceeding n", cmd_floor, (("n", None),)),
    ("count", "number of almost-squares not exceeding n", cmd_count, (("n", None),)),
    ("nth", "the j-th almost-square in increasing order", cmd_nth,
     (("index", "1-based rank"),)),
    ("list", "all almost-squares in [lo, hi]", cmd_list, (("lo", None), ("hi", None))),
    ("flock", "members of the flock with semiperimeter k", cmd_flock, (("k", None),)),
    ("pioneers", "the first J flock-lengthening members", cmd_pioneers,
     (("count", "how many pioneers to print"),)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almost-squares",
        description=(
            "Queries about almost-squares: the integers whose optimal "
            "integer-sided rectangle sets or ties the record for the "
            "area-to-semiperimeter ratio."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, verb_help, func, ints in _FORMAT_VERBS:
        sp = sub.add_parser(verb, help=verb_help)
        for name, arg_help in ints:
            sp.add_argument(name, type=parse_int, help=arg_help)
        sp.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )
        sp.set_defaults(func=func)

    sp = sub.add_parser("analyze", help="stream a counting/remainder series as CSV")
    sp.add_argument(
        "--plan",
        required=True,
        choices=("A-of-x", "R-of-x", "R-normalized"),
        help="which series to emit",
    )
    sp.add_argument("--lo", type=parse_int, required=True)
    sp.add_argument("--hi", type=parse_int, required=True)
    sp.add_argument("--step", type=parse_int, default=1, help="grid step (default 1)")
    sp.add_argument(
        "--grid",
        action="store_true",
        help="sample a fixed-step grid instead of the member values",
    )
    sp.add_argument("--max-rows", type=parse_int, default=1_000_000)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser(
        "trigrid", help="stream the triangular-product membership table as CSV"
    )
    sp.add_argument("size", type=parse_int, nargs="?", default=60)
    sp.add_argument("--max-rows", type=parse_int, default=1_000_000)
    sp.set_defaults(func=cmd_trigrid)

    sp = sub.add_parser(
        "oracle-verify",
        help="compare fast membership and counts against the brute-force scan",
    )
    sp.add_argument("--limit", type=parse_int, default=DEFAULT_SCAN_CAP)
    sp.set_defaults(func=cmd_oracle_verify)

    return parser


# main's one parser, built on its first call.  It holds build_parser's own
# function object, not the module attribute, so a wrapper later set on
# cli.build_parser (as perfbench/tracing.py sets one) is never applied to
# the cached parser, let alone once per call.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # answers legitimately run to thousands of digits
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"almost-squares: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"almost-squares: internal check failed: {exc}", file=sys.stderr)
        return 1


def run_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, as `| head` does.  Point fd 1 at
        # devnull so the interpreter's own flush at exit cannot fail again,
        # and exit as a process that SIGPIPE ended would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
