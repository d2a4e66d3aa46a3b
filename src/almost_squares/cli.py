"""Command-line front door for almost-square queries.

Verbs: check, floor, count, nth, list, flock, pioneers, analyze,
trigrid, oracle-verify.  Integer arguments are parsed as
arbitrary-precision decimals (inputs of thousands of digits are fine),
and JSON output renders every integer as a decimal string so consumers
never overflow a machine word.

Exit codes: 0 success, 2 argument parse or validation error, 1 internal
consistency failure, 141 when the reader closes stdout early (as
``| head`` does), with nothing on stderr.

Every verb is one row of one table, _VERBS: its name, its help, its
handler and its arguments with their add_argument keywords; --format and
--max-rows are each declared once and shared by the rows that take them.
build_parser() builds the parser by one loop over the table and returns
a new one on each call; main builds its parser on its first call and
reuses it for every later call in the process.

Wide int arguments and answers are parsed and rendered by the one
decimal-I/O rule of ``_bigint``.

list and flock render each flock run of members as a whole: the run's
semiperimeter and flock, both k, are rendered once into its row
template, and its rows go out in chunks of at most about 64 KB, one
write each.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache, partial
from itertools import islice, starmap

from ._bigint import cell, parse_int, record_cells, wide

# list and flock write their rows straight from the flock runs, so nothing
# here calls enumerate_range or flock_members.  Both names stay imported all
# the same: perfbench/tracing.py replaces cli.enumerate_range and
# cli.flock_members by name, and its getattr raises AttributeError on a
# missing name, which would fail every traced benchmark run.
from .core import (
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

# list and flock write their rows in chunks of at most about this many bytes,
# one write each; a fixed row count would hold about 15 MB per chunk of
# 1024 rows of 5000-digit members
_CHUNK_BYTES = 1 << 16

# oracle-verify prints at most this many mismatching n after its summary
_WITNESS_LINES = 5

_RECORD = ("value", "width", "length", "semiperimeter", "flock")
_RECORD_TEXT = "{} = {} x {} (semiperimeter {}, flock {})\n"
_MEMBER_TEXT = "{} = {} x {}\n"  # one line per member of a list or flock


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _run_chunks(runs: Iterable[tuple[int, range, range]], template: str) -> Iterator[str]:
    """The rows of the runs' members, filled into template, in chunks of whole rows.

    A run's semiperimeter and flock, both k, are rendered once and folded
    into the run's row template, so each row formats its value, width and
    length alone.  A chunk holds at most _CHUNK_BYTES // (2 * bits of k +
    len(template)) of a run's rows, at least one: a row's digits are at
    most six times k's, which is under 2 bits of k, so no chunk but a
    single row passes _CHUNK_BYTES.  A run whose values pass
    _bigint._BIG_DIGITS renders through record_cells.
    """
    a, b, c, tail = template.format(*["\0"] * 5).split("\0", 3)
    for k, widths, lengths in runs:
        bits = k.bit_length()
        size = _CHUNK_BYTES // (2 * bits + len(template)) or 1
        pairs = zip(widths, lengths)
        if wide(2 * bits):  # every member's value is near k^2/4
            for _ in range(0, len(widths), size):
                cells = starmap(record_cells, islice(pairs, size))
                yield "".join(starmap(template.format, cells))
            continue
        d = tail.replace("\0", str(k))
        for _ in range(0, len(widths), size):
            yield "".join([f"{a}{w * l}{b}{w}{c}{l}{d}" for w, l in islice(pairs, size)])


def _emit(
    fmt: str,
    columns: tuple[str, ...],
    rows: Iterable[tuple[object, ...]] | Callable[[str], Iterable[str]],
    text: str,
    key: str | None = None,
) -> None:
    """Write rows (tuples in column order) to stdout in one of the three formats.

    Every format fills one row template with each row's cells by position.
    text uses the template ``text``.  csv writes the column names, then
    each row's cells joined by commas.  json quotes every cell, so ints
    render as decimal strings, except ``member``, a bare JSON bool that
    check passes as ``true`` or ``false``; with no ``key`` the single row
    is a bare object, otherwise the rows are a list under ``key``, each
    after the first preceded by ", ".

    ``rows`` may instead be a function that takes the row template, with
    that separator before it, and yields chunks of rows so filled.  Each
    chunk goes out in one write, the first without its separator and
    after the head.
    """
    head, sep, tail = "", "", ""
    if fmt == "csv":
        head = ",".join(columns) + "\n"
        text = ",".join(["{}"] * len(columns)) + "\n"
    elif fmt == "json":
        cells = (f'"{c}": {{}}' if c == "member" else f'"{c}": "{{}}"' for c in columns)
        text = "{{" + ", ".join(cells) + "}}"
        head, sep, tail = (f'{{"{key}": [', ", ", "]}\n") if key else ("", "", "\n")
    text = sep + text
    chunks = iter(rows(text) if callable(rows) else starmap(text.format, rows))
    out = sys.stdout
    out.write(head + next(chunks, sep)[len(sep):])
    out.writelines(chunks)
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
    _emit(args.format, _RECORD, [record_cells(*rec.rect)], _RECORD_TEXT)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    count = count_le(args.n)  # refuses n before n is rendered
    _emit(args.format, ("n", "count"), [(cell(args.n), cell(count))], "{1}\n")
    return 0


def cmd_nth(args: argparse.Namespace) -> int:
    _emit(args.format, _RECORD, [record_cells(*nth(args.index).rect)], _RECORD_TEXT)
    return 0


def _emit_members(fmt: str, lo: int, hi: int, refusal: str) -> int:
    """Write the members in [lo, hi], refused up front with ``refusal`` above the cap.

    The count and the rows come from one flock walk; ``refusal`` takes the
    count as its one field.  Each flock run's rows go out in chunks of at
    most about _CHUNK_BYTES, one write each (_run_chunks), so memory holds
    one chunk, not the window.
    """
    count, _, runs = _flock_runs(lo, hi)
    _require(count <= _LIST_ROW_CAP, refusal.format(count))
    _emit(fmt, _RECORD, partial(_run_chunks, runs), _MEMBER_TEXT, key="members")
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

def _int(**keywords: object) -> dict[str, object]:
    return {"type": parse_int, **keywords}


_FORMAT = ("--format", {"choices": ("text", "json", "csv"), "default": "text",
                        "help": "output format (default text)"})
_MAX_ROWS = ("--max-rows", _int(default=1_000_000))

# every verb, one row each, in the order of the help screen:
# (verb, help, handler, ((argument, add_argument keywords), ...))
_VERBS = (
    ("check", "test membership and report the rectangle", cmd_check,
     (("n", _int(help="integer to test")), _FORMAT)),
    ("floor", "largest almost-square not exceeding n", cmd_floor, (("n", _int()), _FORMAT)),
    ("count", "number of almost-squares not exceeding n", cmd_count, (("n", _int()), _FORMAT)),
    ("nth", "the j-th almost-square in increasing order", cmd_nth,
     (("index", _int(help="1-based rank")), _FORMAT)),
    ("list", "all almost-squares in [lo, hi]", cmd_list,
     (("lo", _int()), ("hi", _int()), _FORMAT)),
    ("flock", "members of the flock with semiperimeter k", cmd_flock, (("k", _int()), _FORMAT)),
    ("pioneers", "the first J flock-lengthening members", cmd_pioneers,
     (("count", _int(help="how many pioneers to print")), _FORMAT)),
    ("analyze", "stream a counting/remainder series as CSV", cmd_analyze, (
        ("--plan", {"required": True, "choices": ("A-of-x", "R-of-x", "R-normalized"),
                    "help": "which series to emit"}),
        ("--lo", _int(required=True)),
        ("--hi", _int(required=True)),
        ("--step", _int(default=1, help="grid step (default 1)")),
        ("--grid", {"action": "store_true",
                    "help": "sample a fixed-step grid instead of the member values"}),
        _MAX_ROWS,
    )),
    ("trigrid", "stream the triangular-product membership table as CSV", cmd_trigrid,
     (("size", _int(nargs="?", default=60)), _MAX_ROWS)),
    ("oracle-verify", "compare fast membership and counts against the brute-force scan",
     cmd_oracle_verify, (("--limit", _int(default=DEFAULT_SCAN_CAP)),)),
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
    for verb, verb_help, func, arguments in _VERBS:
        sp = sub.add_parser(verb, help=verb_help)
        for name, keywords in arguments:
            sp.add_argument(name, **keywords)
        sp.set_defaults(func=func)
    return parser


# main's one parser, built on its first call.  It holds build_parser's own
# function object, not the module attribute, so a wrapper later set on
# cli.build_parser (as perfbench/tracing.py sets one) is never applied to
# the cached parser, let alone once per call.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
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
