"""Command-line front door for almost-square queries.

Verbs: check, floor, count, nth, list, flock, pioneers, analyze,
trigrid, oracle-verify.  Integer arguments are parsed as
arbitrary-precision decimals (inputs of thousands of digits are fine),
and JSON output renders every integer as a decimal string so consumers
never overflow a machine word.

Exit codes: 0 success, 2 argument parse or validation error, 1 internal
consistency failure or a failed write to stdout (as to a full disk, with
one line on stderr), 141 when the reader closes stdout early (as
``| head`` does), with nothing on stderr.

Every verb is one row of one table, _VERBS: its name, its help, its
handler and its arguments with their add_argument keywords; --format is
declared once and shared by the rows that take it.  main parses argv by
that table first (_table_parse): a verb, then its positionals and its
option strings, each option given once and its value, where it takes
one, as the next token, converted by the row's type and within its
choices.  Every other argv, help and refusals included, goes to
argparse, which is imported only then.  build_parser() builds the
argparse parser by one loop over the table and returns a new one on
each call; main builds its parser on the first call that needs it and
reuses it for every later one in the process.

Wide int arguments and answers are parsed and rendered by the one
decimal-I/O rule of ``_bigint``.

list and flock render each flock run of members as a whole: the run's
semiperimeter and flock, both k, are rendered once into its row
template.  Runs of flocks below k = 2^16 take their width and length
cells from a small table of strs and share chunks of at most 128 rows;
larger ones go out in chunks of at most about 64 KB, one write each.
pioneers joins its rows into chunks of about 2 KB (core._joined), one
write each, as analyze and trigrid do through analysis.emit_series.

oracle-verify prints the mismatch counts and witnesses of oracle.verify.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache, partial
from itertools import islice, starmap
from types import SimpleNamespace

from ._bigint import cell, parse_int, record_cells, wide

# list and flock write their rows straight from the flock runs, so nothing
# here calls enumerate_range or flock_members.  Both names stay imported all
# the same: perfbench/tracing.py replaces cli.enumerate_range and
# cli.flock_members by name, and its getattr raises AttributeError on a
# missing name, which would fail every traced benchmark run.
from .core import (
    _ROW_CAP,
    _flock_runs,
    _flock_window,
    _joined,
    count_le,
    enumerate_range,
    flock_members,
    floor_almost_square,
    is_almost_square,
    nth,
    pioneer,
)
# oracle-verify calls oracle.verify, so nothing here calls brute_record_set;
# it stays imported because perfbench/tracing.py replaces
# cli.brute_record_set by name, as above
from .oracle import DEFAULT_SCAN_CAP, brute_record_set, verify

# a name type checkers read as true: argparse is imported by build_parser
# alone, and typing's own TYPE_CHECKING would add typing's import, about
# 3 ms, to every fresh process
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

__all__ = ["build_parser", "main", "run_main"]

# list and flock write their rows in chunks of at most about this many bytes,
# one write each; a fixed row count would hold about 15 MB per chunk of
# 1024 rows of 5000-digit members
_CHUNK_BYTES = 1 << 16
# runs of flocks k < _TABLE_K, of at most 128 members each, share chunks of
# at most _CHUNK_ROWS rows and take cells from a table of at most 514 strs;
# both bounds are constants, so memory does not grow with the window
_TABLE_K = 1 << 16
_CHUNK_ROWS = 128

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
    length alone.  Runs of flocks below _TABLE_K share chunks of at most
    _CHUNK_ROWS rows and take their width and length cells, each of which
    recurs in about sqrt(k) flocks, from a table over twice the span of
    the run that filled it, refilled when a run leaves it.  Past _TABLE_K
    a chunk holds at most _CHUNK_BYTES // (2 * bits of k + len(template))
    of a run's rows, at least one: a row's digits are at most six times
    k's, which is under 2 bits of k, so no chunk but a single row passes
    _CHUNK_BYTES.  A run whose values pass _bigint._BIG_DIGITS renders
    through record_cells.
    """
    a, b, c, tail = template.format(*["\0"] * 5).split("\0", 3)
    rows = []
    table, base, top = [], 0, 0  # table[i] is str(base + i), for base + i < top
    for k, widths, lengths in runs:
        if rows and (k >= _TABLE_K or len(rows) + len(widths) > _CHUNK_ROWS):
            yield "".join(rows)
            rows = []
        if k < _TABLE_K:
            w0, l0 = widths.start, lengths.start  # the least width and the greatest length
            if w0 <= base or l0 >= top:
                base = w0 - 1  # below the least length too, so no slice ends at -1
                top = base + 2 * (l0 + 1 - base)
                table = list(map(str, range(base, top)))
            d = tail.replace("\0", str(k))
            rows += [
                f"{a}{w * l}{b}{sw}{c}{sl}{d}"
                for w, l, sw, sl in zip(widths, lengths, table[w0 - base:widths.stop - base],
                                        table[l0 - base:lengths.stop - base:-1])
            ]
            continue
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
    if rows:
        yield "".join(rows)


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
    _emit(args.format, _RECORD, [record_cells(*floor_almost_square(args.n))], _RECORD_TEXT)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    count = count_le(args.n)  # refuses n before n is rendered
    _emit(args.format, ("n", "count"), [(cell(args.n), cell(count))], "{1}\n")
    return 0


def cmd_nth(args: argparse.Namespace) -> int:
    _emit(args.format, _RECORD, [record_cells(*nth(args.index))], _RECORD_TEXT)
    return 0


def _emit_members(fmt: str, lo: int, hi: int, refusal: str) -> int:
    """Write the members in [lo, hi], refused up front with ``refusal`` above the cap.

    The count and the rows come from one flock walk; ``refusal`` takes the
    count as its one field.  The rows go out in chunks of at most
    _CHUNK_ROWS rows or about _CHUNK_BYTES, one write each (_run_chunks),
    so memory holds one chunk and a table of cells, not the window.
    """
    count, _, runs = _flock_runs(lo, hi)
    _require(count <= _ROW_CAP, refusal.format(count))
    _emit(fmt, _RECORD, partial(_run_chunks, runs), _MEMBER_TEXT, key="members")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    _require(args.lo >= 1, "lo must be >= 1")
    _require(args.hi >= args.lo, "lo must not exceed hi")
    # analyze at the members writes a row per member too, so only a grid with a
    # step answers a window this wide
    refusal = "range holds {} members; use 'count', or 'analyze --grid' with a --step, instead"
    return _emit_members(args.format, args.lo, args.hi, refusal)


def cmd_flock(args: argparse.Namespace) -> int:
    _require(args.k >= 1, "flock index k must be >= 1")
    refusal = f"flock {args.k} holds {{}} members, above the cap of {_ROW_CAP}"
    return _emit_members(args.format, *_flock_window(args.k), refusal)


def _pioneer_row(j: int) -> tuple[int, int, int, int, int]:
    rect = pioneer(j)
    return j, rect.area, rect.width, rect.length, rect.semiperimeter


def _pioneer_chunks(count: int, template: str) -> Iterator[str]:
    # pioneers 1..count filled into template, joined into chunks; no cell is
    # wider than the last pioneer's value
    cells = len(str(pioneer(count).area))
    rows = map(_pioneer_row, range(1, count + 1))
    return _joined(starmap(template.format, rows), len(template) + 5 * cells)


def cmd_pioneers(args: argparse.Namespace) -> int:
    _require(args.count >= 1, "count must be >= 1")
    _require(
        args.count <= _ROW_CAP,
        f"{args.count} pioneers requested, above the cap of {_ROW_CAP}",
    )
    columns = ("index", "value", "width", "length", "flock")
    rows = partial(_pioneer_chunks, args.count)
    _emit(args.format, columns, rows, "{}: {} = {} x {} (flock {})\n", key="pioneers")
    return 0


def _emit_plan(**fields: object) -> int:
    """Stream the plan's CSV, refused up front above _ROW_CAP rows."""
    # analysis is imported here, not at module top.  An eager import made a
    # fresh `import almost_squares.cli` slower (29.4 -> 36.0 ms median over 40
    # alternating fresh interpreters, 2-vCPU host, Python 3.11), and
    # perfbench/tracing.py replaces analysis.emit_series after cli is
    # imported, which a name bound at cli's import time would bypass.
    from .analysis import SamplingPlan, emit_series

    emit_series(SamplingPlan(**fields), sys.stdout)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    return _emit_plan(kind=args.plan, lo=args.lo, hi=args.hi, step=args.step,
                      at_members=not args.grid)


def cmd_trigrid(args: argparse.Namespace) -> int:
    _require(args.size >= 2, "size must be >= 2")
    return _emit_plan(kind="tri-grid", lo=1, hi=args.size)


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    limit = args.limit
    membership_bad, count_bad, witnesses = verify(limit)
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
    )),
    ("trigrid", "stream the triangular-product membership table as CSV", cmd_trigrid,
     (("size", _int(nargs="?", default=60)),)),
    ("oracle-verify", "compare fast membership and counts against the brute-force scan",
     cmd_oracle_verify, (("--limit", _int(default=DEFAULT_SCAN_CAP)),)),
)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse's own swallows the OSError of a failed write, so a help
        # screen into a full disk would exit 0; add_subparsers takes this class
        def _print_message(self, message: str, file: object = None) -> None:
            if message:
                (file or sys.stderr).write(message)

    parser = Parser(
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


# the add_argument keywords _table_parse reads, of a positional and of an
# option; of nargs it reads "?" alone, and of action "store_true" alone
_POSITIONAL_KEYWORDS = {"type", "help", "default", "choices", "nargs"}
_OPTION_KEYWORDS = {"type", "help", "default", "choices", "required", "action"}


def _table_row(verb: str, func: Callable, arguments: tuple) -> tuple | None:
    """A verb's row as _table_parse reads it, or None if a keyword is not one it reads.

    The row is (positionals, the count of them required, options,
    required option dests, defaults).  A positional is (dest, type,
    choices), an option string maps to (dest, type, choices) with type
    None for a flag, and defaults holds command, func and every dest's
    value when absent.  A row with an optional positional and any other
    argument is argparse's alone: argparse may take that positional empty
    before another positional's token, as ``a b? --x v 2`` leaves 2 over.
    """
    positionals, least, options, required = [], 0, {}, set()
    defaults = {"command": verb, "func": func}
    for name, keywords in arguments:
        is_option = name[0] == "-"
        flag = keywords.get("action") == "store_true"
        if (keywords.keys() - (_OPTION_KEYWORDS if is_option else _POSITIONAL_KEYWORDS)
                or keywords.get("nargs", "?") != "?"
                or keywords.get("action", "store_true") != "store_true"):
            return None
        convert = None if flag else keywords.get("type", str)
        dest = name.lstrip("-").replace("-", "_") if is_option else name
        default = keywords.get("default", False if flag else None)
        defaults[dest] = convert(default) if isinstance(default, str) else default
        argument = dest, convert, keywords.get("choices")
        if is_option:
            options[name] = argument
            if keywords.get("required"):
                required.add(dest)
        else:
            positionals.append(argument)
            least += "nargs" not in keywords
    if least < len(positionals) and len(arguments) > 1:
        return None
    return positionals, least, options, required, defaults


# every row the table parse reads, by verb, built once from _VERBS
_TABLE = {verb: row for verb, _, func, arguments in _VERBS
          if (row := _table_row(verb, func, arguments))}


def _value(token: str, convert: Callable, choices: Iterable | None) -> object:
    value = convert(token)
    if choices is not None and value not in choices:
        raise ValueError(token)  # argparse refuses it, with its own message
    return value


def _table_parse(argv: list[str]) -> SimpleNamespace | None:
    """argv's fields as argparse would parse them, or None to leave argv to argparse.

    It answers when argv[0] is a verb of _TABLE and every later token is a
    positional of its row, or one of its option strings given once with a
    value that does not start with "-"; each value is converted by its
    type and is one of its choices where it has them.  Help, "--",
    "--opt=value", abbreviations, negative numbers and every argv argparse
    refuses are None, so every screen and refusal stays argparse's.
    """
    row = _TABLE.get(argv[0]) if argv else None
    if row is None:
        return None
    positionals, least, options, required, defaults = row
    fields, given = {}, []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token not in options:
                if token[:1] == "-":
                    return None
                given.append(token)
                continue
            dest, convert, choices = options[token]
            if dest in fields:
                return None
            if convert is None:  # a flag
                fields[dest] = True
                continue
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
            fields[dest] = _value(value, convert, choices)
        if required - fields.keys() or not least <= len(given) <= len(positionals):
            return None
        for (dest, convert, choices), token in zip(positionals, given):
            fields[dest] = _value(token, convert, choices)
    except (TypeError, ValueError):
        return None
    return SimpleNamespace(**(defaults | fields))


def main(argv: list[str] | None = None) -> int:
    sys.set_int_max_str_digits(0)  # answers legitimately run to thousands of digits
    if argv is None:
        argv = sys.argv[1:]
    args = _table_parse(argv) or _parser().parse_args(argv)
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
        try:
            code = main()
        except SystemExit as stop:  # argparse's help screens and refusals
            code = stop.code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, as `| head` does.  Point fd 1 at
        # devnull so the interpreter's own flush at exit cannot fail again,
        # and exit as a process that SIGPIPE ended would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except OSError as exc:
        # a failed write, as to a full disk: one line, not a traceback, and
        # fd 1 at devnull for the same reason as above
        print(f"almost-squares: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
