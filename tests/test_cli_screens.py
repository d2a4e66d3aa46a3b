"""The parser's screens, byte for byte: every -h screen and argparse's refusals.

COLUMNS is set to 80, so argparse wraps every screen at one width.  Each
screen is taken twice: from a new build_parser() and from main, which
parses with its one cached parser.

The top-level usage line names all ten verbs.  Python 3.13 wraps it
differently, with " ..." after the verb list and not on a line of its
own, so the screens that print it are compared with runs of whitespace
collapsed.  Every verb's own screen is compared exactly.
"""

import pytest

from almost_squares import cli
from almost_squares.cli import main

TOP_USAGE = (
    "usage: almost-squares [-h]\n"
    "                      {check,floor,count,nth,list,flock,pioneers,analyze,trigrid,oracle-verify}\n"
    "                      ...\n"
)
HELP = "  -h, --help            show this help message and exit\n"
FORMAT_HELP = (
    "  --format {text,json,csv}\n"
    "                        output format (default text)\n"
)
CHECK_USAGE = "usage: almost-squares check [-h] [--format {text,json,csv}] n\n"
LIST_USAGE = "usage: almost-squares list [-h] [--format {text,json,csv}] lo hi\n"
PIONEERS_USAGE = "usage: almost-squares pioneers [-h] [--format {text,json,csv}] count\n"
ANALYZE_USAGE = (
    "usage: almost-squares analyze [-h] --plan {A-of-x,R-of-x,R-normalized} --lo LO\n"
    "                              --hi HI [--step STEP] [--grid]\n"
    "                              [--max-rows MAX_ROWS]\n"
)
TRIGRID_USAGE = "usage: almost-squares trigrid [-h] [--max-rows MAX_ROWS] [size]\n"
ORACLE_USAGE = "usage: almost-squares oracle-verify [-h] [--limit LIMIT]\n"
ANALYZE = ("analyze", "--plan", "A-of-x", "--lo", "1", "--hi", "2")

# (argv, exit code, stdout, stderr)
SCREENS = [
    (
        ("-h",),
        0,
        TOP_USAGE
        + "\n"
        "Queries about almost-squares: the integers whose optimal integer-sided\n"
        "rectangle sets or ties the record for the area-to-semiperimeter ratio.\n"
        "\n"
        "positional arguments:\n"
        "  {check,floor,count,nth,list,flock,pioneers,analyze,trigrid,oracle-verify}\n"
        "    check               test membership and report the rectangle\n"
        "    floor               largest almost-square not exceeding n\n"
        "    count               number of almost-squares not exceeding n\n"
        "    nth                 the j-th almost-square in increasing order\n"
        "    list                all almost-squares in [lo, hi]\n"
        "    flock               members of the flock with semiperimeter k\n"
        "    pioneers            the first J flock-lengthening members\n"
        "    analyze             stream a counting/remainder series as CSV\n"
        "    trigrid             stream the triangular-product membership table as CSV\n"
        "    oracle-verify       compare fast membership and counts against the brute-\n"
        "                        force scan\n"
        "\n"
        "options:\n" + HELP,
        "",
    ),
    (
        ("check", "-h"),
        0,
        CHECK_USAGE
        + "\n"
        "positional arguments:\n"
        "  n                     integer to test\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("floor", "-h"),
        0,
        "usage: almost-squares floor [-h] [--format {text,json,csv}] n\n"
        "\n"
        "positional arguments:\n"
        "  n\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("count", "-h"),
        0,
        "usage: almost-squares count [-h] [--format {text,json,csv}] n\n"
        "\n"
        "positional arguments:\n"
        "  n\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("nth", "-h"),
        0,
        "usage: almost-squares nth [-h] [--format {text,json,csv}] index\n"
        "\n"
        "positional arguments:\n"
        "  index                 1-based rank\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("list", "-h"),
        0,
        LIST_USAGE
        + "\n"
        "positional arguments:\n"
        "  lo\n"
        "  hi\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("flock", "-h"),
        0,
        "usage: almost-squares flock [-h] [--format {text,json,csv}] k\n"
        "\n"
        "positional arguments:\n"
        "  k\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("pioneers", "-h"),
        0,
        PIONEERS_USAGE
        + "\n"
        "positional arguments:\n"
        "  count                 how many pioneers to print\n"
        "\n"
        "options:\n" + HELP + FORMAT_HELP,
        "",
    ),
    (
        ("analyze", "--help"),
        0,
        ANALYZE_USAGE
        + "\n"
        "options:\n" + HELP + "  --plan {A-of-x,R-of-x,R-normalized}\n"
        "                        which series to emit\n"
        "  --lo LO\n"
        "  --hi HI\n"
        "  --step STEP           grid step (default 1)\n"
        "  --grid                sample a fixed-step grid instead of the member values\n"
        "  --max-rows MAX_ROWS\n",
        "",
    ),
    (
        ("trigrid", "-h"),
        0,
        TRIGRID_USAGE
        + "\n"
        "positional arguments:\n"
        "  size\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --max-rows MAX_ROWS\n",
        "",
    ),
    (
        ("oracle-verify", "-h"),
        0,
        ORACLE_USAGE
        + "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --limit LIMIT\n",
        "",
    ),
    (
        (),
        2,
        "",
        TOP_USAGE + "almost-squares: error: the following arguments are required: command\n",
    ),
    (
        ("bogus",),
        2,
        "",
        TOP_USAGE + "almost-squares: error: argument command: invalid choice: 'bogus' (choose"
        " from 'check', 'floor', 'count', 'nth', 'list', 'flock', 'pioneers', 'analyze',"
        " 'trigrid', 'oracle-verify')\n",
    ),
    (
        ("check", "1", "--bogus"),
        2,
        "",
        TOP_USAGE + "almost-squares: error: unrecognized arguments: --bogus\n",
    ),
    (
        ("trigrid", "1", "2"),
        2,
        "",
        TOP_USAGE + "almost-squares: error: unrecognized arguments: 2\n",
    ),
    (
        ("check",),
        2,
        "",
        CHECK_USAGE + "almost-squares check: error: the following arguments are required: n\n",
    ),
    (
        ("check", "12abc"),
        2,
        "",
        CHECK_USAGE + "almost-squares check: error: argument n: invalid int value: '12abc'\n",
    ),
    (
        ("check", "1", "--format", "xml"),
        2,
        "",
        CHECK_USAGE + "almost-squares check: error: argument --format: invalid choice: 'xml'"
        " (choose from 'text', 'json', 'csv')\n",
    ),
    (
        ("list", "1"),
        2,
        "",
        LIST_USAGE + "almost-squares list: error: the following arguments are required: hi\n",
    ),
    (
        ("pioneers", "--format"),
        2,
        "",
        PIONEERS_USAGE
        + "almost-squares pioneers: error: argument --format: expected one argument\n",
    ),
    (
        ANALYZE[:1] + ANALYZE[3:],
        2,
        "",
        ANALYZE_USAGE
        + "almost-squares analyze: error: the following arguments are required: --plan\n",
    ),
    (
        ("analyze", "--plan", "B", *ANALYZE[3:]),
        2,
        "",
        ANALYZE_USAGE + "almost-squares analyze: error: argument --plan: invalid choice: 'B'"
        " (choose from 'A-of-x', 'R-of-x', 'R-normalized')\n",
    ),
    (
        (*ANALYZE, "--step", "1.5"),
        2,
        "",
        ANALYZE_USAGE
        + "almost-squares analyze: error: argument --step: invalid int value: '1.5'\n",
    ),
    (
        (*ANALYZE, "--max-rows", "z"),
        2,
        "",
        ANALYZE_USAGE
        + "almost-squares analyze: error: argument --max-rows: invalid int value: 'z'\n",
    ),
    (
        ("analyze", "--plan", "A-of-x", "--lo", "1"),
        2,
        "",
        ANALYZE_USAGE
        + "almost-squares analyze: error: the following arguments are required: --hi\n",
    ),
    (
        ("trigrid", "x"),
        2,
        "",
        TRIGRID_USAGE
        + "almost-squares trigrid: error: argument size: invalid int value: 'x'\n",
    ),
    (
        ("trigrid", "--max-rows"),
        2,
        "",
        TRIGRID_USAGE
        + "almost-squares trigrid: error: argument --max-rows: expected one argument\n",
    ),
    (
        ("oracle-verify", "--limit"),
        2,
        "",
        ORACLE_USAGE
        + "almost-squares oracle-verify: error: argument --limit: expected one argument\n",
    ),
    (
        ("oracle-verify", "--limit", "1e6"),
        2,
        "",
        ORACLE_USAGE
        + "almost-squares oracle-verify: error: argument --limit: invalid int value: '1e6'\n",
    ),
]


def _screen(parse, argv, capsys):
    """parse(argv)'s exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def _collapsed(screen):
    code, out, err = screen
    return code, " ".join(out.split()), " ".join(err.split())


@pytest.mark.parametrize("argv, code, out, err", SCREENS, ids=[" ".join(s[0]) for s in SCREENS])
def test_screen_is_pinned(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    same = _collapsed if TOP_USAGE in out + err else (lambda screen: screen)
    for parse in (cli.build_parser().parse_args, main):
        assert same(_screen(parse, argv, capsys)) == same((code, out, err)), parse


# (argv, the parsed namespace): the defaults and destinations, which no
# screen shows
PARSED = [
    (("check", "182"), {"n": 182, "format": "text", "func": cli.cmd_check}),
    (("floor", "190", "--format", "json"), {"n": 190, "format": "json", "func": cli.cmd_floor}),
    (("count", "9"), {"n": 9, "format": "text", "func": cli.cmd_count}),
    (("nth", "3", "--format", "csv"), {"index": 3, "format": "csv", "func": cli.cmd_nth}),
    (("list", "1", "9"), {"lo": 1, "hi": 9, "format": "text", "func": cli.cmd_list}),
    (("flock", "16"), {"k": 16, "format": "text", "func": cli.cmd_flock}),
    (("pioneers", "4"), {"count": 4, "format": "text", "func": cli.cmd_pioneers}),
    (ANALYZE, {"plan": "A-of-x", "lo": 1, "hi": 2, "step": 1, "grid": False,
               "max_rows": 1_000_000, "func": cli.cmd_analyze}),
    (("analyze", "--grid", "--step", "3", "--max-rows", "7", *ANALYZE[1:]),
     {"plan": "A-of-x", "lo": 1, "hi": 2, "step": 3, "grid": True, "max_rows": 7,
      "func": cli.cmd_analyze}),
    (("trigrid",), {"size": 60, "max_rows": 1_000_000, "func": cli.cmd_trigrid}),
    (("trigrid", "9", "--max-rows", "5"), {"size": 9, "max_rows": 5, "func": cli.cmd_trigrid}),
    (("oracle-verify",), {"limit": 200_000, "func": cli.cmd_oracle_verify}),
]


@pytest.mark.parametrize("argv, fields", PARSED, ids=[" ".join(p[0]) for p in PARSED])
def test_parsed_namespace_is_pinned(argv, fields):
    want = {"command": argv[0], **fields}
    assert vars(cli.build_parser().parse_args(list(argv))) == want
    assert vars(cli._parser().parse_args(list(argv))) == want
