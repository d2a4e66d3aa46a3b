"""Time one call loop in two source trees of the package, in one process.

Each tree's ``almost_squares`` is loaded under its own package name, so
both run in the same interpreter, on the same heap and at the same clock
speed.  A round times the whole loop in each tree, one slice of its inputs
at a time: each slice runs in both trees back to back, the tree that goes
first alternating from slice to slice and from round to round, so a drift
in the host's speed falls on both trees alike.  The round's ratio is the
second tree's time over the first's.  The script prints each tree's median
loop time and the median ratio with its quartiles; a ratio below 1 means
the second tree is faster.  Only the standard library is used.

Run from the repository root, with the parent commit's tree checked out
elsewhere (``git archive`` or ``git clone``):

    python tools/ab_calls.py PARENT/src src
    python tools/ab_calls.py PARENT/src src --digits 30000

The default loop is ``cli.main``, stdout into a ``StringIO``, on 8 seeded
``oracle-verify --limit L`` argvs, L drawn log-uniformly from a tenth of
``--limit`` to ``--limit`` (2*10^5): the benchmark's oracle-verify
workload's [2*10^4, 2*10^5] by default.  With ``--digits`` it is
``is_almost_square``, ``count_le``, ``floor_almost_square`` and ``nth``
on 20 seeded random ints of that many digits, each both an n and an
index j.  With ``--series N`` it is
``analysis.emit_series`` into a ``StringIO`` on N copies of the four demo
plans and N seeded windows of each shape the benchmark's series workload
draws, as each of its blocks runs the demos: the demo plans behind
``demos/output`` (A-of-x and R-normalized from 1 to 5000, R-normalized
from 640000 to 643204, and the 60 by 60 tri-grid), 100 to 400 rows at
the members from near 10^6, 10^8, 10^10 and 10^12, and on a grid with a
step of 1 to 1000 from near 10^6, 10^20, 10^40, 10^70 and 10^100.  Before
it times anything it writes every plan in both trees, and on the first
whose row count or bytes differ it names that plan and exits 1.  With
``--verbs N`` it is ``cli.main``, stdout into a ``StringIO``, on N seeded
argvs of each of ``pioneers J``, J from 10^3 to 10^5, and ``flock k``, k
from 10^4 to 10^10, in each output format.  With ``--windows N`` it is
``cli.main`` on N seeded ``list`` windows, in csv, of each shape the
benchmark's windows workload draws: dense, from lo in [1, 1000] and 3*10^5
to 3*10^6 wide, and sparse, 1000 wide from 10^12 to 10^20.  With
``--points N`` it is ``cli.main`` on N seeded argvs of each of ``check``,
``count``, ``floor`` and ``nth`` on an int of 1 to 18 digits, in each
output format, and on N sparse ``list`` windows, in csv: the calls whose
cost is mostly the CLI's own, as argument parsing.  Before any loop of
``cli.main`` times anything it runs every argv in both trees, and on the
first whose exit code, stdout or stderr differs it names that argv and
exits 1.

    python tools/ab_calls.py PARENT/src src --series 4
    python tools/ab_calls.py PARENT/src src --verbs 4
    python tools/ab_calls.py PARENT/src src --windows 4
    python tools/ab_calls.py PARENT/src src --points 20
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import math
import random
import statistics
import sys
import time
from pathlib import Path

_ORACLE_ARGVS = 8  # the default loop's oracle-verify argvs
# the series workload's demo plans, which each of its blocks runs
_DEMO_PLANS = (
    ("A-of-x", 1, 5000),
    ("R-normalized", 1, 5000),
    ("R-normalized", 640000, 643204),
    ("tri-grid", 1, 60),
)
# the series workload's shapes: exponents of its member windows and grids,
# and the rows per window, drawn log-uniformly
_MEMBER_EXPONENTS = (6, 8, 10, 12)
_GRID_EXPONENTS = (6, 20, 40, 70, 100)
_SERIES_ROWS = (100, 400)
# the verbs loop's ranges, also drawn log-uniformly: pioneers J and flock k
_PIONEERS = (10**3, 10**5)
_FLOCKS = (10**4, 10**10)
# the windows loop's dense widths and sparse starts, drawn log-uniformly
_DENSE_WIDTHS = (3 * 10**5, 3 * 10**6)
_SPARSE_STARTS = (10**12, 10**20)


def load(src: Path, name: str):
    """The ``core``, ``analysis`` and ``cli`` modules under ``src``, imported as package ``name``."""
    init = src / "almost_squares" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("core", "analysis", "cli"))


def _draw(rng: random.Random, bounds: tuple[int, int]) -> int:
    return round(math.exp(rng.uniform(*map(math.log, bounds))))


def series_plans(core, windows: int, rng: random.Random) -> list[tuple]:
    """SamplingPlan arguments for `windows` copies of the demo plans and seeded windows of each shape."""
    plans = []
    for _ in range(windows):
        plans += _DEMO_PLANS
        for e in _MEMBER_EXPONENTS:
            # from the first member past a seeded x to the member `rows` - 1 places later
            below = core.count_le(10**e + rng.randrange(10**e // 10))
            first, last = core.nth(below + 1), core.nth(below + _draw(rng, _SERIES_ROWS))
            plans.append(("R-normalized", first.area, last.area))
        for e in _GRID_EXPONENTS:
            rows = _draw(rng, _SERIES_ROWS)
            lo, step = 10**e + rng.randrange(10**e // 10), rng.randint(1, 1000)
            plans.append(("R-of-x", lo, lo + (rows - 1) * step, step, False))
    return plans


def series_answer(tree, plan: tuple) -> tuple[int, str]:
    """The row count and bytes of the tree's ``emit_series`` on the plan."""
    out = io.StringIO()
    rows = tree[1].emit_series(tree[1].SamplingPlan(*plan), out)
    return rows, out.getvalue()


def series_loop(tree, plans) -> float:
    """Seconds to write each planned series into a StringIO."""
    emit, plan_of = tree[1].emit_series, tree[1].SamplingPlan
    start = time.perf_counter()
    for args in plans:
        emit(plan_of(*args), io.StringIO())
    return time.perf_counter() - start


def verb_argvs(count: int, rng: random.Random) -> list[list[str]]:
    """`count` seeded pioneers and flock argvs in each output format."""
    return [
        [*argv, "--format", fmt]
        for fmt in ("text", "json", "csv")
        for _ in range(count)
        for argv in (("pioneers", str(_draw(rng, _PIONEERS))), ("flock", str(_draw(rng, _FLOCKS))))
    ]


def window_argvs(count: int, rng: random.Random) -> list[list[str]]:
    """`count` seeded dense and sparse list argvs, in csv."""
    argvs = []
    for _ in range(count):
        lo = rng.randint(1, 1000)
        dense = lo, lo + _draw(rng, _DENSE_WIDTHS) - 1
        lo = _draw(rng, _SPARSE_STARTS)
        for window in (dense, (lo, lo + 999)):
            argvs.append(["list", *map(str, window), "--format", "csv"])
    return argvs


def point_argvs(count: int, rng: random.Random) -> list[list[str]]:
    """`count` seeded argvs of each point verb in each format, and `count` sparse windows."""
    argvs = [
        [verb, str(rng.randint(1, 10 ** rng.randint(1, 18) - 1)), "--format", fmt]
        for fmt in ("text", "json", "csv")
        for _ in range(count)
        for verb in ("check", "count", "floor", "nth")
    ]
    for _ in range(count):
        lo = _draw(rng, _SPARSE_STARTS)
        argvs.append(["list", str(lo), str(lo + 999), "--format", "csv"])
    return argvs


def oracle_argvs(top: int, rng: random.Random) -> list[list[str]]:
    """_ORACLE_ARGVS seeded oracle-verify argvs, --limit log-uniform in [top // 10, top]."""
    bounds = max(1, top // 10), top
    return [["oracle-verify", "--limit", str(_draw(rng, bounds))] for _ in range(_ORACLE_ARGVS)]


def main_answer(tree, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the tree's ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tree[2].main(argv)
    return code, out.getvalue(), err.getvalue()


def verbs_loop(tree, argvs) -> float:
    """Seconds to run the tree's cli.main on each argv, stdout into a StringIO."""
    main = tree[2].main
    start = time.perf_counter()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    return time.perf_counter() - start


def point_loop(tree, ns) -> float:
    """Seconds to run the four point queries on each n of ns."""
    core = tree[0]
    member, count, floor = core.is_almost_square, core.count_le, core.floor_almost_square
    nth = core.nth
    start = time.perf_counter()
    for n in ns:
        member(n)
        count(n)
        floor(n)
        nth(n)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the first src/ tree, as the base")
    parser.add_argument("b", type=Path, help="the second src/ tree, timed against it")
    parser.add_argument("--rounds", type=int, default=40, help="rounds to time (default 40)")
    parser.add_argument("--limit", type=int, default=200_000,
                        help="the default loop's largest oracle-verify limit (default 2*10^5)")
    parser.add_argument("--digits", type=int, default=0,
                        help="time the point queries on ints of this many digits instead")
    parser.add_argument("--series", type=int, default=0, metavar="N",
                        help="time emit_series on N windows of each series shape instead")
    parser.add_argument("--verbs", type=int, default=0, metavar="N",
                        help="time cli.main on N pioneers and N flock argvs per format instead")
    parser.add_argument("--windows", type=int, default=0, metavar="N",
                        help="time cli.main on N dense and N sparse list windows instead")
    parser.add_argument("--points", type=int, default=0, metavar="N",
                        help="time cli.main on N argvs per point verb and format "
                             "and N sparse list windows instead")
    args = parser.parse_args(argv)
    counts = args.digits, args.series, args.verbs, args.windows, args.points
    if args.rounds < 4 or args.limit < 1 or min(counts) < 0:
        parser.error("--rounds must be at least 4, --limit at least 1, and --digits, "
                     "--series, --verbs, --windows and --points at least 0")
    trees = load(args.a, "_ab_a"), load(args.b, "_ab_b")
    calls = not (args.series or args.digits)  # a loop of cli.main calls
    if args.series:
        # the plans read members' areas, so they come from the second tree:
        # a first tree older than 4.0.0 returns records with no area
        plans = series_plans(trees[1][0], args.series, random.Random(1))
        for plan in plans:
            if series_answer(trees[0], plan) != series_answer(trees[1], plan):
                print(f"the trees differ on plan {plan}: row count or bytes")
                return 1
        loop, slices = series_loop, [plans[i:i + 1] for i in range(len(plans))]
        label = f"emit_series on {len(plans)} series workload windows and demo plans"
    elif args.digits:
        sys.set_int_max_str_digits(0)
        rng = random.Random(1)
        ns = [int("".join(rng.choices("123456789", k=args.digits))) for _ in range(20)]
        loop, slices = point_loop, [ns[i:i + 1] for i in range(len(ns))]
        label = f"4 point queries at {args.digits} digits"
    else:
        if args.verbs:
            argvs = verb_argvs(args.verbs, random.Random(1))
            label = f"cli.main on {len(argvs)} pioneers and flock argvs"
        elif args.points:
            argvs = point_argvs(args.points, random.Random(1))
            label = f"cli.main on {len(argvs)} point and sparse list argvs"
        elif args.windows:
            argvs = window_argvs(args.windows, random.Random(1))
            label = f"cli.main on {len(argvs)} dense and sparse list windows"
        else:
            argvs = oracle_argvs(args.limit, random.Random(1))
            label = f"cli.main on {len(argvs)} oracle-verify argvs, --limit up to {args.limit}"
        for argv in argvs:
            if main_answer(trees[0], argv) != main_answer(trees[1], argv):
                print(f"the trees differ on `{' '.join(argv)}`: exit code, stdout or stderr")
                return 1
        loop, slices = verbs_loop, [argvs[i:i + 1] for i in range(len(argvs))]
    times: tuple[list[float], list[float]] = ([], [])
    for i in range(-1, args.rounds):  # round -1 warms both trees up, untimed
        gc.collect()
        spent = [0.0, 0.0]
        for j, ns in enumerate(slices):
            for side in (0, 1) if (i + j) % 2 == 0 else (1, 0):
                spent[side] += loop(trees[side], ns)
        if i >= 0:
            times[0].append(spent[0])
            times[1].append(spent[1])
    ratios = [b / a for a, b in zip(*times)]
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    print(f"{label}, {args.rounds} rounds, alternating order")
    if calls:  # every argv was run in both trees before the rounds
        print("  equal exit codes, stdout and stderr in both trees on every argv")
    elif args.series:  # and every plan
        print("  equal row counts and bytes in both trees on every plan")
    print(f"  a {args.a}: median {statistics.median(times[0]) * 1e3:.2f} ms")
    print(f"  b {args.b}: median {statistics.median(times[1]) * 1e3:.2f} ms")
    print(f"  b / a per round: median {med:.4f}, quartiles {q1:.4f} to {q3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
