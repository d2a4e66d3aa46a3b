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

The default loop is ``is_almost_square(n)`` and ``count_le(n)`` for every
n up to ``--limit`` (2*10^5), the calls ``oracle-verify`` makes per n.
With ``--digits`` it is ``is_almost_square``, ``count_le``,
``floor_almost_square`` and ``nth`` on 20 seeded random ints of that many
digits, each both an n and an index j.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

_SLICE = 2000  # the default loop's n per slice


def load(src: Path, name: str):
    """The ``almost_squares.core`` under ``src``, imported as package ``name``."""
    init = src / "almost_squares" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".core")


def point_loop(core, ns) -> float:
    """Seconds to run the four point queries on each n of ns."""
    member, count, floor = core.is_almost_square, core.count_le, core.floor_almost_square
    nth = core.nth
    start = time.perf_counter()
    for n in ns:
        member(n)
        count(n)
        floor(n)
        nth(n)
    return time.perf_counter() - start


def oracle_loop(core, ns) -> float:
    """Seconds to run oracle-verify's two calls on each n of ns."""
    member, count = core.is_almost_square, core.count_le
    start = time.perf_counter()
    for n in ns:
        member(n)
        count(n)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the first src/ tree, as the base")
    parser.add_argument("b", type=Path, help="the second src/ tree, timed against it")
    parser.add_argument("--rounds", type=int, default=40, help="rounds to time (default 40)")
    parser.add_argument("--limit", type=int, default=200_000,
                        help="the default loop's largest n (default 2*10^5)")
    parser.add_argument("--digits", type=int, default=0,
                        help="time the point queries on ints of this many digits instead")
    args = parser.parse_args(argv)
    if args.rounds < 4 or args.limit < 1 or args.digits < 0:
        parser.error("--rounds must be at least 4, --limit at least 1 and --digits at least 0")
    if args.digits:
        sys.set_int_max_str_digits(0)
        rng = random.Random(1)
        ns = [int("".join(rng.choices("123456789", k=args.digits))) for _ in range(20)]
        loop, slices = point_loop, [ns[i:i + 1] for i in range(len(ns))]
        label = f"4 point queries at {args.digits} digits"
    else:
        loop = oracle_loop
        slices = [range(lo, min(lo + _SLICE, args.limit + 1))
                  for lo in range(1, args.limit + 1, _SLICE)]
        label = f"oracle-verify's calls for n <= {args.limit}"
    trees = load(args.a, "_ab_a"), load(args.b, "_ab_b")
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
    print(f"  a {args.a}: median {statistics.median(times[0]) * 1e3:.2f} ms")
    print(f"  b {args.b}: median {statistics.median(times[1]) * 1e3:.2f} ms")
    print(f"  b / a per round: median {med:.4f}, quartiles {q1:.4f} to {q3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
