#!/usr/bin/env python3
"""Find the most wire-efficient integer rectangle under an area budget.

A rectangle of area n and semiperimeter s encloses n / s units of area
per unit of fence.  Insisting on integer side lengths makes this a
number-theory question: the budgets worth using exactly are the
"almost-squares", and for any other budget you should round down to the
nearest one.
"""

from almost_squares import count_le, floor_almost_square, is_almost_square

BUDGET = 190

print(f"land budget: {BUDGET} square feet")

rect = is_almost_square(BUDGET)
if rect is None:
    print(f"{BUDGET} itself is not an almost-square, so don't use all of it")

best = floor_almost_square(BUDGET)
ratio = best.area / best.semiperimeter
print(
    f"best choice: {best.width} x {best.length} = {best.area}, "
    f"fence semiperimeter {best.semiperimeter}, "
    f"{ratio:.3f} sq ft per fence-foot"
)

naive_s = min(d + BUDGET // d for d in range(1, BUDGET + 1) if BUDGET % d == 0)
print(
    f"using the full {BUDGET} sq ft would need semiperimeter {naive_s} "
    f"({BUDGET / naive_s:.3f} sq ft per fence-foot), strictly worse"
)

print()
print(f"it is the {count_le(best.area)}th almost-square; the sequence starts:")
from almost_squares import enumerate_range

print(" ", [r.area for r in enumerate_range(1, 100)])

# the same machinery is instant at any scale
big_budget = 8_675_309
big = floor_almost_square(big_budget)
print()
print(
    f"with {big_budget:,} sq ft the answer is a "
    f"{big.width:,} x {big.length:,} supercoop ({big.area:,} sq ft)"
)
