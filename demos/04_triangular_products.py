#!/usr/bin/env python3
"""When is a product of two triangular numbers an almost-square?

Plotting membership of t_m * t_n over the (m, n) grid reveals a
checkerboard: inside a kite-shaped central region, membership depends
on nothing but the parity of n - m.  This script renders a small grid
as text and writes the full table to CSV.
"""

from pathlib import Path

from almost_squares.analysis import (
    SamplingPlan,
    emit_series,
    kite_region_contains,
    tri_product_grid,
)

SIZE = 40
grid = tri_product_grid(SIZE)

print(f"membership of t_m * t_n for 2 <= m, n <= {SIZE}")
print("(# member, . non-member, bracketed when inside the kite region)\n")
header = "      " + "".join(f"{n:>3}" for n in range(2, SIZE + 1, 2))
print(header)
for m in range(2, SIZE + 1, 2):
    cells = []
    for n in range(2, SIZE + 1, 2):
        mark = "#" if grid[m][n] else "."
        inside = kite_region_contains(min(m, n), max(m, n))
        cells.append(f"[{mark}]" if inside and m != n else f" {mark} ")
    print(f"  {m:>3} " + "".join(cells))

print()
print("checkerboard checks inside the region:")
for m, n in ((4, 6), (4, 7), (10, 13), (10, 14)):
    parity = "even" if (n - m) % 2 == 0 else "odd"
    verdict = "member" if grid[m][n] else "not a member"
    print(f"  (m={m}, n={n}): gap {parity}, product is {verdict}")

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)
with open(out_dir / "tri_grid.csv", "w", encoding="utf-8") as fh:
    rows = emit_series(SamplingPlan("tri-grid", 1, 60), fh)
print(f"\nwrote the full {rows}-cell table to {out_dir / 'tri_grid.csv'}")
