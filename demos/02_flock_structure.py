#!/usr/bin/env python3
"""Walk the flock structure: shared semiperimeters, extents, and pioneers.

Almost-squares arrive in flocks that share one semiperimeter.  The k-th
flock is empty for k = 1, then grows roughly like sqrt(k)/2; a flock
that outgrows its predecessor of the same parity is opened by a
"pioneer", and the pioneers are exactly the products of consecutive
triangular numbers.
"""

from almost_squares import flock_members, pioneer, seq_a, seq_b

print("the first dozen flocks:")
for k in range(1, 13):
    members = flock_members(k)
    shown = ", ".join(f"{r.width}x{r.length}={r.area}" for r in members)
    print(f"  flock {k:2d}: {shown if shown else '(empty)'}")

print()
print("flock sizes are controlled by two slowly growing extents:")
for m in (10, 100, 1000, 10**6):
    print(
        f"  m = {m:>8}: odd flock 2m-1 has {1 + seq_a(m):4d} members, "
        f"even flock 2m has {1 + seq_b(m):4d}"
    )

print()
print("pioneers (first member of each suddenly-longer flock):")
for j in range(1, 9):
    w, l = pioneer(j)  # t(j+1) x t(j+2), whose semiperimeter is the flock it opens
    print(f"  pioneer {j}: {w} x {l} = {w * l}, opening flock {w + l} = {j + 1}^2")

print()
print("even-numbered pioneers tie the ratio record instead of beating it:")
for j in (2, 4, 6):
    rect = pioneer(j)
    value, k = rect.area, rect.semiperimeter
    members = flock_members(k - 1) or flock_members(k - 2)
    prev = members[-1]
    print(
        f"  {value}/{k} = {value / k:.6f}  equals  "
        f"{prev.area}/{prev.semiperimeter} = {prev.area / prev.semiperimeter:.6f}"
    )
