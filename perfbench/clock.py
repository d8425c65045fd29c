"""A reference clock for a machine whose speed drifts.

On a shared virtual machine the same op, on the same input, can take 40%
longer in one run than in the next.  The other tenants cause that, not
the program, and it swamps the differences the benchmark exists to see.
So every timed interval is preceded by a fixed calibration kernel, and
the interval is scaled by how long the kernel took:

    reference time = wall time * REFERENCE_KERNEL_S / kernel time

On a machine that runs the kernel in REFERENCE_KERNEL_S, reference time
is wall time.  The kernel is plain Python and never touches setprob, so
a change to setprob moves reference time exactly as it moves wall time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's time on a 2-vCPU Xeon virtual machine at its fastest, as a
# round constant, so that reference times read close to quiet wall times.
REFERENCE_KERNEL_S = 0.0005


class _Point:
    __slots__ = ("block", "index", "key")

    def __init__(self, block: int, index: int):
        self.block = block
        self.index = index
        self.key = (0, block, index)


def kernel() -> Fraction:
    """Fixed interpreter work of the kinds the engine's hot paths do:
    slotted objects, sorting by tuple keys, dict and set building,
    string formatting and exact rational sums."""
    points = [_Point(i % 7, (i * 37) % 300) for i in range(300)]
    points.sort(key=lambda p: p.key)
    groups: dict[int, set[str]] = {}
    for p in points:
        groups.setdefault(p.block, set()).add(f"o{p.block}.{p.index}")
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(len(groups[i % 7]), i)
    return total


def scale() -> float:
    """Run the kernel once; the factor that turns the next interval's
    wall time into reference time."""
    start = perf_counter()
    kernel()
    return REFERENCE_KERNEL_S / (perf_counter() - start)
