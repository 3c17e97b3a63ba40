"""Print how ``resolve`` + ``invariant_report`` scale on line arrangements.

For k = 16, 32, 64, 128: the 3k lines of an r = 2 cover, k in each D_g,
with k declared triple points (line i of each D_g) and every other
crossing general.  One line per k gives the Picard rank of the resolved
surface, the number of crossings ``resolve`` counted (3 * k(k-1)/2, each
a center of that surface), and the best of five times of ``resolve``
followed by ``invariant_report``; the last line gives the least-squares
slope of log(time) against log(k).  The rank grows as k^2, so a cost
linear in the Picard rank shows as a slope near 2.

    python3 tests/arrangement_scaling.py

Only the standard library is used, and nothing is asserted: the times
depend on the machine.  The file name has no ``test_`` prefix, so pytest
does not collect it.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planecover.cover import plane_cover  # noqa: E402
from planecover.invariants import invariant_report  # noqa: E402
from planecover.normalize import resolve  # noqa: E402

KS = (16, 32, 64, 128)
REPEATS = 5


def line_arrangement(k: int):
    """The arrangement above, as ``tests/test_invariants.py`` builds it."""
    comps = [(f"L{j}_{i}", 1, {f"t{i}": 1}) for j in range(3) for i in range(k)]
    branch = {g: [(f"L{j}_{i}", 1) for i in range(k)] for j, g in enumerate(("10", "01", "11"))}
    return plane_cover(2, comps, branch, marked=[(f"t{i}", None) for i in range(k)])


def best_time(k: int) -> tuple[int, int, float]:
    """(resolved Picard rank, crossings, best of ``REPEATS`` times in
    seconds) for one k."""
    model = line_arrangement(k)
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = resolve(model)
        invariant_report(result)
        best = min(best, time.perf_counter() - start)
    crossings = len(result.crossings)
    return 1 + len(result.record.centers) + crossings, crossings, best


def slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    times = []
    for k in KS:
        rank, crossings, seconds = best_time(k)
        times.append(seconds)
        print(
            f"k={k:3d}  picard_rank={rank:5d}  crossings={crossings:5d}  "
            f"best_of_{REPEATS}_s={seconds:.4f}"
        )
    fit = slope([math.log(k) for k in KS], [math.log(t) for t in times])
    print(f"log-log slope in k: {fit:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
