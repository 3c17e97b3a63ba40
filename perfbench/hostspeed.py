"""The host's speed during a run, read off a fixed pure-Python kernel.

The benchmark shares a few cores with other tenants of its host, and their
load moves every timing of a run alike, by tens of percent over minutes:
census r=4 d=7 took 330 ms when the ROADMAP was written and 516 ms later,
and the same census pass has taken 1.0 to 1.7 s within ten minutes.  No
statistic over one run's passes removes a drift that lasts as long as the
run.  So the run also times a fixed kernel in a short slice after each
pass, and scales every time measured in the pass by ``REFERENCE_S / mean
kernel time of the slice``: the time the op would take on the host at its
reference speed.  Scaling pass by pass follows a drift within the run
too.  The kernel does the kinds of work planecover does (integer vectors
and their products, dicts keyed by tuples, string splitting and joining)
and never calls planecover, so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

#: The mean kernel time on the 2-vCPU x86-64 VM (Python 3.11) the benchmark
#: was tuned on; a scaled time equals the measured one when the host runs
#: at that speed.
REFERENCE_S = 0.0130


def kernel() -> int:
    """A fixed mix of integer-vector, dict and string work (REFERENCE_S at the reference speed)."""
    rows = [[(i * j) % 7 - 3 for j in range(12)] for i in range(12)]
    for _ in range(36):
        rows = [[sum(a * b for a, b in zip(r, c)) % 11 - 5 for c in zip(*rows)] for r in rows]
    table: dict[tuple[int, int], int] = {}
    for i in range(7500):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + i * i % 97
    text = "\n".join(f"c{i} = degree {i % 4}, mult(p{i % 9}) = {i % 3}" for i in range(1200))
    fields = [line.split(" = ", 1)[1].split(", ") for line in text.splitlines()]
    return rows[0][0] + sum(table.values()) + sum(len(f) for f in fields)


class HostSpeed:
    """Kernel slices run between the passes of a run."""

    def __init__(self):
        self.factors: list[float] = []
        self.spent = 0.0
        self.count = 0

    def sample(self, budget_s: float) -> float:
        """Time the kernel at least once and until ``budget_s`` is spent.

        Returns the factor that takes a time measured just before this slice
        to the reference speed: ``REFERENCE_S / mean kernel time``.
        """
        times: list[float] = []
        while not times or sum(times) < budget_s:
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.spent += sum(times)
        self.count += len(times)
        self.factors.append(REFERENCE_S * len(times) / sum(times))
        return self.factors[-1]
