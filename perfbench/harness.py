"""The program under test and the closed loop that drives it.

planecover is imported from the ``src/`` directory of the checkout this
file lives in, never from anywhere else, and driven through
``planecover.cli.main(argv)`` in this process with stdin, stdout and stderr
swapped for in-memory buffers.  One client, one thread: an op starts when
the previous one has returned.
"""

from __future__ import annotations

import importlib
import io
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass(frozen=True)
class Op:
    """One unit of work: a CLI call, optionally piped into a second one."""

    key: str  # names the input and command; the same for every seed
    argv: tuple[str, ...]
    stdin: str | None = None
    then: tuple[str, ...] | None = None  # second call, reading the first one's stdout
    size: int = 0  # position on the workload's growth axis (0: none)
    series: int = 0  # growth fits compare sizes within one series only
    largest: bool = False  # an op on the workload's largest input
    expect: object = None  # what the workload's check compares against


@dataclass(frozen=True)
class Result:
    code: int | None  # None: the call raised something other than a coded error
    out: str
    err: str
    seconds: float


class Program:
    """planecover, loaded from this checkout's sources."""

    def __init__(self):
        if not (SRC / "planecover" / "cli.py").is_file():
            raise SystemExit(f"perfbench: planecover sources not found under {SRC}")
        sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("planecover.cli")
        self.config = importlib.import_module("planecover.config")
        self.errors = importlib.import_module("planecover.errors")
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: planecover was imported from {self.cli.__file__}")

    def invoke(self, argv: tuple[str, ...], stdin: str | None = None) -> Result:
        """Run one CLI call; ``cli.main`` is looked up per call so a tracer can wrap it."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.StringIO(stdin if stdin is not None else "")
        sys.stdout, sys.stderr = out, err
        try:
            start = perf_counter()
            try:
                code = self.cli.main(list(argv))
            except Exception:  # an uncoded failure is a failed op, never a crash of the loop
                code = None
                traceback.print_exc(file=err)
            except SystemExit as exc:  # argparse rejecting argv
                code = None
                err.write(f"SystemExit({exc.code})\n")
            seconds = perf_counter() - start
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return Result(code, out.getvalue(), err.getvalue(), seconds)

    def run(self, op: Op) -> list[Result]:
        first = self.invoke(op.argv, op.stdin)
        if op.then is None:
            return [first]
        return [first, self.invoke(op.then, first.out)]


def latency(results: list[Result]) -> float:
    return sum(r.seconds for r in results)


def run_pass(program: Program, ops: list[Op], tracer=None, first_op_id: int = 0):
    """Run ops back to back; returns (pass seconds, results per op)."""
    results = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        results.append(program.run(op))
    return perf_counter() - start, results
