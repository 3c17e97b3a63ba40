"""The four workloads: their inputs, the ops of one pass, and the checks.

Why these four -- each loads a different mix of layers:

* ``fixtures``: every fixture document through every document subcommand,
  which is what an interactive user does.  Models stay at rank <= ~8, so
  per-call overhead, classify/reduce, config and cli dominate; scaling work
  in lattice or pull_back is bypassed here.
* ``census``: the census for r in {2, 3, 4} x max degree in {3, 5, 7}, batch
  enumeration over shapes that share structure.  Group pairings, building
  data and repeated normalize/classify dominate; lattices stay small.
* ``arrangement``: invariants of r = 2 line arrangements (3k lines, k in
  each D_g, k declared triple points) for k = 4..12, the only workload whose
  Picard rank grows (211 at k = 12).  pull_back, dense lattice vectors and
  linear-scan lookups dominate; group work is negligible.
* ``random_docs``: fresh seeded documents every pass, normalized and then
  validated.  No input repeats, normalize rewrites every document, config
  serializes and parses on every op, and a fixed share ends in the coded
  parity error.

The seed only permutes: op order within a pass (the same for every pass),
names and declaration order of the arrangement documents, and the random
documents.  fixtures, census and arrangement give the same checked outputs
for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

from harness import HERE, Op, Program, Result

REFERENCE_DIR = HERE / "reference"
FIXTURE_DIR = HERE / "inputs" / "fixtures"
DOC_COMMANDS = ("validate", "normalize", "resolve", "invariants", "classify", "reduce")
CENSUS_GRID = tuple((r, d) for r in (2, 3, 4) for d in (3, 5, 7))
ARRANGEMENT_KS = (4, 6, 8, 10, 12)
DOCS_PER_PASS = 36
DOC_SIZES = tuple(range(4, 13))  # components per random document, cycled
BROKEN_EVERY = 6  # every sixth random document has broken parity


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# -- fixtures ---------------------------------------------------------------


def fixture_ops() -> list[Op]:
    paths = sorted(FIXTURE_DIR.glob("*.cfg"))
    largest = max(paths, key=lambda p: (p.stat().st_size, p.name))
    return [
        Op(f"{p.stem} {cmd}", (cmd, "--input", str(p)), largest=p == largest)
        for p in paths
        for cmd in DOC_COMMANDS
    ]


class Fixtures:
    name = "fixtures"

    def __init__(self, seed: int, reference_dir: Path = REFERENCE_DIR):
        reference = json.loads((reference_dir / "fixtures.json").read_text(encoding="utf-8"))
        self._ops = _shuffled([replace(op, expect=reference[op.key]) for op in fixture_ops()], seed)

    def ops(self, pass_index: int) -> list[Op]:
        return self._ops

    def check(self, program: Program, op: Op, results: list[Result]) -> str | None:
        got, want = results[0], op.expect
        if got.code != want["exit"]:
            return f"exit {got.code}, reference {want['exit']}"
        if got.out != want["stdout"]:
            return "stdout differs from the reference"
        return None


# -- census -----------------------------------------------------------------


def census_ops() -> list[Op]:
    return [
        Op(
            f"census r={r} d={d}",
            ("census", "--r", str(r), "--max-degree", str(d)),
            size=d,
            series=r,
            largest=(r, d) == CENSUS_GRID[-1],
        )
        for r, d in CENSUS_GRID
    ]


def census_reference_path(reference_dir: Path, op: Op) -> Path:
    _, _, r, _, d = op.argv
    return reference_dir / "census" / f"r{r}_d{d}.txt"


class Census:
    name = "census"

    def __init__(self, seed: int, reference_dir: Path = REFERENCE_DIR):
        ops = [
            replace(op, expect=census_reference_path(reference_dir, op).read_text(encoding="utf-8"))
            for op in census_ops()
        ]
        self._ops = _shuffled(ops, seed)

    def ops(self, pass_index: int) -> list[Op]:
        return self._ops

    def check(self, program: Program, op: Op, results: list[Result]) -> str | None:
        got = results[0]
        if got.code != 0:
            return f"exit {got.code}"
        if got.out != op.expect:
            return "table differs from the reference"
        return None


# -- arrangement --------------------------------------------------------------


def arrangement_document(k: int, rng: random.Random) -> str:
    """3k lines, k in each of D_10, D_01, D_11, and k declared triple points.

    Triple point i carries line i of each D_g; every other crossing is
    undeclared, i.e. general.  ``rng`` picks the names and the order of
    every declaration, none of which changes the surface.
    """
    points = [f"t{n}" for n in rng.sample(range(k), k)]
    names = [f"L{n}" for n in rng.sample(range(3 * k), 3 * k)]
    lines = []
    branch = []
    for j, element in enumerate(("10", "01", "11")):
        members = names[j * k : (j + 1) * k]
        lines += [f"{name} = degree 1, mult({points[i]}) = 1" for i, name in enumerate(members)]
        branch.append(f"{element} = " + ", ".join(rng.sample(members, k)))
    rng.shuffle(lines)
    rng.shuffle(branch)
    centers = [f"{p} = point" for p in rng.sample(points, k)]
    sections = ["[cover]\nr = 2", "[centers]", *centers, "", "[components]", *lines, ""]
    return "\n".join(sections + ["[branch]", *branch]) + "\n"


def parse_invariants(out: str) -> dict[str, int]:
    """chi, k2, resolution_rounds and Picard rank from ``invariants`` output."""
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    centers = fields["surface"].removeprefix("plane blown up at [").removesuffix("]")
    return {
        "chi": int(fields["chi"]),
        "k2": int(fields["k2"]),
        "resolution_rounds": int(fields["resolution_rounds"]),
        "rank": 1 + len([c for c in centers.split(", ") if c]),
    }


def arrangement_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [
        Op(
            f"arrangement k={k}",
            ("invariants", "--input", "-"),
            stdin=arrangement_document(k, rng),
            size=k,
            largest=k == ARRANGEMENT_KS[-1],
        )
        for k in ARRANGEMENT_KS
    ]


class Arrangement:
    name = "arrangement"

    def __init__(self, seed: int, reference_dir: Path = REFERENCE_DIR):
        reference = json.loads((reference_dir / "arrangement.json").read_text(encoding="utf-8"))
        ops = [replace(op, expect=reference[str(op.size)]) for op in arrangement_ops(seed)]
        self._ops = _shuffled(ops, seed)

    def ops(self, pass_index: int) -> list[Op]:
        return self._ops

    def check(self, program: Program, op: Op, results: list[Result]) -> str | None:
        got = results[0]
        if got.code != 0:
            return f"exit {got.code}"
        try:
            record = parse_invariants(got.out)
        except (KeyError, ValueError):
            return "invariants output does not parse"
        if record != op.expect:
            return f"{record} differs from the reference {op.expect}"
        return None


# -- random documents ---------------------------------------------------------


def _bezout_ok(new: dict[str, int], degree: int, curves: list[tuple[int, dict[str, int]]]) -> bool:
    return all(
        sum(m * mults.get(p, 0) for p, m in new.items()) <= degree * d for d, mults in curves
    )


def random_document(rng: random.Random, size: int, broken: bool) -> str:
    """A plane document whose branch data normalize to a valid cover.

    Every component gets a target element t and is spread over D_h and
    D_(t+h) with multiplicity 1 and over a third D_u with multiplicity 2, so
    normalize has to move and strip it.  A line fixes the parity (the
    elements carrying odd degree must sum to zero); a broken document gets
    one more line, which no normalization can repair.  The curves obey
    m <= d (m < d unless a line), the genus bound, proximity and Bezout.
    """
    r = rng.choice((2, 3, 4))
    elements = list(range(1, 2**r))
    points = [f"p{n}" for n in rng.sample(range(10), rng.randint(2, 5))]
    parent = rng.choice(points)
    child = f"{parent}y"
    curves: list[tuple[int, dict[str, int]]] = []
    for _ in range(size):
        degree = rng.choice((1, 1, 2, 3))
        chosen = rng.sample(points, rng.randint(0, min(len(points), 2 if degree == 1 else 4)))
        mults = {p: 1 for p in chosen}
        if degree == 3 and chosen and rng.random() < 0.5:
            mults[chosen[0]] = 2
        if mults.get(parent) and rng.random() < 0.5:
            mults[child] = 1
        while not _bezout_ok(mults, degree, curves):
            drop = rng.choice(sorted(set(mults) - {child}))
            del mults[drop]
            if drop == parent:
                mults.pop(child, None)
        curves.append((degree, mults))
    targets = [1 << i for i in range(r)] + [rng.choice(elements) for _ in range(size - r)]
    odd = 0
    for (degree, _), t in zip(curves, targets):
        if degree % 2:
            odd ^= t
    extra = [odd] if odd else []
    if broken:
        extra.append(rng.choice(elements))
    for t in extra:
        curves.append((1, {rng.choice(points): 1}))
        targets.append(t)

    names = [f"c{n}" for n in rng.sample(range(100), len(curves))]
    branch: dict[int, list[str]] = {}
    for name, t in zip(names, targets):
        h = rng.choice([g for g in elements if g != t])
        u = rng.choice([g for g in elements if g not in (h, t ^ h)])
        branch.setdefault(h, []).append(name)
        branch.setdefault(t ^ h, []).append(name)
        branch.setdefault(u, []).append(f"{name}*2")
    components = [
        f"{name} = degree {degree}"
        + "".join(f", mult({p}) = {m}" for p, m in sorted(mults.items()))
        for name, (degree, mults) in zip(names, curves)
    ]
    rng.shuffle(components)
    branch_lines = [
        f"{g:0{r}b} = " + ", ".join(rng.sample(entries, len(entries))) for g, entries in branch.items()
    ]
    rng.shuffle(branch_lines)
    centers = [f"{p} = point" for p in points] + [f"{child} = near {parent}"]
    return "\n".join(
        [f"[cover]\nr = {r}", "", "[centers]", *centers, "", "[components]", *components, "", "[branch]"]
        + branch_lines
    ) + "\n"


class RandomDocs:
    name = "random_docs"

    def __init__(self, seed: int):
        self.seed = seed
        order = list(range(DOCS_PER_PASS))
        random.Random(seed).shuffle(order)
        self._order = order

    def ops(self, pass_index: int) -> list[Op]:
        """Fresh documents for every pass, so no input ever repeats within a run."""
        rng = random.Random(f"{self.seed}/{pass_index}")
        ops = []
        for i in range(DOCS_PER_PASS):
            size = DOC_SIZES[i % len(DOC_SIZES)]
            broken = i % BROKEN_EVERY == BROKEN_EVERY - 1
            ops.append(
                Op(
                    f"doc{i}",
                    ("normalize", "--input", "-"),
                    stdin=random_document(rng, size, broken),
                    then=("validate", "--input", "-"),
                    largest=size == DOC_SIZES[-1],
                    expect="parity" if broken else "ok",
                )
            )
        return [ops[i] for i in self._order]

    def check(self, program: Program, op: Op, results: list[Result]) -> str | None:
        normalized, validated = results
        if normalized.code != 0:
            return f"normalize exit {normalized.code}"
        try:
            program.config.parse(normalized.out)
        except program.errors.CoverError as exc:
            return f"normalized text does not parse: {exc}"
        again = program.invoke(("normalize", "--input", "-"), normalized.out)
        if again.code != 0 or again.out != normalized.out:
            return "normalized text does not re-normalize to itself"
        if op.expect == "parity":
            if validated.code != 3 or not validated.err.startswith("error[parity]"):
                return f"broken parity ended in exit {validated.code}: {validated.err.strip()}"
            return None
        lines = validated.out.splitlines()
        if validated.code != 0 or lines[:2] != ["totally_ramified = true", "parity = ok"]:
            return f"validate exit {validated.code}: {validated.err.strip()}"
        if len(lines) != 3 or not lines[2].startswith("prod_relations = ok ("):
            return "product relations not reported ok"
        return None


WORKLOADS = {w.name: w for w in (Fixtures, Census, Arrangement, RandomDocs)}
