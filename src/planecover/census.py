"""Deterministic enumeration of conic-bundle branch patterns.

The census walks the shapes of the invariant-conic-bundle families up to a
degree bound, one plane model per shape with p as the marked pencil point:
three pencil lines (r = 2); pencil lines plus an odd curve with
multiplicity d-2 or d-1 at p (r = 2, 3); three curves of one parity with
(d-1)-fold points at p, plus pencil lines (r = 2, 3, 4).  Each is validated,
classified and resolved for its invariants, and rows are deduplicated by
the shape of the reduced model, so the multiplicity-(d-1) variants fold into
their reduced normal forms and patterns are shapes, not moduli.

A row builds one model, its plane model: the shape key reads the record a
reduction recipe returns (or the plane model's record), and the invariants
read the record ``resolve`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify as classify_mod
from . import invariants as invariants_mod
from .cover import CoverModel, ModelRecord, plane_cover, to_record
from .errors import DomainError
from .group import GroupElement
from .normalize import resolve


@dataclass(frozen=True)
class CensusRow:
    pattern: str
    label: str
    chi: int
    k_squared: int


@dataclass(frozen=True)
class CensusTable:
    r: int
    max_degree: int
    rows: tuple[CensusRow, ...]

    def to_text(self) -> str:
        header = f"census r={self.r} max_degree={self.max_degree}"
        widths = [
            max([len("pattern")] + [len(row.pattern) for row in self.rows]),
            max([len("label")] + [len(row.label) for row in self.rows]),
        ]
        lines = [header, f"{'pattern'.ljust(widths[0])}  {'label'.ljust(widths[1])}  chi  k2"]
        for row in self.rows:
            lines.append(
                f"{row.pattern.ljust(widths[0])}  {row.label.ljust(widths[1])}  "
                f"{row.chi}  {row.k_squared}"
            )
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        lines = ["pattern\tlabel\tchi\tk2"]
        for row in self.rows:
            lines.append(f"{row.pattern}\t{row.label}\t{row.chi}\t{row.k_squared}")
        return "\n".join(lines) + "\n"


# the pencil lines beside the odd curve W, whose element is 1...1
_ODD_CURVE_LINES = {2: (("A", "10"), ("B", "01")), 3: (("A", "100"), ("B", "010"), ("C", "001"))}
# the elements of A, B and C, and the pencil lines beside them
_TRIPLES = {
    2: (("10", "01", "11"), ()),
    3: (("100", "010", "110"), (("K1", "001"), ("K2", "001"))),
    4: (("1000", "0100", "1100"), (("K1", "0010"), ("K2", "0001"), ("K3", "0011"))),
}
_PENCIL_LINES = {2: "pencil pair", 3: "pencil triple"}


def _pencil_model(r: int, rows: list[tuple[str, str, int, int]]) -> CoverModel:
    """The plane model of rows (curve id, element, degree, multiplicity at the
    pencil point p), each curve once in its element's branch divisor."""
    branch: dict[str, list[tuple[str, int]]] = {}
    for cid, g, _, _ in rows:
        branch.setdefault(g, []).append((cid, 1))
    comps = [(cid, d, {"p": m} if m else {}) for cid, _, d, m in rows]
    return plane_cover(r, comps, branch, marked=[("p", None)], pencil="p")


def _candidates(r: int, max_degree: int):
    lines = [(cid, g, 1, 1) for cid, g in _ODD_CURVE_LINES.get(r, ())]
    if r == 2:
        yield "three pencil lines", _pencil_model(2, lines + [("C", "11", 1, 1)])
    for d in range(1, max_degree + 1, 2) if lines else ():  # no odd curve for r = 4
        for mult in sorted({max(d - 2, 0), d - 1}):
            pattern = f"{_PENCIL_LINES[len(lines)]} + odd curve d={d} mult={mult}"
            yield pattern, _pencil_model(r, lines + [("W", "1" * r, d, mult)])
    elements, beside = _TRIPLES[r]
    suffix = f" + {_PENCIL_LINES[len(beside)]}" if beside else ""
    for degrees in _parity_triples(max_degree):
        if degrees == (1, 1, 1) and r == 2:
            continue  # three general lines: already the reduced d=1 pattern
        rows = [(cid, g, d, d - 1) for cid, g, d in zip("ABC", elements, degrees)]
        rows += [(cid, g, 1, 1) for cid, g in beside]
        yield f"three curves degrees={degrees}{suffix}", _pencil_model(r, rows)


def _parity_triples(max_degree: int):
    for a in range(1, max_degree + 1):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                if a % 2 == b % 2 == c % 2:
                    yield (a, b, c)


def _shape_key(record: ModelRecord) -> tuple:
    """r and, per nonzero g, the (degree, multiplicity at the pencil point)
    of the curves of D_g, on a normalized record."""
    shapes: dict[int, list[tuple[int, int]]] = {}
    for cid, g in record.carrier.items():
        shape = (record.coeffs[cid].get(0, 0), record.mult_at(cid, record.pencil))
        shapes.setdefault(g, []).append(shape)
    profile = (
        (str(GroupElement._of(record.r, g)), tuple(sorted(shape))) for g, shape in shapes.items()
    )
    return (record.r, tuple(sorted(profile)))


def census(r: int, max_degree: int) -> CensusTable:
    """Classify every conic-bundle shape with curves of degree <= max_degree."""
    if r not in (2, 3, 4):
        raise DomainError(f"census supports r in {{2, 3, 4}}, got {r}")
    if not 1 <= max_degree <= 7:
        raise DomainError(f"max_degree must be between 1 and 7, got {max_degree}")
    rows = []
    seen: set[tuple] = set()
    for pattern, model in _candidates(r, max_degree):
        label = classify_mod.classify(model)  # check_cover: parity, then ramification
        reduced = label.reduce()[0] if label.reduce is not None else to_record(model)
        key = _shape_key(reduced)
        if key in seen:
            continue
        seen.add(key)
        report = invariants_mod.invariant_report(resolve(model))
        rows.append(CensusRow(pattern, label.serialize(), report.chi, report.k_squared))
    rows.sort(key=lambda row: row.pattern)
    return CensusTable(r, max_degree, tuple(rows))
