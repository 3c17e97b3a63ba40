"""Deterministic enumeration of conic-bundle branch patterns.

The census walks the degree/multiplicity shapes of the invariant-conic-
bundle families up to a degree bound, validates each, classifies it and
computes its invariants on the resolved model.  Patterns are shapes, not
moduli: configurations differing only by the position of general curves
share a row, and shapes that become equal after Cremona reduction are
deduplicated (the multiplicity-(d-1) variants fold into their reduced
normal forms).

A row builds one model, its plane model: the shape key reads the record a
reduction recipe returns (or the plane model's record), and the invariants
read the record ``resolve`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify as classify_mod
from . import invariants as invariants_mod
from .cover import CoverModel, ModelRecord, is_totally_ramified, plane_cover, to_record
from .errors import DomainError, InconsistencyError
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


def _pencil_lines_model() -> CoverModel:
    return plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("C", 1, {"p": 1})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("C", 1)]},
        marked=[("p", None)],
        pencil="p",
    )


def _odd_curve_model(r: int, d: int, mult: int) -> CoverModel:
    if r == 2:
        lines = [("A", 1, {"p": 1}), ("B", 1, {"p": 1})]
        branch = {"10": [("A", 1)], "01": [("B", 1)], "11": [("W", 1)]}
    else:
        lines = [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("C", 1, {"p": 1})]
        branch = {
            "100": [("A", 1)],
            "010": [("B", 1)],
            "001": [("C", 1)],
            "111": [("W", 1)],
        }
    curve = ("W", d, {"p": mult} if mult else {})
    return plane_cover(r, lines + [curve], branch, marked=[("p", None)], pencil="p")


def _triple_model(r: int, degrees: tuple[int, int, int]) -> CoverModel:
    """Three curves with (degree-1)-fold points at p, plus r-2 pencil-line elements."""
    comps = [(cid, d, {"p": d - 1} if d > 1 else {}) for cid, d in zip("ABC", degrees)]
    if r == 2:
        branch = {"10": [("A", 1)], "01": [("B", 1)], "11": [("C", 1)]}
    elif r == 3:
        comps += [("K1", 1, {"p": 1}), ("K2", 1, {"p": 1})]
        branch = {
            "100": [("A", 1)],
            "010": [("B", 1)],
            "110": [("C", 1)],
            "001": [("K1", 1), ("K2", 1)],
        }
    else:
        comps += [("K1", 1, {"p": 1}), ("K2", 1, {"p": 1}), ("K3", 1, {"p": 1})]
        branch = {
            "1000": [("A", 1)],
            "0100": [("B", 1)],
            "1100": [("C", 1)],
            "0010": [("K1", 1)],
            "0001": [("K2", 1)],
            "0011": [("K3", 1)],
        }
    return plane_cover(r, comps, branch, marked=[("p", None)], pencil="p")


def _candidates(r: int, max_degree: int):
    if r == 2:
        yield "three pencil lines", _pencil_lines_model()
        for d in range(1, max_degree + 1, 2):
            for mult in sorted({max(d - 2, 0), d - 1}):
                yield f"pencil pair + odd curve d={d} mult={mult}", _odd_curve_model(2, d, mult)
        for degrees in _parity_triples(max_degree):
            if degrees == (1, 1, 1):
                continue  # three general lines: already the reduced d=1 pattern
            yield f"three curves degrees={degrees}", _triple_model(2, degrees)
    elif r == 3:
        for d in range(1, max_degree + 1, 2):
            for mult in sorted({max(d - 2, 0), d - 1}):
                yield f"pencil triple + odd curve d={d} mult={mult}", _odd_curve_model(3, d, mult)
        for degrees in _parity_triples(max_degree):
            yield f"three curves degrees={degrees} + pencil pair", _triple_model(3, degrees)
    else:
        for degrees in _parity_triples(max_degree):
            yield f"three curves degrees={degrees} + pencil triple", _triple_model(4, degrees)


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
        if not is_totally_ramified(model):
            raise InconsistencyError(f"census generated an invalid pattern: {pattern}")
        label = classify_mod.classify(model)  # the matcher checks parity
        reduced = label.reduce()[0] if label.reduce is not None else to_record(model)
        key = _shape_key(reduced)
        if key in seen:
            continue
        seen.add(key)
        report = invariants_mod.invariant_report(resolve(model))
        rows.append(CensusRow(pattern, label.serialize(), report.chi, report.k_squared))
    rows.sort(key=lambda row: row.pattern)
    return CensusTable(r, max_degree, tuple(rows))
