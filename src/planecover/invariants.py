"""Numerical invariants of the covering surface.

For a smooth (Z/2)^r cover of a smooth rational base with chi(O) = 1, the
holomorphic Euler characteristic is

    chi(O_S) = 2^r + (1/2) * sum over nonzero chi of L_chi . (L_chi + K)

and for any model

    K_S^2 = 2^r * (K + (1/2) * sum D_g)^2,

both evaluated exactly in the Picard lattice.  The bicanonical pullback
class 2K + sum D_g certifies P_2 = 0 (hence rationality, by Castelnuovo)
when it cannot be effective: negative degree, or a negative multiple of an
exceptional class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .cover import CoverModel, derive_building_data
from .errors import DomainError, InconsistencyError
from .lattice import DivisorClass
from .normalize import assert_smooth, smoothness_report


@dataclass(frozen=True)
class InvariantReport:
    """Flat record of the invariants of one model of a cover."""

    chi: int | None
    k_squared: int
    bicanonical_pullback: DivisorClass
    rationality_verdict: str
    surface_centers: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def serialize(self) -> str:
        lines = [
            f"chi = {'?' if self.chi is None else self.chi}",
            f"k2 = {self.k_squared}",
            f"bicanonical = {self.bicanonical_pullback}",
            f"verdict = {self.rationality_verdict}",
            f"surface = plane blown up at [{', '.join(self.surface_centers)}]",
        ]
        lines.extend(f"note = {n}" for n in self.notes)
        return "\n".join(lines)


def euler_characteristic(cover: CoverModel) -> int:
    """chi(O) of the covering surface; the model must be smooth."""
    assert_smooth(cover)
    return _chi_of_smooth(cover)


def _chi_of_smooth(cover: CoverModel) -> int:
    k = lattice.canonical(cover.surface)
    # L_0 = 0 adds nothing to the sum
    total = sum(lattice.intersect(cls, cls + k) for cls in derive_building_data(cover).values())
    if total % 2:
        raise InconsistencyError("building data give a non-integral Euler characteristic")
    return 2**cover.r + total // 2


def canonical_square(cover: CoverModel) -> int:
    """K^2 of the covering surface over the current model."""
    return _k_squared(cover.r, bicanonical_pullback(cover))


def _k_squared(r: int, bicanonical: DivisorClass) -> int:
    value = 2**r * lattice.intersect(bicanonical, bicanonical)
    if value % 4:
        raise InconsistencyError("branch data give a non-integral K^2; check the branch classes")
    return value // 4


def bicanonical_pullback(cover: CoverModel) -> DivisorClass:
    """The base class 2K + sum D_g, whose pullback is 2K of the cover."""
    classes = ((1, cover.branch_class(g)) for g, _ in cover.branch)
    return lattice.linear_combination(
        cover.surface, [(2, lattice.canonical(cover.surface)), *classes]
    )


def _negative_exceptional_multiple(cls: DivisorClass) -> bool:
    if cls.degree != 0 or cls.is_zero:
        return False
    nonzero = list(cls.support.values())
    return len(nonzero) == 1 and nonzero[0] < 0


def _verdict(chi: int | None, bicanonical: DivisorClass) -> tuple[str, tuple[str, ...]]:
    """The verdict from chi (None for a model that is not smooth) and 2K + sum D_g."""
    if chi is None:
        return "inconclusive", ("model not smooth; resolve before asking for a verdict",)
    if chi != 1:
        return "inconclusive", (f"chi = {chi} != 1",)
    if bicanonical.degree < 0:
        return "rational", ("bicanonical pullback has negative degree, so P2 = 0",)
    if _negative_exceptional_multiple(bicanonical):
        return "rational", ("bicanonical pullback is a negative exceptional multiple, so P2 = 0",)
    return "inconclusive", ("bicanonical pullback class may be effective",)


def rationality_verdict(cover: CoverModel) -> tuple[str, tuple[str, ...]]:
    """Conservative verdict: "rational" or "inconclusive", never "irrational"."""
    chi = _chi_of_smooth(cover) if smoothness_report(cover) else None
    return _verdict(chi, bicanonical_pullback(cover))


def invariant_report(cover: CoverModel) -> InvariantReport:
    chi = _chi_of_smooth(cover) if smoothness_report(cover) else None
    bicanonical = bicanonical_pullback(cover)
    verdict, notes = _verdict(chi, bicanonical)
    return InvariantReport(
        chi=chi,
        k_squared=_k_squared(cover.r, bicanonical),
        bicanonical_pullback=bicanonical,
        rationality_verdict=verdict,
        surface_centers=cover.surface.names,
        notes=notes,
    )


def riemann_hurwitz_genus(
    sheets: int, base_genus: int, ramification: list[tuple[int, int]]
) -> int:
    """Genus from 2g - 2 = sheets*(2*base_genus - 2) + sum (e - 1)*count."""
    if sheets < 1:
        raise DomainError("a cover has at least one sheet")
    if base_genus < 0:
        raise DomainError("base genus must be nonnegative")
    ram = 0
    for e, count in ramification:
        if e < 2 or count < 0:
            raise DomainError(f"invalid ramification entry (e={e}, count={count})")
        ram += (e - 1) * count
    total = sheets * (2 * base_genus - 2) + ram
    if total % 2 or total < -2:
        raise InconsistencyError(f"Riemann-Hurwitz total 2g-2 = {total} is not realizable")
    g = (total + 2) // 2
    if g < 0:
        raise InconsistencyError(f"Riemann-Hurwitz data give negative genus {g}")
    return g
