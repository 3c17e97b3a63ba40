"""Numerical invariants of the covering surface.

For a smooth (Z/2)^r cover of a smooth rational base with chi(O) = 1, the
holomorphic Euler characteristic is

    chi(O_S) = 2^r + (1/2) * sum over chi of L_chi . (L_chi + K),

with 2 L_chi = S_chi = sum over nonzero g of eps_chi(g) D_g, and for any
model

    K_S^2 = 2^r * (K + (1/2) * sum D_g)^2,

both evaluated exactly in the Picard lattice.  No L_chi is built for chi:
for nonzero g and h, the characters odd on both are 2^(r-1) when g = h and
2^(r-2) otherwise, so with D = sum D_g

    sum S_chi^2 = 2^(r-2) (D^2 + sum D_g^2),   sum S_chi . K = 2^(r-1) D.K,
    32 (chi - 2^r) = 2^r (D^2 + sum D_g^2 + 4 D.K),

one pass over the coefficients of the [D_g], whatever r is.  D.K and D^2
come from the bicanonical class B = 2K + D the report needs anyway, with
K^2 = 9 - n on the plane blown up n times: D.K = B.K - 2K^2 and D^2 = B^2 -
4K^2 - 4 D.K.  The bicanonical pullback class B certifies P_2 = 0 (hence
rationality, by Castelnuovo) when it cannot be effective: negative degree,
or a negative multiple of an exceptional class.

``invariant_report`` builds no model, no K, no [D_g] and no intersection:
one sweep over the nonzero coefficients of the curves of the record before
the crossing rounds (``cover.branch_classes``) gives each D_g, the sum of the curves with
carrier g (so sum D_g^2), and D, and the curves give sum C_i^2.  Parity is
read off the D_g (``cover.odd_character``): mod 2, the XOR of the g whose
D_g has an odd coefficient at a slot is that of the carriers of the curves
with one there, so the first odd character is the one a pass over the
curves finds.  With K =
-3H + E_1 + ... + E_n and the form diag(+1, -1, ..., -1), B is formed slot
by slot (``_bicanonical``), reading its numbers as it goes:

    B_0 = D_0 - 6,   B_i = D_i + 2 (i = 1..n),
    B^2 = B_0^2 - sum_i B_i^2,   B.K = -3 B_0 - sum_i B_i.

B is dense, so that last loop runs over the n slots; every other step runs
over nonzero coefficients only.

Each report is checked by Noether's formula 12 chi = K_S^2 + e(S), with
e(S) counted from the branch curve D = sum C_i of the smooth model Y: over
Y - D the cover has 2^r sheets, over the smooth points of D 2^(r-1), over
its N nodes 2^(r-2).  So e(S) = 2^r (e(Y) - e(D)) + 2^(r-1) (e(D) - N) +
2^(r-2) N, with e(Y) = 3 + n, e(D) = sum -C_i.(C_i + K) - N = -sum C_i^2 -
D.K - N and N = (D^2 - sum C_i^2) / 2, since D = sum C_i on a normalized
model; both sides are compared times 4, which makes them integers for r = 1
too.  This is not a second computation of chi: chi, K_S^2 and N are read
from the same classes, and the algebra gives 12 chi - K_S^2 - e(S) = 2^r
(3/4) sum C_i.C_j over the pairs of components of one inertia.  On a smooth
model that sum is 0; the report reads the record before the crossing
rounds, where it is the sum of the residual crossing numbers of
``normalize.singular_residual_pairs``, one per crossing ``resolve`` counted.
Blowing up such a crossing, a node of one D_g, changes neither chi nor
K^2: the exceptional curve leaves the branch (inertia g + g = 0), D_g^2 and
D^2 fall by 4, D.K rises by 2, and K + D/2 pulls back to itself, so B
keeps its coefficients and gets 0 at the new slot.  It lowers that
pair's C_i.C_j by 1 and raises e(S) by 3 * 2^(r-2).  So the check adds
3 * 2^r per crossing to 4 e(S): it holds exactly when the classes and the
pair search's residual counts agree, and it guards the hypothesis of the
chi formula, not its arithmetic.

The chi formula holds only on a smooth model, so ``invariant_report``
takes a ``ResolveResult``: ``resolve`` returns one only for a model it has
proven smooth once its crossings are blown up, and nothing here checks
smoothness again.  The report's numbers are those of that resolved model;
its bicanonical class and its surface are on the resolved surface, the
record's blown up at the crossings.  K^2 and the
bicanonical class are defined on every model, so ``canonical_square`` and
``bicanonical_pullback`` take any ``CoverModel``.  They share the report's
sweep, over the model's branch entries (``cover.model_entries``): a curve
with multiplicity k > 1, or in several D_g, counts as its entries say.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import CoverModel, branch_classes, model_entries
from .cover import odd_character, raise_odd_character
from .errors import DomainError, InconsistencyError
from .lattice import BlownPlane, Center, DivisorClass
from .normalize import ResolveResult


@dataclass(frozen=True)
class InvariantReport:
    """Flat record of the invariants of the smooth model of a cover."""

    chi: int
    k_squared: int
    bicanonical_pullback: DivisorClass
    rationality_verdict: str
    surface_centers: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def serialize(self) -> str:
        lines = [
            f"chi = {self.chi}",
            f"k2 = {self.k_squared}",
            f"bicanonical = {self.bicanonical_pullback}",
            f"verdict = {self.rationality_verdict}",
            f"surface = plane blown up at [{', '.join(self.surface_centers)}]",
        ]
        lines.extend(f"note = {n}" for n in self.notes)
        return "\n".join(lines)


def canonical_square(cover: CoverModel) -> int:
    """K^2 of the covering surface over the current model."""
    _, b2, _ = _bicanonical(cover.surface.rank, branch_classes(model_entries(cover))[1])
    return _k_squared(cover.r, b2)


def _k_squared(r: int, bicanonical_square: int) -> int:
    value = 2**r * bicanonical_square
    if value % 4:
        raise InconsistencyError("branch data give a non-integral K^2; check the branch classes")
    return value // 4


def bicanonical_pullback(cover: CoverModel) -> DivisorClass:
    """The base class 2K + sum D_g, whose pullback is 2K of the cover."""
    support, _, _ = _bicanonical(cover.surface.rank, branch_classes(model_entries(cover))[1])
    return DivisorClass.from_support(cover.surface, support)


def _bicanonical(rank: int, total: dict[int, int]) -> tuple[dict[int, int], int, int]:
    """The nonzero coefficients of B = 2K + D on the plane blown up
    rank - 1 times, formed slot by slot from those of D, with B^2 and B.K
    read as it is formed."""
    b0 = total.get(0, 0) - 6
    support = {0: b0} if b0 else {}
    b2, bk = b0 * b0, -3 * b0
    for slot in range(1, rank):
        b = total.get(slot, 0) + 2
        if b:
            support[slot] = b
            b2 -= b * b
            bk -= b
    return support, b2, bk


def _negative_exceptional_multiple(cls: DivisorClass) -> bool:
    if cls.degree != 0 or cls.is_zero:
        return False
    nonzero = list(cls.support.values())
    return len(nonzero) == 1 and nonzero[0] < 0


def _verdict(chi: int, bicanonical: DivisorClass) -> tuple[str, tuple[str, ...]]:
    """The verdict from chi and 2K + sum D_g of a smooth model."""
    if chi != 1:
        return "inconclusive", (f"chi = {chi} != 1",)
    if bicanonical.degree < 0:
        return "rational", ("bicanonical pullback has negative degree, so P2 = 0",)
    if _negative_exceptional_multiple(bicanonical):
        return "rational", ("bicanonical pullback is a negative exceptional multiple, so P2 = 0",)
    return "inconclusive", ("bicanonical pullback class may be effective",)


def invariant_report(resolved: ResolveResult) -> InvariantReport:
    """Every invariant of the model ``resolve`` returned, read in one sweep
    over the coefficients of the curves of its record before the crossing
    rounds (formulas in the module docstring) and checked by Noether's
    formula with the crossings counted; the verdict is conservative:
    "rational" or "inconclusive", never "irrational"."""
    record, crossings = resolved.record, resolved.crossings
    r, rank = record.r, 1 + len(record.centers)
    coeffs = record.coeffs
    by_g, total = branch_classes((g, 1, coeffs[cid]) for cid, g in record.carrier.items())
    raise_odd_character(odd_character(r, by_g.items()))
    c2 = sum(map(_square, coeffs.values()))  # sum C_i^2: every curve is in one D_g
    squares = sum(map(_square, by_g.values()))  # sum D_g^2
    support, b2, bk = _bicanonical(rank, total)
    k2 = 10 - rank  # K^2 = 9 - n on the plane blown up n times
    dk = bk - 2 * k2
    d2 = b2 - 4 * k2 - 4 * dk
    num = 2**r * (d2 + squares + 4 * dk)
    if num % 32:
        raise InconsistencyError("building data give a non-integral Euler characteristic")
    chi = 2**r + num // 32
    k_squared = _k_squared(r, b2)
    _check_noether(r, rank, chi, k_squared, d2, dk, c2, len(crossings))
    # B has coefficient 2 - 1 - 1 = 0 at each crossing, so it keeps its support
    surface = BlownPlane((*record.centers, *(Center(name) for name, _, _ in crossings)))
    bicanonical = DivisorClass.from_support(surface, support)
    verdict, notes = _verdict(chi, bicanonical)
    return InvariantReport(
        chi=chi,
        k_squared=k_squared,
        bicanonical_pullback=bicanonical,
        rationality_verdict=verdict,
        surface_centers=surface.names,
        notes=notes,
    )


def _square(support: dict[int, int]) -> int:
    """The self-intersection of a class given by its nonzero coefficients."""
    degree = support.get(0, 0)
    square = 2 * degree * degree
    for value in support.values():
        square -= value * value
    return square


def _check_noether(
    r: int, rank: int, chi: int, k_squared: int, d2: int, dk: int, c2: int, crossings: int
) -> None:
    """InconsistencyError unless 4 * 12 chi = 4 (K^2 + e(S)) on the smooth
    model, read on the record before the crossing rounds: the crossings add
    3 * 2^r each to 4 e(S), which must make up exactly for the total
    intersection of the components of each inertia (module docstring); c2
    is sum C_i^2."""
    nodes = (d2 - c2) // 2  # D = sum C_i on a normalized model, so d2 - c2 is even
    e_y = 2 + rank
    e_d = -c2 - dk - nodes
    four_e = 2 ** (r + 2) * (e_y - e_d) + 2 ** (r + 1) * (e_d - nodes)
    four_e += 2**r * (nodes + 3 * crossings)
    if 48 * chi != 4 * k_squared + four_e:
        raise InconsistencyError(
            f"Noether's formula fails: 4 * 12 chi = {48 * chi} "
            f"but 4 (K^2 + e(S)) = {4 * k_squared + four_e}"
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
