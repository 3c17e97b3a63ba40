"""Algebra of the Galois group G = (Z/2)^r and its character group.

Elements and characters are one type: r bits packed into an int, added by
XOR.  The bit string b_1...b_r is stored as the integer it spells in base
two, so for equal r the order of the ints is the lexicographic order of
the bit strings.  Characters are identified with elements through the
mod-2 dot product, a popcount of the common bits.  The epsilon functions
defined here drive every building-data relation in the rest of the
package: ``epsilon(chi, g)`` is the pairing bit for nonzero ``g`` and
``epsilon2(chi, chi2, g)`` is 1 exactly when both pairings are 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionError, DomainError

#: The classifier only covers rank up to four; higher ranks are rejected.
MAX_RANK = 4


def _check_rank(r: int) -> None:
    if not 1 <= r <= MAX_RANK:
        raise DomainError(f"rank must be between 1 and {MAX_RANK}, got {r}")


@dataclass(frozen=True, order=True, init=False, repr=False, slots=True)
class GroupElement:
    """An element of (Z/2)^r, or a character of it, as an r-bit mask; addition is XOR."""

    r: int
    mask: int

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        _check_rank(len(bits))
        if any(b not in (0, 1) for b in bits):
            raise DomainError(f"bit vector entries must be 0 or 1, got {bits}")
        mask = 0
        for b in bits:
            mask = mask << 1 | b
        object.__setattr__(self, "r", len(bits))
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _of(cls, r: int, mask: int) -> "GroupElement":
        self = object.__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mask", mask)
        return self

    @classmethod
    def parse(cls, text: str) -> "GroupElement":
        if not text or any(c not in "01" for c in text):
            raise DomainError(f"non-binary group element {text!r}")
        _check_rank(len(text))
        return cls._of(len(text), int(text, 2))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.mask >> i & 1 for i in reversed(range(self.r)))

    @property
    def is_zero(self) -> bool:
        return not self.mask

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.r != other.r:
            raise DimensionError("cannot add group elements of different rank")
        return GroupElement._of(self.r, self.mask ^ other.mask)

    def __str__(self) -> str:
        return format(self.mask, f"0{self.r}b")

    def __repr__(self) -> str:
        return f"GroupElement({self.bits})"


#: Characters are bit vectors paired with elements by the dot product.
Character = GroupElement


def zero(r: int) -> GroupElement:
    _check_rank(r)
    return GroupElement._of(r, 0)


def elements(r: int) -> Iterator[GroupElement]:
    """All 2^r group elements, in lexicographic order."""
    _check_rank(r)
    for mask in range(1 << r):
        yield GroupElement._of(r, mask)


def nonzero_elements(r: int) -> Iterator[GroupElement]:
    return (g for g in elements(r) if not g.is_zero)


characters = elements
nonzero_characters = nonzero_elements


def pair(chi: GroupElement, g: GroupElement) -> int:
    """The pairing chi(g) = sum(chi_i * g_i) mod 2."""
    if chi.r != g.r:
        raise DimensionError(f"character rank {chi.r} does not match element rank {g.r}")
    return (chi.mask & g.mask).bit_count() & 1


def epsilon(chi: GroupElement, g: GroupElement) -> int:
    """0 when chi(g) = 0, 1 otherwise; defined only for nonzero g."""
    if g.is_zero:
        raise DomainError("epsilon is defined for nonzero group elements only")
    return pair(chi, g)


def epsilon2(chi: GroupElement, chi2: GroupElement, g: GroupElement) -> int:
    """1 exactly when epsilon(chi, g) and epsilon(chi2, g) are both 1."""
    if g.is_zero:
        raise DomainError("epsilon2 is defined for nonzero group elements only")
    return epsilon(chi, g) & epsilon(chi2, g)


def span(els: Iterable[GroupElement], r: int | None = None) -> frozenset[GroupElement]:
    """F_2-linear span of a set of elements, always containing zero."""
    els = list(els)
    if r is None:
        if not els:
            raise DomainError("span of an empty set needs an explicit rank")
        r = els[0].r
    if any(g.r != r for g in els):
        raise DimensionError("span arguments must share one rank")
    closure = {zero(r)}
    frontier = list(els)
    while frontier:
        g = frontier.pop()
        if g in closure:
            continue
        new = [g + h for h in closure]
        closure.add(g)
        frontier.extend(new)
    return frozenset(closure)


def is_subgroup(subset: Iterable[GroupElement], r: int | None = None) -> bool:
    sub = set(subset)
    if not sub:
        return False
    some = next(iter(sub))
    if r is None:
        r = some.r
    if zero(r) not in sub:
        return False
    return all(a + b in sub for a in sub for b in sub)


def subgroup_dimension(subgroup: Iterable[GroupElement]) -> int:
    n = len(set(subgroup))
    dim = n.bit_length() - 1
    if 2**dim != n:
        raise DomainError("subgroup size is not a power of two")
    return dim


def quotient_image(g: GroupElement, subgroup: Iterable[GroupElement]) -> GroupElement:
    """Canonical representative (lexicographically smallest) of g + subgroup."""
    sub = frozenset(subgroup)
    if not is_subgroup(sub, g.r):
        raise DomainError("quotient_image requires a valid F_2 subgroup")
    return min(g + h for h in sub)


def complement_basis(subgroup: Iterable[GroupElement], r: int) -> list[GroupElement]:
    """A basis of a complement of ``subgroup``, chosen greedily from coordinates."""
    sub = frozenset(subgroup)
    if not is_subgroup(sub, r):
        raise DomainError("complement_basis requires a valid F_2 subgroup")
    chosen: list[GroupElement] = []
    spanned = span(list(sub) + chosen, r)
    for i in range(r):
        e = GroupElement._of(r, 1 << (r - 1 - i))
        if e not in spanned:
            chosen.append(e)
            spanned = span(list(sub) + chosen, r)
    return chosen
