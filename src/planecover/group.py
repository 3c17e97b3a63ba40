"""Algebra of the Galois group G = (Z/2)^r and its character group.

Elements and characters are one type: r bits packed into an int, added by
XOR.  The bit string b_1...b_r is stored as the integer it spells in base
two, so for equal r the order of the ints is the lexicographic order of
the bit strings.  Elements are interned: the module holds one object per
(r, mask) for r = 1..MAX_RANK, and every constructor, parse, sum, span and
enumeration returns that object, so equality and hashing are object
identity.  Elements order by (r, mask); ``element_key`` is that key, for
sorting without a Python-level comparison.  Characters are identified with
elements through the mod-2 dot product, a popcount of the common bits:
``epsilon(chi, g)`` is that pairing bit for nonzero ``g``.  Subgroups are
handled through an echelon basis of masks, from which ``rank``, ``span``
and ``complement_basis`` are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import DimensionError, DomainError

#: The classifier only covers rank up to four; higher ranks are rejected.
MAX_RANK = 4


def _check_rank(r: int) -> None:
    if not 1 <= r <= MAX_RANK:
        raise DomainError(f"rank must be between 1 and {MAX_RANK}, got {r}")


@dataclass(frozen=True, order=True, init=False, repr=False, slots=True)
class GroupElement:
    """An element of (Z/2)^r, or a character of it, as an r-bit mask; addition is XOR.

    Interned: ``GroupElement(bits)`` returns the one object for its (r, mask),
    so ``==`` and ``hash`` are those of ``object``.
    """

    r: int
    mask: int

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, bits: Iterable[int]) -> "GroupElement":
        bits = tuple(bits)
        _check_rank(len(bits))
        if any(b not in (0, 1) for b in bits):
            raise DomainError(f"bit vector entries must be 0 or 1, got {bits}")
        mask = 0
        for b in bits:
            mask = mask << 1 | b
        return _INTERNED[len(bits)][mask]

    def __reduce__(self):
        """Copies and unpickled elements are rebuilt through the constructor,
        so they are the interned object again."""
        return GroupElement, (self.bits,)

    @classmethod
    def _of(cls, r: int, mask: int) -> "GroupElement":
        return _INTERNED[r][mask]

    @classmethod
    def parse(cls, text: str) -> "GroupElement":
        """One lookup in a table of the 30 bit strings; any other text is
        rejected, as non-binary or of a rank out of range."""
        g = _BY_TEXT.get(text)
        if g is None:
            if not text or any(c not in "01" for c in text):
                raise DomainError(f"non-binary group element {text!r}")
            _check_rank(len(text))
        return g

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.mask >> i & 1 for i in reversed(range(self.r)))

    @property
    def is_zero(self) -> bool:
        return not self.mask

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.r != other.r:
            raise DimensionError("cannot add group elements of different rank")
        return _INTERNED[self.r][self.mask ^ other.mask]

    def __str__(self) -> str:
        return format(self.mask, f"0{self.r}b")

    def __repr__(self) -> str:
        return f"GroupElement({self.bits})"


def _make(r: int, mask: int) -> GroupElement:
    self = object.__new__(GroupElement)
    object.__setattr__(self, "r", r)
    object.__setattr__(self, "mask", mask)
    return self


#: _INTERNED[r][mask] is the one element with that rank and mask (index 0 unused).
_INTERNED = (None,) + tuple(
    tuple(_make(r, mask) for mask in range(1 << r)) for r in range(1, MAX_RANK + 1)
)

#: _BY_TEXT[str(g)] is g, for every interned element.
_BY_TEXT = {str(g): g for row in _INTERNED[1:] for g in row}

#: The sort key of the element order (r, mask), read in C.
element_key = attrgetter("r", "mask")

#: Characters are bit vectors paired with elements by the dot product.
Character = GroupElement


def zero(r: int) -> GroupElement:
    _check_rank(r)
    return _INTERNED[r][0]


def elements(r: int) -> Iterator[GroupElement]:
    """All 2^r group elements, in lexicographic order."""
    _check_rank(r)
    yield from _INTERNED[r]


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


def _extend(basis: list[int], m: int) -> bool:
    """Add mask ``m`` to an echelon basis (distinct leading bits, highest
    first) unless it lies in the span already; True when the basis grew.

    XOR with a basis mask clears its leading bit in ``m`` exactly when that
    lowers ``m``, so one pass leaves 0 for a mask in the span.
    """
    for b in basis:
        m = min(m, m ^ b)
    if m:
        basis.append(m)
        basis.sort(reverse=True)
    return bool(m)


def _basis(els: Iterable[GroupElement], r: int) -> list[int]:
    """An echelon basis of the span of elements of rank r, as masks."""
    basis: list[int] = []
    for g in els:
        if g.r != r:
            raise DimensionError("span arguments must share one rank")
        _extend(basis, g.mask)
    return basis


def rank(els: Iterable[GroupElement], r: int) -> int:
    """Dimension of the F_2-linear span of a set of elements of rank r."""
    return len(_basis(els, r))


def span(els: Iterable[GroupElement], r: int) -> frozenset[GroupElement]:
    """F_2-linear span of a set of elements of rank r, always containing zero.

    Elimination gives a basis of dimension dim; the span is its 2^dim XOR
    combinations, enumerated as masks, one XOR each.
    """
    combos = [0]
    for b in _basis(els, r):
        combos += [m ^ b for m in combos]
    return frozenset(_INTERNED[r][m] for m in combos)


def complement_basis(gens: Iterable[GroupElement], r: int) -> list[GroupElement]:
    """A basis of a complement of the span of ``gens``: the coordinate vectors,
    in order, that do not lie in that span and the vectors chosen before."""
    basis = _basis(gens, r)
    chosen: list[GroupElement] = []
    for i in range(r):
        e = 1 << (r - 1 - i)
        if _extend(basis, e):
            chosen.append(_INTERNED[r][e])
    return chosen
