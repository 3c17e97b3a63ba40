"""Picard lattice of an iterated blow-up of the projective plane.

A surface is encoded by its ordered list of blow-up centers, each possibly
infinitely near an earlier one.  Divisor classes are integer vectors in the
orthogonal basis (H, E_1, ..., E_k), where H is the line class and E_i the
total transform of the i-th exceptional divisor, so the intersection form is
diag(+1, -1, ..., -1) and the canonical class is -3H + E_1 + ... + E_k.

Note on coordinates: the strict transform of E_i after blowing up a point on
it is E_i - E_j in this basis, a (-2)-class; displayed coefficients elsewhere
that mix strict and total transforms must be converted before comparing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable
from functools import cached_property
from itertools import compress

from .errors import (
    DanglingReferenceError,
    DimensionError,
    DomainError,
    GeometryError,
)


@dataclass(frozen=True)
class Center:
    """A blow-up center: a plane point, or a point infinitely near ``parent``."""

    name: str
    parent: str | None = None


@dataclass(frozen=True)
class BlownPlane:
    """The plane blown up along an ordered forest of centers."""

    centers: tuple[Center, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for c in self.centers:
            if c.name in seen:
                raise DomainError(f"duplicate center name {c.name!r}")
            if c.parent is not None and c.parent not in seen:
                raise DanglingReferenceError(
                    f"center {c.name!r} has parent {c.parent!r} that is not an earlier center"
                )
            seen.add(c.name)

    @property
    def rank(self) -> int:
        return 1 + len(self.centers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.centers)

    @cached_property
    def _slots(self) -> dict[str, int]:
        return {c.name: 1 + i for i, c in enumerate(self.centers)}

    def has_center(self, name: str) -> bool:
        """One dict lookup; the name -> slot map is built once per surface."""
        return name in self._slots

    def center(self, name: str) -> Center:
        return self.centers[self.index_of(name) - 1]

    def index_of(self, name: str) -> int:
        """Coefficient slot of E_name, i.e. 1 + position in the center list.

        One dict lookup; the name -> slot map is built once per surface.
        """
        try:
            return self._slots[name]
        except KeyError:
            raise DanglingReferenceError(f"no center named {name!r}") from None

    def children_of(self, name: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.centers if c.parent == name)

    def blow_up(self, center: Center) -> "BlownPlane":
        """Add one more center; existing classes embed with new coefficient 0."""
        if self.has_center(center.name):
            raise DomainError(f"center {center.name!r} already blown up")
        if center.parent is not None and not self.has_center(center.parent):
            raise DanglingReferenceError(
                f"cannot blow up {center.name!r}: parent {center.parent!r} does not exist"
            )
        return BlownPlane(self.centers + (center,))


#: The projective plane itself.
PLANE = BlownPlane()


class DivisorClass:
    """An integer divisor class on a fixed blown plane.

    A class is stored as its nonzero coefficients, ``support`` (slot ->
    value, in no particular order; read-only), so sums, multiples,
    intersections and pull-backs cost time in the number of nonzero slots,
    not in the Picard rank.  ``coeffs`` is the dense tuple, built on first
    use.  Classes are immutable, and equal when their surfaces and
    coefficients are.
    """

    __slots__ = ("surface", "support", "_coeffs")

    def __init__(self, surface: BlownPlane, coeffs: tuple[int, ...]):
        if len(coeffs) != surface.rank:
            raise DimensionError(
                f"class has {len(coeffs)} coefficients on a rank-{surface.rank} surface"
            )
        coeffs = tuple(coeffs)
        support = {slot: coeffs[slot] for slot in compress(range(len(coeffs)), coeffs)}
        _fill(self, surface, support, coeffs)

    @classmethod
    def from_support(cls, surface: BlownPlane, support: dict[int, int]) -> "DivisorClass":
        """The class with the given coefficients by slot; zero values are dropped."""
        support = {slot: value for slot, value in support.items() if value}
        if support and (min(support) < 0 or max(support) >= surface.rank):
            raise DimensionError(f"class has a coefficient outside the rank-{surface.rank} surface")
        return _sparse(surface, support)

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            dense = [0] * self.surface.rank
            for slot, value in self.support.items():
                dense[slot] = value
            object.__setattr__(self, "_coeffs", tuple(dense))
        return self._coeffs

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: divisor classes are immutable")

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.surface == other.surface and self.support == other.support

    def __hash__(self) -> int:
        return hash((self.surface, frozenset(self.support.items())))

    def __repr__(self) -> str:
        return f"DivisorClass(surface={self.surface!r}, coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return self.support.get(0, 0)

    def multiplicity(self, center_name: str) -> int:
        """Multiplicity at a blown-up center (negative of the E coefficient)."""
        return -self.support.get(self.surface.index_of(center_name), 0)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return linear_combination(self.surface, ((1, self), (1, other)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return linear_combination(self.surface, ((1, self), (-1, other)))

    def __neg__(self) -> "DivisorClass":
        return self * -1

    def __mul__(self, k: int) -> "DivisorClass":
        return linear_combination(self.surface, ((k, self),))

    __rmul__ = __mul__

    def __str__(self) -> str:
        centers = self.surface.centers
        parts: list[str] = []
        for slot, coeff in sorted(self.support.items()):
            label = f"E{centers[slot - 1].name}" if slot else "H"
            sign = "-" if coeff < 0 else ("+" if parts else "")
            mag = abs(coeff)
            parts.append(f"{sign}{'' if mag == 1 else mag}{label}")
        return "".join(parts) if parts else "0"

    @classmethod
    def parse(cls, surface: BlownPlane, text: str) -> "DivisorClass":
        """Inverse of ``str``: reads signed combinations like ``4H-2E1-4E2``."""
        text = text.strip()
        if text == "0":
            return zero_class(surface)
        coeffs = [0] * surface.rank
        pos = 0
        token = re.compile(r"([+-]?)(\d*)(H|E[A-Za-z0-9_']+)")
        while pos < len(text):
            m = token.match(text, pos)
            if not m:
                raise DomainError(f"cannot parse divisor class {text!r} at offset {pos}")
            sign, mag, label = m.groups()
            value = int(mag) if mag else 1
            if sign == "-":
                value = -value
            if label == "H":
                coeffs[0] += value
            else:
                coeffs[surface.index_of(label[1:])] += value
            pos = m.end()
        return cls(surface, tuple(coeffs))


def _fill(obj: DivisorClass, surface: BlownPlane, support: dict[int, int], coeffs) -> None:
    object.__setattr__(obj, "surface", surface)
    object.__setattr__(obj, "support", support)
    object.__setattr__(obj, "_coeffs", coeffs)


def _sparse(surface: BlownPlane, support: dict[int, int]) -> DivisorClass:
    """A class from nonzero coefficients at slots known to lie on the surface."""
    obj = object.__new__(DivisorClass)
    _fill(obj, surface, support, None)
    return obj


def linear_combination(
    surface: BlownPlane, terms: Iterable[tuple[int, DivisorClass]]
) -> DivisorClass:
    """sum of k * cls over the terms, accumulated in one pass over their nonzero
    coefficients; every class must live on ``surface``."""
    total: dict[int, int] = {}
    for k, cls in terms:
        if cls.surface != surface:
            raise DimensionError("divisor classes live on different surfaces")
        for slot, value in cls.support.items():
            total[slot] = total.get(slot, 0) + k * value
    return _sparse(surface, {slot: value for slot, value in total.items() if value})


def zero_class(surface: BlownPlane) -> DivisorClass:
    return DivisorClass.from_support(surface, {})


def hyperplane(surface: BlownPlane) -> DivisorClass:
    return DivisorClass.from_support(surface, {0: 1})


def exceptional(surface: BlownPlane, name: str) -> DivisorClass:
    """Total transform class E_name (self-intersection -1)."""
    return DivisorClass.from_support(surface, {surface.index_of(name): 1})


def canonical(surface: BlownPlane) -> DivisorClass:
    """The canonical class -3H + sum of all exceptional classes."""
    return DivisorClass(surface, (-3,) + (1,) * (surface.rank - 1))


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a.b in the diagonal form (+1, -1, ..., -1).

    Runs over the nonzero coefficients of the sparser class.
    """
    if a.surface != b.surface:
        raise DimensionError("cannot intersect classes on different surfaces")
    small, large = sorted((a.support, b.support), key=len)
    return a.degree * b.degree - sum(
        value * large.get(slot, 0) for slot, value in small.items() if slot
    )


def embed(cls: DivisorClass, surface: BlownPlane) -> DivisorClass:
    """Total transform of a class under further blow-ups of its surface."""
    if surface.centers[: len(cls.surface.centers)] != cls.surface.centers:
        raise DimensionError("target surface does not extend the class's surface")
    return DivisorClass.from_support(surface, cls.support)


def strict_transform(cls: DivisorClass, center_name: str, mult: int) -> DivisorClass:
    """Subtract ``mult`` times the exceptional class of an existing center."""
    if mult < 0:
        raise DomainError(f"multiplicity must be nonnegative, got {mult}")
    return cls - mult * exceptional(cls.surface, center_name)


def _reflection_root(surface: BlownPlane, p: str, q: str, r: str) -> DivisorClass:
    if len({p, q, r}) != 3:
        raise GeometryError("cremona reflection needs three distinct centers")
    for name in (p, q, r):
        parent = surface.center(name).parent
        if parent is not None and parent not in (p, q, r):
            raise GeometryError(
                f"center {name!r} is infinitely near {parent!r}, which is not a base point"
            )
    root = {surface.index_of(name): -1 for name in (p, q, r)}
    return DivisorClass.from_support(surface, {0: 1, **root})


def cremona_reflect(cls: DivisorClass, p: str, q: str, r: str) -> DivisorClass:
    """Reflection of a class under the quadratic map based at p, q, r.

    On multiplicities this is (d; m_p, m_q, m_r) -> (2d - m_p - m_q - m_r;
    d - m_q - m_r, d - m_p - m_r, d - m_p - m_q), other coefficients fixed.
    Degree-0 results are meaningful: they signal a contracted component.
    """
    alpha = _reflection_root(cls.surface, p, q, r)
    return cls + intersect(cls, alpha) * alpha


def contract(surface: BlownPlane, cls: DivisorClass) -> BlownPlane:
    """Blow a (-1)-exceptional back down; only childless coordinate classes qualify."""
    if cls.surface != surface:
        raise DimensionError("class does not live on the surface being contracted")
    k = canonical(surface)
    if intersect(cls, cls) != -1 or intersect(cls, k) != -1:
        raise GeometryError(f"{cls} is not a (-1)-class")
    name = None
    for c in surface.centers:
        if cls == exceptional(surface, c.name):
            name = c.name
            break
    if name is None:
        raise GeometryError(
            f"{cls} is not a coordinate exceptional class; change basis before contracting"
        )
    if surface.children_of(name):
        raise GeometryError(f"cannot contract E{name}: centers lie infinitely near it")
    remaining = tuple(c for c in surface.centers if c.name != name)
    return BlownPlane(remaining)


def push_forward(cls: DivisorClass, contracted: BlownPlane, name: str) -> DivisorClass:
    """Image of a class after contracting E_name (drops that coordinate)."""
    idx = cls.surface.index_of(name)
    coeffs = cls.coeffs[:idx] + cls.coeffs[idx + 1 :]
    return DivisorClass(contracted, coeffs)
