"""The (Z/2)^r cover model: curve components, branch data, building data.

A ``CoverModel`` is a symbolic configuration: a blown plane, named curve
components with divisor classes, declared multiplicities at marked (not yet
blown up) points, and the branch assignment g -> components.  Building data
are never stored: the bases here have torsion-free Picard group, so the
branch data determine every L_chi through 2*L_chi ~ sum of eps_chi(g)*D_g,
and deriving them on demand removes an inconsistency surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import group, lattice
from .errors import (
    DanglingReferenceError,
    DimensionError,
    DomainError,
    GeometryError,
    InconsistencyError,
    ParityError,
)
from .group import Character, GroupElement
from .lattice import BlownPlane, DivisorClass


@dataclass(frozen=True)
class MarkedPoint:
    """A named point that blow-ups may later use as a center.

    ``parent`` names either a blown-up center or another marked point; a
    child point encodes a direction infinitely near its parent.
    """

    name: str
    parent: str | None = None


@dataclass(frozen=True)
class CurveComponent:
    """One irreducible-or-declared-reducible piece of the branch curve."""

    cid: str
    cls: DivisorClass
    irreducible: bool = True
    mults: tuple[tuple[str, int], ...] = ()
    exceptional_of: str | None = None

    def __post_init__(self):
        if self.cls.degree < 0:
            raise DomainError(f"component {self.cid!r} has negative degree")
        if self.cls.degree == 0:
            support = self.cls.support
            lead = support[min(support)] if support else None
            if lead is None or lead < 0:
                raise DomainError(
                    f"degree-0 component {self.cid!r} must be an exceptional class"
                )
        if any(m < 1 for _, m in self.mults):
            raise DomainError(f"component {self.cid!r} has a multiplicity below 1")
        if len({name for name, _ in self.mults}) != len(self.mults):
            raise DomainError(f"component {self.cid!r} repeats a point in its multiplicities")
        object.__setattr__(self, "mults", tuple(sorted(self.mults)))

    def mult_at(self, point_name: str) -> int:
        for name, m in self.mults:
            if name == point_name:
                return m
        return 0


BranchEntry = tuple[str, int]
BranchData = tuple[tuple[GroupElement, tuple[BranchEntry, ...]], ...]


def _canonical_branch(raw: Iterable[tuple[GroupElement, Iterable[BranchEntry]]]) -> BranchData:
    merged: dict[GroupElement, dict[str, int]] = {}
    for g, entries in raw:
        bucket = merged.setdefault(g, {})
        for cid, k in entries:
            bucket[cid] = bucket.get(cid, 0) + k
    out = []
    for g in sorted(merged):
        entries = tuple(sorted((cid, k) for cid, k in merged[g].items() if k > 0))
        if entries:
            out.append((g, entries))
    return tuple(out)


@dataclass(frozen=True)
class CoverModel:
    """A totally symbolic (Z/2)^r cover of a blown plane."""

    r: int
    surface: BlownPlane
    components: tuple[CurveComponent, ...]
    branch: BranchData
    marked: tuple[MarkedPoint, ...] = ()
    pencil: str | None = None

    def __post_init__(self):
        if not 1 <= self.r <= group.MAX_RANK:
            raise DomainError(f"cover rank must be between 1 and {group.MAX_RANK}")
        object.__setattr__(self, "components", tuple(sorted(self.components, key=lambda c: c.cid)))
        object.__setattr__(self, "branch", _canonical_branch(self.branch))
        object.__setattr__(self, "marked", tuple(sorted(self.marked, key=lambda m: m.name)))
        ids = [c.cid for c in self.components]
        if len(set(ids)) != len(ids):
            raise DomainError("component ids must be unique")
        known_points = {m.name for m in self.marked}
        center_names = set(self.surface.names)
        if known_points & center_names:
            raise DomainError("marked point names collide with blown-up centers")
        for m in self.marked:
            if m.parent is not None and m.parent not in known_points | center_names:
                raise DanglingReferenceError(
                    f"marked point {m.name!r} has unknown parent {m.parent!r}"
                )
        for comp in self.components:
            if comp.cls.surface != self.surface:
                raise DimensionError(f"component {comp.cid!r} lives on the wrong surface")
            for name, _ in comp.mults:
                if name not in known_points:
                    raise DanglingReferenceError(
                        f"component {comp.cid!r} declares a multiplicity at unknown point {name!r}"
                    )
        id_set = set(ids)
        for g, entries in self.branch:
            if g.r != self.r:
                raise DimensionError(f"branch element {g} has wrong rank")
            if g.is_zero:
                raise DomainError("branch data are indexed by nonzero group elements")
            for cid, _ in entries:
                if cid not in id_set:
                    raise DanglingReferenceError(f"branch references unknown component {cid!r}")
        if self.pencil is not None and self.pencil not in known_points | center_names:
            raise DanglingReferenceError(f"pencil point {self.pencil!r} is not a known point")

    # -- lookups ---------------------------------------------------------
    # The maps behind the lookups are built on first use, each in one pass over
    # the components, branch data or marked points; a model is frozen, so they
    # never go stale.

    @cached_property
    def _by_cid(self) -> dict[str, CurveComponent]:
        return {c.cid: c for c in self.components}

    @cached_property
    def _by_point(self) -> dict[str, MarkedPoint]:
        return {m.name: m for m in self.marked}

    @cached_property
    def _inertia(self) -> dict[str, GroupElement | None]:
        """cid -> its g when it lies in exactly one D_g, once; else None."""
        inertia: dict[str, GroupElement | None] = {}
        for g, entries in self.branch:
            for cid, k in entries:
                inertia[cid] = g if k == 1 and cid not in inertia else None
        return inertia

    def component(self, cid: str) -> CurveComponent:
        """One dict lookup in a map built once per model."""
        try:
            return self._by_cid[cid]
        except KeyError:
            raise DanglingReferenceError(f"no component named {cid!r}") from None

    def marked_point(self, name: str) -> MarkedPoint:
        """One dict lookup in a map built once per model."""
        try:
            return self._by_point[name]
        except KeyError:
            raise DanglingReferenceError(f"no marked point named {name!r}") from None

    def branch_map(self) -> dict[GroupElement, tuple[BranchEntry, ...]]:
        return {g: entries for g, entries in self.branch}

    def branch_class(self, g: GroupElement) -> DivisorClass:
        """[D_g], summed over the nonzero coefficients of its components."""
        entries = self.branch_map().get(g, ())
        return lattice.linear_combination(
            self.surface, ((k, self.component(cid).cls) for cid, k in entries)
        )

    def inertia_of(self, cid: str) -> GroupElement:
        """The unique g with cid in D_g; requires a normalized model.

        One dict lookup in a map built once per model.
        """
        g = self._inertia.get(cid)
        if g is None:
            raise InconsistencyError(
                f"component {cid!r} is not reduced/uniquely assigned; normalize first"
            )
        return g

    def components_at(self, point_name: str) -> list[tuple[CurveComponent, int]]:
        """Branch components passing through a marked point, with multiplicities."""
        out = []
        for comp in self.components:
            m = comp.mult_at(point_name)
            if m >= 1:
                out.append((comp, m))
        return out

    def children_of_point(self, name: str) -> tuple[str, ...]:
        return tuple(m.name for m in self.marked if m.parent == name)

    def point_is_ripe(self, name: str) -> bool:
        """A point can be blown up once its parent (if any) has been."""
        parent = self.marked_point(name).parent
        return parent is None or self.surface.has_center(parent)


# -- construction helpers -------------------------------------------------


def plane_cover(
    r: int,
    components: Sequence[tuple[str, int, Mapping[str, int]]],
    branch: Mapping[str, Sequence[tuple[str, int]]],
    marked: Sequence[tuple[str, str | None]] = (),
    pencil: str | None = None,
    reducible: Iterable[str] = (),
) -> CoverModel:
    """Build a plane configuration from degrees and declared multiplicities.

    Raises GeometryError for a point of multiplicity m > d on a curve of
    degree d, and for m = d >= 2 on a curve not declared reducible: such a
    curve is d lines through the point.  Also for a curve whose multiplicity
    at a point is below the sum of its multiplicities at the points
    infinitely near it (proximity), and for a pencil point that is not a
    plane point.  Two more rules count infinitely near points like plane
    points: an irreducible curve's sum of m(m-1)/2 may not exceed its
    arithmetic genus (d-1)(d-2)/2 (genus), and two curves' sum of m_a*m_b
    over the points they share may not exceed d_a*d_b (Bezout).  The
    Bezout sums are accumulated per point, over the curves through it.
    """
    reducible = set(reducible)
    parent_of = dict(marked)
    if parent_of.get(pencil) is not None:
        raise GeometryError(f"pencil point {pencil!r} is infinitely near {parent_of[pencil]!r}")
    children: dict[str, list[str]] = {}
    for name, parent in parent_of.items():
        if parent is not None:
            children.setdefault(parent, []).append(name)
    comps = []
    for cid, degree, mults in components:
        comp = CurveComponent(
            cid,
            DivisorClass(lattice.PLANE, (degree,)),
            irreducible=cid not in reducible,
            mults=tuple(mults.items()),
        )
        for point, m in comp.mults:
            if m > degree:
                raise GeometryError(
                    f"component {cid!r} of degree {degree} cannot have multiplicity {m} at {point!r}"
                )
            if m == degree >= 2 and comp.irreducible:
                raise GeometryError(
                    f"component {cid!r} of degree {degree} has multiplicity {m} at {point!r}, "
                    f"so it is {degree} lines; declare it reducible"
                )
        for point, names in children.items():
            at, near = mults.get(point, 0), sum(mults.get(name, 0) for name in names)
            if near > at:
                raise GeometryError(
                    f"component {cid!r} has multiplicity {at} at {point!r} "
                    f"but {near} at the points infinitely near it"
                )
        delta = sum(m * (m - 1) // 2 for m in mults.values())
        genus = (degree - 1) * (degree - 2) // 2
        if comp.irreducible and delta > genus:
            raise GeometryError(
                f"component {cid!r} of degree {degree} has declared singularities with "
                f"sum m(m-1)/2 = {delta}, above its arithmetic genus {genus}; declare it reducible"
            )
        comps.append(comp)
    _check_bezout(components)
    branch_data = tuple(
        (GroupElement.parse(key), tuple(entries)) for key, entries in branch.items()
    )
    marks = tuple(MarkedPoint(name, parent) for name, parent in marked)
    return CoverModel(r, lattice.PLANE, tuple(comps), branch_data, marks, pencil)


def _check_bezout(components: Sequence[tuple[str, int, Mapping[str, int]]]) -> None:
    """GeometryError when two curves share more than d_a*d_b declared crossings."""
    degree = {cid: d for cid, d, _ in components}
    through: dict[str, list[tuple[str, int]]] = {}
    for cid, _, mults in components:
        for point, m in mults.items():
            through.setdefault(point, []).append((cid, m))
    shared: dict[tuple[str, str], int] = {}
    for members in through.values():
        for n, (a, ma) in enumerate(members):
            for b, mb in members[n + 1 :]:
                pair = (a, b) if a < b else (b, a)
                shared[pair] = shared.get(pair, 0) + ma * mb
    for (a, b), total in sorted(shared.items()):
        if total > degree[a] * degree[b]:
            raise GeometryError(
                f"components {a!r} and {b!r} meet with multiplicity {total} at declared points, "
                f"above the product of their degrees {degree[a]}*{degree[b]} (Bezout)"
            )


def add_marked_point(
    cover: CoverModel,
    name: str,
    parent: str | None = None,
    mults: Mapping[str, int] | None = None,
) -> CoverModel:
    """Declare a new marked point lying on the given components."""
    return add_marked_points(cover, [(name, parent, mults)])


def add_marked_points(
    cover: CoverModel,
    points: Iterable[tuple[str, str | None, Mapping[str, int] | None]],
) -> CoverModel:
    """Declare new marked points ``(name, parent, mults)`` in one rebuild.

    Each name must be new, also against the names before it in ``points``,
    and each ``mults`` may name only existing components.  The exceptional
    curve of a parent passes through every direction marked on it.
    """
    extra = {c.cid: dict(c.mults) for c in cover.components}
    exceptional: dict[str, list[str]] = {}
    for c in cover.components:
        if c.exceptional_of is not None:
            exceptional.setdefault(c.exceptional_of, []).append(c.cid)
    marked = list(cover.marked)
    in_use = {m.name for m in marked} | set(cover.surface.names)
    touched: set[str] = set()
    for name, parent, mults in points:
        if name in in_use:
            raise DomainError(f"point name {name!r} is already in use")
        mults = dict(mults or {})
        unknown = sorted(cid for cid in mults if cid not in extra)
        if unknown:
            raise DanglingReferenceError(f"unknown components in mults: {unknown}")
        for cid in exceptional.get(parent, ()):
            mults.setdefault(cid, 1)
        for cid, m in mults.items():
            extra[cid][name] = m
        touched.update(mults)
        in_use.add(name)
        marked.append(MarkedPoint(name, parent))
    components = tuple(
        replace(c, mults=tuple(extra[c.cid].items())) if c.cid in touched else c
        for c in cover.components
    )
    return replace(cover, components=components, marked=tuple(marked))


# -- operations ------------------------------------------------------------


def is_totally_ramified(cover: CoverModel) -> bool:
    """True when the g with nonzero D_g generate the whole group."""
    carriers = [g for g, entries in cover.branch if entries]
    return len(group.span(carriers, cover.r)) == 2**cover.r


def _branch_sums(cover: CoverModel) -> dict[Character, DivisorClass]:
    """sum over nonzero g of eps_chi(g) * [D_g], for every character chi."""
    classes = {g: cover.branch_class(g) for g, _ in cover.branch}
    return {
        chi: lattice.linear_combination(
            cover.surface, ((1, cls) for g, cls in classes.items() if group.epsilon(chi, g))
        )
        for chi in group.characters(cover.r)
    }


def derive_building_data(cover: CoverModel) -> dict[Character, DivisorClass]:
    """L_chi = (1/2) * sum over nonzero g of eps_chi(g) * [D_g].

    Raises ParityError naming the first character whose sum has an odd
    coordinate: this is exactly the classical parity obstruction (for r=2,
    the three branch degrees must share their parity).
    """
    out: dict[Character, DivisorClass] = {}
    for chi, total in _branch_sums(cover).items():
        if any(c % 2 for c in total.support.values()):
            raise ParityError(
                f"branch data sum for character {chi} is not divisible by two",
                character=chi,
            )
        halves = {slot: c // 2 for slot, c in total.support.items()}
        out[chi] = DivisorClass.from_support(cover.surface, halves)
    return out


@dataclass(frozen=True)
class ProdReport:
    """Result of checking L_chi + L_chi' ~ L_{chi chi'} + sum eps_{chi,chi'}(g) D_g."""

    pairs_checked: int
    violations: tuple[tuple[Character, Character], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_prod_relations(
    cover: CoverModel, building: Mapping[Character, DivisorClass] | None = None
) -> ProdReport:
    """Verify the product relations for every ordered pair of characters.

    With M_chi = 2 L_chi - sum eps_chi(g) D_g, and eps_chi + eps_chi' -
    eps_{chi+chi'} = 2 eps_{chi,chi'}, twice the relation for (chi, chi') reads
    M_chi + M_chi' = M_{chi+chi'}; the lattice is torsion-free, so that decides it.
    """
    if building is None:
        building = derive_building_data(cover)
    defect: dict[Character, list[int]] = {}
    for chi, total in _branch_sums(cover).items():
        if chi not in building:
            raise DomainError(f"building data have no class for character {chi}")
        if building[chi].surface != cover.surface:
            raise DimensionError(f"building class for character {chi} lives on another surface")
        defect[chi] = [2 * a - b for a, b in zip(building[chi].coeffs, total.coeffs)]
    violations = [
        (chi, chi2)
        for chi in defect
        for chi2 in defect
        if [a + b for a, b in zip(defect[chi], defect[chi2])] != defect[chi + chi2]
    ]
    return ProdReport(len(defect) ** 2, tuple(violations))


def quotient_cover(cover: CoverModel, subgroup: Iterable[GroupElement]) -> CoverModel:
    """The induced (Z/2)^(r-s) cover of the same surface, s = dim subgroup.

    Branch rule: D'_hbar is the union of the D_g with g mapping to hbar != 0
    in G/H.  Building data are re-derived from the quotient branch data.
    """
    gens = list(subgroup)
    sub = group.span(gens, cover.r) if gens else frozenset([group.zero(cover.r)])
    if not group.is_subgroup(sub, cover.r):
        raise DomainError("quotient requires a valid subgroup")
    s = group.subgroup_dimension(sub)
    if s == cover.r:
        raise DomainError("cannot quotient by the full group")
    basis = group.complement_basis(sub, cover.r)
    new_r = cover.r - s
    if len(basis) != new_r:
        raise InconsistencyError("complement basis has unexpected size")

    def project(g: GroupElement) -> GroupElement | None:
        # coordinates of g modulo the subgroup, in the chosen complement basis
        for bits in group.elements(new_r):
            rep = group.zero(cover.r)
            for coeff, vec in zip(bits.bits, basis):
                if coeff:
                    rep = rep + vec
            if g + rep in sub:
                return bits
        return None

    new_branch: list[tuple[GroupElement, tuple[BranchEntry, ...]]] = []
    for g, entries in cover.branch:
        image = project(g)
        if image is None:
            raise InconsistencyError(f"element {g} has no image in the quotient")
        if image.is_zero:
            continue
        new_branch.append((image, entries))
    kept = {cid for _, entries in new_branch for cid, _ in entries}
    comps = tuple(c for c in cover.components if c.cid in kept)
    return CoverModel(new_r, cover.surface, comps, tuple(new_branch), cover.marked, cover.pencil)
