"""The (Z/2)^r cover model: curve components, branch data, building data.

A ``CoverModel`` is a symbolic configuration: a blown plane, named curve
components with divisor classes, declared multiplicities at marked (not yet
blown up) points, and the branch assignment g -> components.  Building data
are never given as input: the bases here have torsion-free Picard group, so
the branch data determine every L_chi through 2*L_chi ~ S_chi = sum of
eps_chi(g)*D_g, and deriving them removes an inconsistency surface.

A ``CoverModel`` is the validated type at the boundary: a document, a plane
configuration, a matcher's argument and a reduction's result.  Inside, the
engine works on a ``ModelRecord``, the model as plain dicts: ``resolve``,
the matchers, the Cremona recipes, the invariant report and the census
read and chain records and build no model.  New points enter a record by
one function, ``mark_points``, which claims each name before it reads the
curves through the point; the Cremona recipes mark their auxiliary points
with it, and a resolve's crossings are marked with it only when its
resolved model is asked for.  Each index over a model has
one implementation, on a record's maps, next to ``ModelRecord``: the
curves through each point (``curves_through``), the points infinitely near
each point (``children_by_parent``), each curve's carrier (``carriers``),
the parity sweep (``odd_character``) and the sweep that sums the [D_g]
and D = sum D_g (``branch_classes``).  A model keeps only the lookups of
its own: a component or a marked point by name, its rank and parity, and
its record (``to_record``), each computed once per model.

Building a model is the one validating pass, and it costs time in the size
of its input.  ``plane_cover`` gives the curves of one degree one shared
class, made from its support, and checks each curve in one sweep over its
multiplicities (a proximity sum only for a curve through an infinitely near
point), after checking that a document can write every name (``NAME``).
``CurveComponent`` checks its multiplicities in one pass over them,
sorted.  ``CoverModel`` merges the branch data and sorts each D_g once, in
place, then checks every name by set lookups: component ids and marked
names unique, marked names apart from the centers, every parent known and
no cycle of parents, and every multiplicity, branch entry and pencil naming
a known point or curve.  So a model that ``plane_cover`` accepts is one its
document can write: ``config.from_cover`` inverts ``to_cover``.

The engine never builds L_chi.  Taking L_chi = S_chi / 2 makes every product
relation hold, so all it needs to know is that each S_chi is divisible by
two: ``check_parity`` decides that in one pass over the nonzero coefficients
of the branch classes, whatever r is, and ``invariants`` reads chi off the
[D_g] in closed form.  ``check_cover`` runs ``check_parity`` and then asks
whether the branch elements generate the group (the cover is connected only
then), the one order the command line and the matchers check a model in.
``derive_building_data`` gives the 2^r classes L_chi on request, computed
per call from the [D_g] of ``branch_classes``, the sweep the invariant
report, the bicanonical class and K^2 read too: S_chi sums the [D_g] with g
odd on chi.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, islice
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import group
from .errors import (
    DanglingReferenceError,
    DimensionError,
    DomainError,
    GeometryError,
    MatchError,
    ParityError,
)
from .group import Character, GroupElement
from .lattice import PLANE, BlownPlane, Center, DivisorClass

#: The names a document can write, for curves and points alike (``config``
#: reads names with it too); a name matches it in full.
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_']*")


@dataclass(frozen=True, slots=True)
class CurveComponent:
    """One irreducible-or-declared-reducible piece of the branch curve."""

    cid: str
    cls: DivisorClass
    irreducible: bool = True
    mults: tuple[tuple[str, int], ...] = ()
    exceptional_of: str | None = None

    def __post_init__(self):
        support = self.cls.support
        degree = support.get(0, 0)
        if degree < 0:
            raise DomainError(f"component {self.cid!r} has negative degree")
        if degree == 0:
            lead = support[min(support)] if support else None
            if lead is None or lead < 0:
                raise DomainError(
                    f"degree-0 component {self.cid!r} must be an exceptional class"
                )
        # one pass over the sorted incidences: a repeated point sits next to
        # itself, and a multiplicity below 1 anywhere is reported first
        mults = sorted(self.mults)
        repeated, last = False, None
        for name, m in mults:
            if m < 1:
                raise DomainError(f"component {self.cid!r} has a multiplicity below 1")
            repeated |= name == last
            last = name
        if repeated:
            raise DomainError(f"component {self.cid!r} repeats a point in its multiplicities")
        object.__setattr__(self, "mults", tuple(mults))

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
    for g in sorted(merged, key=group.element_key):
        entries = [entry for entry in merged[g].items() if entry[1] > 0]
        if entries:
            entries.sort()
            out.append((g, tuple(entries)))
    return tuple(out)


_cid_key = attrgetter("cid")
_name_key = attrgetter("name")


@dataclass(frozen=True)
class CoverModel:
    """A totally symbolic (Z/2)^r cover of a blown plane.

    A marked point is the ``Center`` it becomes once blown up: its
    ``parent`` names a blown-up center or another marked point, and a child
    point encodes a direction infinitely near its parent.
    """

    r: int
    surface: BlownPlane
    components: tuple[CurveComponent, ...]
    branch: BranchData
    marked: tuple[Center, ...] = ()
    pencil: str | None = None

    def __post_init__(self):
        r, surface = self.r, self.surface
        if not 1 <= r <= group.MAX_RANK:
            raise DomainError(f"cover rank must be between 1 and {group.MAX_RANK}")
        object.__setattr__(self, "components", tuple(sorted(self.components, key=_cid_key)))
        object.__setattr__(self, "branch", _canonical_branch(self.branch))
        object.__setattr__(self, "marked", tuple(sorted(self.marked, key=_name_key)))
        id_set = {c.cid for c in self.components}
        if len(id_set) != len(self.components):
            raise DomainError("component ids must be unique")
        known_points = {m.name for m in self.marked}
        centers = surface._slots
        if not known_points.isdisjoint(centers):
            raise DomainError("marked point names collide with blown-up centers")
        if len(known_points) != len(self.marked):
            raise DomainError("marked point names must be unique")
        near = {}  # name -> parent, for the points infinitely near a marked point
        for m in self.marked:
            parent = m.parent
            if parent in known_points:
                near[m.name] = parent
            elif parent is not None and parent not in centers:
                raise DanglingReferenceError(
                    f"marked point {m.name!r} has unknown parent {parent!r}"
                )
        grounded: set[str] = set()  # points whose chain of parents ends
        for name in near:
            chain, point = set(), name
            while point in near and point not in grounded:
                if point in chain:
                    raise DomainError(f"the parents of marked point {name!r} form a cycle")
                chain.add(point)
                point = near[point]
            grounded |= chain
        for comp in self.components:
            if comp.cls.surface is not surface and comp.cls.surface != surface:
                raise DimensionError(f"component {comp.cid!r} lives on the wrong surface")
            for name, _ in comp.mults:
                if name not in known_points:
                    raise DanglingReferenceError(
                        f"component {comp.cid!r} declares a multiplicity at unknown point {name!r}"
                    )
        for g, entries in self.branch:
            if g.r != r:
                raise DimensionError(f"branch element {g} has wrong rank")
            if not g.mask:
                raise DomainError("branch data are indexed by nonzero group elements")
            for cid, _ in entries:
                if cid not in id_set:
                    raise DanglingReferenceError(f"branch references unknown component {cid!r}")
        pencil = self.pencil
        if pencil is not None and pencil not in known_points and pencil not in centers:
            raise DanglingReferenceError(f"pencil point {pencil!r} is not a known point")

    # -- lookups ---------------------------------------------------------
    # The maps behind the lookups are built on first use, each in one pass over
    # the components or marked points; a model is frozen, so they never go
    # stale.

    @cached_property
    def _by_cid(self) -> dict[str, CurveComponent]:
        return {c.cid: c for c in self.components}

    @cached_property
    def _by_point(self) -> dict[str, Center]:
        return {m.name: m for m in self.marked}

    @cached_property
    def _record(self) -> ModelRecord:
        """The model as plain data (``to_record``); coefficient maps are shared."""
        return ModelRecord(
            self.r,
            list(self.surface.centers),
            dict(self._by_point),
            self.pencil,
            carriers(self.branch),
            {c.cid: c.cls.support for c in self.components},
            {c.cid: (c.irreducible, c.exceptional_of) for c in self.components},
            {c.cid: list(c.mults) for c in self.components},
        )

    def component(self, cid: str) -> CurveComponent:
        """One dict lookup in a map built once per model."""
        try:
            return self._by_cid[cid]
        except KeyError:
            raise DanglingReferenceError(f"no component named {cid!r}") from None

    def marked_point(self, name: str) -> Center:
        """One dict lookup in a map built once per model."""
        try:
            return self._by_point[name]
        except KeyError:
            raise DanglingReferenceError(f"no marked point named {name!r}") from None

    # -- rank and parity --------------------------------------------------
    # Like the lookup maps, computed on first use and kept: every caller that
    # asks a model for its rank or parity shares one computation.

    @cached_property
    def _rank(self) -> int:
        """Dimension of the span of the g with nonzero D_g."""
        return group.rank((g for g, entries in self.branch if entries), self.r)

    @cached_property
    def _odd_character(self) -> Character | None:
        curves = carriers(self.branch).items()
        return odd_character(self.r, ((g, self._by_cid[cid].cls.support) for cid, g in curves))


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
    over the points they share may not exceed d_a*d_b (Bezout).

    One sweep over each curve's multiplicities checks m against d and adds
    into the curve's proximity and genus sums; then the point -> (cid, m)
    index (``curves_through``) adds into the Bezout sum of each pair of
    curves through each point.
    Only the first broken rule is reported: a curve id, marked point name
    or pencil that a document cannot write (``NAME``) is a DomainError, the
    first in that order; then the pencil; then, curve by curve, m against d
    (points by name), proximity (parents in order of first mention) and
    genus; then Bezout, for the least offending pair.
    After them, a curve that takes a marked point's name is a DomainError
    (the least such name): a document names points and curves alike.
    """
    reducible = set(reducible)
    parent_of = dict(marked)
    names = [cid for cid, _, _ in components] + [*parent_of] + ([] if pencil is None else [pencil])
    if not all(map(NAME.fullmatch, names)):
        unwritable = next(name for name in names if not NAME.fullmatch(name))
        raise DomainError(f"name {unwritable!r} cannot be written in a document")
    if parent_of.get(pencil) is not None:
        raise GeometryError(f"pencil point {pencil!r} is infinitely near {parent_of[pencil]!r}")
    degree_of: dict[str, int] = {}
    classes: dict[int, DivisorClass] = {}  # curves of one degree share their class
    comps = []
    for cid, degree, mults in components:
        cls = classes.get(degree) or classes.setdefault(
            degree, DivisorClass.from_support(PLANE, {0: degree})
        )
        comp = CurveComponent(cid, cls, cid not in reducible, mults.items())
        near: dict[str, int] = {}
        delta = 0
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
            parent = parent_of.get(point)
            if parent is not None:
                near[parent] = near.get(parent, 0) + m
            delta += m * (m - 1) // 2
        if near:
            broken = {point for point, total in near.items() if total > mults.get(point, 0)}
            if broken:
                point = next(parent for parent in parent_of.values() if parent in broken)
                raise GeometryError(
                    f"component {cid!r} has multiplicity {mults.get(point, 0)} at {point!r} "
                    f"but {near[point]} at the points infinitely near it"
                )
        genus = (degree - 1) * (degree - 2) // 2
        if comp.irreducible and delta > genus:
            raise GeometryError(
                f"component {cid!r} of degree {degree} has declared singularities with "
                f"sum m(m-1)/2 = {delta}, above its arithmetic genus {genus}; declare it reducible"
            )
        degree_of[cid] = degree
        comps.append(comp)
    ids = sorted(degree_of)
    n = len(ids)
    index = {cid: i for i, cid in enumerate(ids)}
    degrees = [degree_of[cid] for cid in ids]
    shared = pair_sums(curves_through((index[c.cid], c.mults) for c in comps).values(), n)
    over = [key for key, total in shared.items() if total > degrees[key // n] * degrees[key % n]]
    if over:
        key = min(over)
        a, b = divmod(key, n)
        raise GeometryError(
            f"components {ids[a]!r} and {ids[b]!r} meet with multiplicity {shared[key]} "
            f"at declared points, above the product of their degrees "
            f"{degrees[a]}*{degrees[b]} (Bezout)"
        )
    named = degree_of.keys() & parent_of.keys()
    if named:
        raise DomainError(f"component id {min(named)!r} is also the name of a marked point")
    branch_data = [(GroupElement.parse(key), entries) for key, entries in branch.items()]
    marks = [Center(name, parent) for name, parent in marked]
    return CoverModel(r, PLANE, comps, branch_data, marks, pencil)


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
    ``mark_points`` marks them on the model's record; the branch data are
    kept as they are.
    """
    record = mark_points(to_record(cover), points)
    mults = record.mults
    components = tuple(
        replace(c, mults=tuple(mults[c.cid])) if len(mults[c.cid]) > len(c.mults) else c
        for c in cover.components
    )
    return replace(cover, components=components, marked=tuple(record.marked.values()))


# -- records ----------------------------------------------------------------
# A model as plain data, for work that chains steps (blow-ups, Cremona moves)
# and builds the model once at its end, by the validating constructors.


class ModelRecord(NamedTuple):
    """A model as plain data, so that blow-ups and Cremona moves can follow
    one another with no object built in between: the rank r, the centers
    in slot order, the marked points by name, the pencil point, and per
    curve its carrier mask, its nonzero coefficients by slot, (irreducible,
    exceptional_of) and its incidences with the marked points.

    ``carrier`` holds every curve some D_g holds, with the XOR of the g
    whose D_g hold it an odd number of times (0 when that cancels); the
    other maps hold every curve.  A record made by ``blow_up`` or a move is
    normalized: every curve has a nonzero carrier.  Functions on records
    return new records and never change the one they are given, so a
    model keeps its record (``to_record``) for every caller.
    """

    r: int
    centers: list[Center]
    marked: dict[str, Center]
    pencil: str | None
    carrier: dict[str, int]
    coeffs: dict[str, dict[int, int]]
    kept: dict[str, tuple[bool, str | None]]
    mults: dict[str, list[tuple[str, int]]]

    def mult_at(self, cid: str, point: str | None) -> int:
        """The multiplicity of curve ``cid`` at a marked point, 0 when it misses it."""
        return next((m for name, m in self.mults[cid] if name == point), 0)


def to_record(cover: CoverModel) -> ModelRecord:
    """The record of a model, read once per model and shared by every
    caller: read only, like every record a function is given."""
    return cover._record


def build_model(record: ModelRecord) -> CoverModel:
    """The model of a normalized record, built once by the validating
    constructors: every curve is a component in the D_g of its carrier."""
    surface = surface_of(record)
    comps = tuple(
        CurveComponent(
            cid,
            DivisorClass.from_support(surface, coeff),
            irreducible=record.kept[cid][0],
            mults=tuple(record.mults[cid]),
            exceptional_of=record.kept[cid][1],
        )
        for cid, coeff in record.coeffs.items()
    )
    branch = tuple(
        (GroupElement._of(record.r, record.carrier[cid]), ((cid, 1),)) for cid in record.coeffs
    )
    return CoverModel(
        record.r, surface, comps, branch, tuple(record.marked.values()), record.pencil
    )


def mark_points(
    record: ModelRecord, points: Iterable[tuple[str, str | None, Mapping[str, int] | None]]
) -> ModelRecord:
    """``add_marked_points`` on a record: the new marked points
    ``(name, parent, mults)``, with the same rules and errors.

    A curve's incidence list is copied once per call, the first time a new
    point passes through it, so the record given is never changed and the
    cost follows the number of new incidences."""
    mults = dict(record.mults)
    copied: set[str] = set()
    exceptional: dict[str, list[str]] = {}
    for cid, (_, of) in record.kept.items():
        if of is not None:
            exceptional.setdefault(of, []).append(cid)
    marked = dict(record.marked)
    in_use = names_in_use(record)
    for name, parent, at in points:
        at = dict(at or {})
        if name in in_use:
            raise DomainError(f"point name {name!r} is already in use")
        unknown = sorted(at.keys() - mults.keys())
        if unknown:
            raise DanglingReferenceError(f"unknown components in mults: {unknown}")
        in_use.add(name)
        for cid in exceptional.get(parent, ()):
            at.setdefault(cid, 1)
        for cid, m in at.items():
            if cid not in copied:
                copied.add(cid)
                mults[cid] = list(mults[cid])
            mults[cid].append((name, m))
        marked[name] = Center(name, parent)
    return record._replace(marked=marked, mults=mults)


def surface_of(record: ModelRecord) -> BlownPlane:
    """The plane blown up at the record's centers, in slot order."""
    return BlownPlane(tuple(record.centers)) if record.centers else PLANE


# -- indexes ----------------------------------------------------------------
# One implementation each, fed by a record's maps or by a model's own data.


def curves_through(
    curves: Iterable[tuple[str | int, Iterable[tuple[str, int]]]],
) -> dict[str, list[tuple[str | int, int]]]:
    """point -> [(cid, m), ...] of the curves through it, in id order, from
    (cid, incidences) pairs; a repeated id is kept, in the order given.  An
    id is a curve's name, or its index in the sorted names."""
    through: dict[str, list[tuple[str | int, int]]] = {}
    for cid, at in sorted(curves, key=itemgetter(0)):
        for name, m in at:
            through.setdefault(name, []).append((cid, m))
    return through


def pair_sums(groups: Iterable[Sequence[tuple[int, int]]], n: int) -> dict[int, int]:
    """i * n + j -> the sum of x * y over the groups in which (i, x) comes
    before (j, y): per pair of curves, by their indexes below ``n``, the sum
    over the points (or slots) they share of the product of their
    multiplicities there.  The keys sort as the pairs (i, j) do, and a group
    of two curves, as at every crossing, costs one update."""
    sums: dict[int, int] = {}
    for members in groups:
        if len(members) == 2:
            (i, x), (j, y) = members
            key = i * n + j
            sums[key] = sums.get(key, 0) + x * y
            continue
        for a, (i, x) in enumerate(members):
            for j, y in members[a + 1 :]:
                key = i * n + j
                sums[key] = sums.get(key, 0) + x * y
    return sums


def children_by_parent(marked: Mapping[str, Center]) -> dict[str, list[str]]:
    """parent -> names of the marked points infinitely near it, in name order."""
    children: dict[str, list[str]] = {}
    for name in sorted(marked):
        parent = marked[name].parent
        if parent is not None:
            children.setdefault(parent, []).append(name)
    return children


def carriers(branch: BranchData) -> dict[str, int]:
    """cid -> the bit mask of the XOR of the g whose D_g hold it an odd
    number of times (0 when that cancels), for every curve some D_g holds."""
    carrier: dict[str, int] = {}
    for g, entries in branch:
        for cid, k in entries:
            carrier[cid] = carrier.get(cid, 0) ^ (g.mask if k & 1 else 0)
    return carrier


def odd_character(r: int, curves: Iterable[tuple[int, Mapping[int, int]]]) -> Character | None:
    """The first character, in ``group.characters`` order, whose branch sum
    S_chi has an odd coefficient; None when every S_chi is even.

    ``curves`` are (carrier, nonzero coefficients) pairs, one per curve
    some D_g holds (``carriers``): mod 2, S_chi is the sum of
    eps_chi(carrier) [C] over the curves C.  So S_chi at slot s is
    eps_chi(v_s), where v_s is the XOR of the carriers of the curves with an
    odd coefficient at s: one pass over the coefficients collects the v_s,
    and S_chi is odd exactly when chi pairs oddly with one of them.
    """
    at_slot: dict[int, int] = {}
    for mask, support in curves:
        for slot, value in support.items():
            if value & 1:
                at_slot[slot] = at_slot.get(slot, 0) ^ mask
    odd = {v for v in at_slot.values() if v}
    if not odd:
        return None
    chis = (chi for chi in group.characters(r) if any((chi.mask & v).bit_count() & 1 for v in odd))
    return next(chis)


def branch_classes(
    entries: Iterable[tuple[int, int, Mapping[int, int]]],
) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """D_g by the mask of g, and D = sum of the D_g, as coefficient maps (a
    cancelled coefficient stays, as 0), from (g mask, multiplicity k,
    nonzero coefficients of the curve) triples, one per branch entry: each
    coefficient is added, k times, into D_g and into D."""
    by_g: dict[int, dict[int, int]] = {}
    total: dict[int, int] = {}
    for g, k, support in entries:
        d_g = by_g.setdefault(g, {})
        for slot, value in support.items():
            value *= k
            d_g[slot] = d_g.get(slot, 0) + value
            total[slot] = total.get(slot, 0) + value
    return by_g, total


def model_entries(cover: CoverModel) -> Iterable[tuple[int, int, Mapping[int, int]]]:
    """The (g mask, k, nonzero coefficients) triple of each branch entry of
    a model, for ``branch_classes``: a curve with k > 1, or in several D_g,
    counts as its entries say."""
    comps = cover._by_cid
    return ((g.mask, k, comps[cid].cls.support) for g, pairs in cover.branch for cid, k in pairs)


def names_in_use(record: ModelRecord) -> set[str]:
    """The names of the record's curves, marked points and centers: a document
    names them all alike, so a new point or curve may take none of them."""
    return record.coeffs.keys() | record.marked.keys() | {c.name for c in record.centers}


def fresh_names(record: ModelRecord, stem: str, n: int = 1) -> list[str]:
    """The first ``n`` names ``stem<i>``, i = 1, 2, ..., that no curve, marked
    point or center uses."""
    taken = names_in_use(record)
    names = (f"{stem}{i}" for i in count(1))
    return list(islice((name for name in names if name not in taken), n))


# -- operations ------------------------------------------------------------


def is_totally_ramified(cover: CoverModel) -> bool:
    """True when the g with nonzero D_g generate the whole group: their span has dimension r."""
    return cover._rank == cover.r


def check_parity(cover: CoverModel) -> None:
    """Raise ParityError naming the first character whose branch sum S_chi
    has an odd coordinate: this is exactly the classical parity obstruction
    (for r=2, the three branch degrees must share their parity).

    One pass over the nonzero coefficients of the branch classes, once per
    model; no S_chi is built (see ``odd_character``).
    """
    raise_odd_character(cover._odd_character)


def raise_odd_character(chi: Character | None) -> None:
    """The ParityError of ``check_parity`` for ``chi``, the first character
    whose branch sum is odd (``odd_character``); nothing when chi is None."""
    if chi is not None:
        raise ParityError(
            f"branch data sum for character {chi} is not divisible by two", character=chi
        )


def check_cover(cover: CoverModel) -> CoverModel:
    """The cover, after the two checks a cover command makes before any
    geometry, in this order: ParityError when the branch data have no cover
    (``check_parity``), then MatchError("not totally ramified") when the g
    with nonzero D_g span a proper subgroup, so the cover is not connected.
    The command line runs it on the normalized model, and so do the
    matchers."""
    check_parity(cover)
    if not is_totally_ramified(cover):
        raise MatchError("not totally ramified")
    return cover


def derive_building_data(cover: CoverModel) -> dict[Character, DivisorClass]:
    """L_chi = (1/2) * sum over nonzero g of eps_chi(g) * [D_g], for every
    character chi in ``group.characters`` order, on request.

    Computed per call from the [D_g] of ``branch_classes``, so each call
    returns a fresh dict, which the caller may change.  No engine path calls
    this: they need parity only (``check_parity``), whose ParityError it
    raises first.
    """
    check_parity(cover)
    by_g, _ = branch_classes(model_entries(cover))
    building = {}
    for chi in group.characters(cover.r):
        # S_chi is the D of the D_g with g odd on chi
        odd = ((g, 1, d_g) for g, d_g in by_g.items() if (chi.mask & g).bit_count() & 1)
        _, total = branch_classes(odd)
        halves = {slot: value // 2 for slot, value in total.items()}
        building[chi] = DivisorClass.from_support(cover.surface, halves)
    return building


def quotient_cover(cover: CoverModel, subgroup: Iterable[GroupElement]) -> CoverModel:
    """The induced (Z/2)^(r-s) cover of the same surface, s = dim subgroup.

    Branch rule: D'_hbar is the union of the D_g with g mapping to hbar != 0
    in G/H.  Building data are re-derived from the quotient branch data.
    The map G -> G/H is tabulated once: with the coordinate vectors that
    complete H to all of G as the quotient's basis, every element rep(bits)
    + h of the coset of rep(bits) maps to bits.
    """
    gens = list(subgroup)
    sub = group.span(gens, cover.r)
    basis = group.complement_basis(gens, cover.r)
    if not basis:
        raise DomainError("cannot quotient by the full group")
    new_r = len(basis)
    image: dict[GroupElement, GroupElement] = {}
    for bits in group.elements(new_r):
        rep = sum((vec for coeff, vec in zip(bits.bits, basis) if coeff), group.zero(cover.r))
        for h in sub:
            image[rep + h] = bits
    new_branch = [(image[g], entries) for g, entries in cover.branch if not image[g].is_zero]
    kept = {cid for _, entries in new_branch for cid, _ in entries}
    comps = tuple(c for c in cover.components if c.cid in kept)
    return CoverModel(new_r, cover.surface, comps, tuple(new_branch), cover.marked, cover.pencil)
