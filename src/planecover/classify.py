"""Matching normalized covers against the classification, and Cremona moves.

The conic-bundle matcher takes a marked pencil point p and first computes
the subgroup G' of elements acting trivially on the parameter line of the
pencil of lines through p: G' is spanned by the inertia elements met by a
general pencil line on the blow-up at p (including the exceptional section
when normalization puts it in the branch).  The branch-point count on that
line then pins down the family, and shape conditions select the case.

Cremona reduction does not search for simplifying moves.  The matcher
branch that decides a family attaches that family's recipe to the label it
returns (``CaseLabel.reduce``), built from the curves and points the match
found; reducing is matching once and running the recipe, so its output is
deterministic and directly testable.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

from . import group, lattice
from .cover import (
    CoverModel,
    CurveComponent,
    MarkedPoint,
    add_marked_point,
    derive_building_data,
    is_totally_ramified,
)
from .errors import GeometryError, MatchError, PreconditionError, ReductionError
from .group import GroupElement
from .normalize import is_normalized, normalize, pull_back


@dataclass(frozen=True)
class CaseLabel:
    """A matched case: proposition id, taxonomy symbol, family parameters.

    ``reduce`` is the matched family's Cremona recipe on the model it was
    matched on, returning the reduced model and its moves; it is ``None``
    for families already in normal form.  It takes no part in equality.
    """

    proposition: str
    symbol: str
    params: tuple[tuple[str, object], ...] = ()
    flags: tuple[str, ...] = ()
    reduce: Callable[[], tuple[CoverModel, tuple[MoveRecord, ...]]] | None = field(
        default=None, compare=False, repr=False
    )

    def serialize(self) -> str:
        text = f"Prop{self.proposition}/{self.symbol}"
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in self.params)
            text += f"[{inner}]"
        return text

    def same_case(self, other: "CaseLabel") -> bool:
        return (self.proposition, self.symbol) == (other.proposition, other.symbol)


@dataclass(frozen=True)
class GPrimeStructure:
    """The split G = G' x pi(G) induced by the action on the pencil."""

    dimension: int
    subgroup: tuple[GroupElement, ...]


_EXPECTED_BRANCH_POINTS = {
    (2, 0): 0,
    (2, 1): 2,
    (2, 2): 3,
    (3, 1): 2,
    (3, 2): 3,
    (4, 2): 3,
}


def _require_plane_normalized(cover: CoverModel) -> None:
    if cover.surface.rank != 1:
        raise PreconditionError("matching works on plane configurations only")
    if not is_normalized(cover):
        raise PreconditionError("normalize the cover before matching")


def infer_g_prime(cover: CoverModel, pencil_point: str) -> GPrimeStructure:
    """Compute G' from which branch pieces meet a general pencil line.

    The cover is pulled back to the blow-up at the pencil point and
    normalized; a branch component is horizontal when its class meets the
    fiber class, and the exceptional section counts when the normalization
    keeps it in the branch.
    """
    _require_plane_normalized(cover)
    model = normalize(pull_back(cover, pencil_point))
    fiber = lattice.hyperplane(model.surface) - lattice.exceptional(
        model.surface, pencil_point
    )
    carriers: list[GroupElement] = []
    count = 0
    for g, entries in model.branch:
        for cid, mult in entries:
            crossings = lattice.intersect(model.component(cid).cls, fiber)
            if crossings < 0:
                raise MatchError(
                    f"component {cid} has negative fiber degree; bad multiplicities at the pencil point"
                )
            if crossings:
                carriers.append(g)
                count += mult * crossings
    subgroup = group.span(carriers, cover.r)
    s = group.subgroup_dimension(subgroup)
    expected = _EXPECTED_BRANCH_POINTS.get((cover.r, s))
    if expected is None:
        raise MatchError(
            f"not an invariant-conic-bundle configuration: r={cover.r} with G' of rank {s}"
        )
    if count != expected:
        raise MatchError(
            f"not an invariant-conic-bundle configuration: {count} branch points "
            f"on a general pencil line, expected {expected} for r={cover.r}, s={s}"
        )
    return GPrimeStructure(dimension=s, subgroup=tuple(sorted(subgroup)))


# -- shape helpers -----------------------------------------------------------


def _branch_profiles(cover: CoverModel, p: str):
    """Per-element totals: g -> (degree, multiplicity at p, components)."""
    out = {}
    for g, entries in cover.branch:
        comps = [cover.component(cid) for cid, _ in entries]
        degree = sum(c.cls.degree for c in comps)
        mult = sum(c.mult_at(p) for c in comps)
        out[g] = (degree, mult, comps)
    return out


def _is_pencil_line(comp: CurveComponent, p: str) -> bool:
    return comp.cls.degree == 1 and comp.mult_at(p) == 1


def _odd_curve_form(g: GroupElement, degree: int, mult: int, comps, p: str):
    """Validate the odd-degree horizontal curve of the G'=Z/2 families."""
    if degree % 2 == 0:
        raise MatchError(f"D_{g} must have odd degree, got {degree}")
    if mult == degree - 2 and degree >= 3:
        if len(comps) != 1 or not comps[0].irreducible:
            raise MatchError(f"D_{g} with multiplicity d-2 must be one irreducible curve")
        return "deep"
    if mult == degree - 1:
        heavy = [c for c in comps if not (_is_pencil_line(c, p))]
        if len(heavy) != 1 or heavy[0].mult_at(p) != heavy[0].cls.degree - 1:
            raise MatchError(
                f"D_{g} with multiplicity d-1 must be one curve with an (e-1)-fold "
                f"point at the pencil point plus pencil lines"
            )
        return "reducible"
    raise MatchError(
        f"D_{g} must have multiplicity {degree - 2} or {degree - 1} at the pencil point, got {mult}"
    )


def _same_parity_triple(gs, profiles, p: str):
    """The three-curves-with-(deg-1)-fold-points shape shared by three families."""
    degrees = []
    bumped = []
    for g in gs:
        degree, mult, comps = profiles[g]
        if degree < 1:
            raise MatchError(f"D_{g} must be a curve of positive degree")
        if mult == degree:
            bumped.append(g)
        elif mult != degree - 1:
            raise MatchError(
                f"D_{g} must have multiplicity {degree - 1} (or {degree}) at the pencil point"
            )
        degrees.append(degree)
    if len(bumped) > 1:
        raise MatchError("at most one curve may have multiplicity one more at the pencil point")
    if len({d % 2 for d in degrees}) != 1:
        raise MatchError(f"degrees {tuple(degrees)} must share their parity")
    return tuple(sorted(degrees, reverse=True)), bool(bumped)


def _common_point(cover: CoverModel, comps, exclude: str) -> str | None:
    """A marked point other than ``exclude`` lying on all given components."""
    for m in cover.marked:
        if m.name == exclude:
            continue
        if all(c.mult_at(m.name) >= 1 for c in comps):
            return m.name
    return None


# -- the invariant conic bundle matcher ---------------------------------------


#: G' = Z/2: r -> (proposition, deep-curve symbol, reducible-curve symbol)
_ODD_CURVE_FAMILIES = {2: ("4.4", "C.2,21", "0.22"), 3: ("4.8", "C.2,22", "P1.222&P1.2221")}
#: G' = (Z/2)^2: r -> (proposition, three-curves symbol, concurrent-lines symbol)
_TRIPLE_FAMILIES = {2: ("4.6", "C.22", None), 3: ("4.10", "C.221", "P1s.222"),
                    4: ("4.12", "C.22,22", "P1.2222")}


def _require_pencil_lines(profiles, gs, p: str) -> None:
    for g in gs:
        comps = profiles[g][2]
        if len(comps) != 1 or not _is_pencil_line(comps[0], p):
            raise MatchError(f"D_{g} must be a single line of the pencil")


def _four_line_model(profiles, nonzero) -> CaseLabel:
    """The four-line model produced by the P1s.222 reduction."""
    if len(nonzero) == 4 and all(
        profiles[g][0] == 1 and len(profiles[g][2]) == 1 for g in nonzero
    ):
        verticals = [g for g in nonzero if profiles[g][1] == 1]
        horizontals = [g for g in nonzero if profiles[g][1] == 0]
        if len(verticals) == 2 and len(horizontals) == 2:
            k1, k2 = verticals
            h1, h2 = horizontals
            if k1 + k2 != h1 + h2:
                raise MatchError(
                    "four-line form needs matching vertical and horizontal element sums"
                )
            return CaseLabel("4.10", "P1s.222", (), ("reduced-four-line-model",))
    raise MatchError("branch data do not fit the rank-3 G'=(Z/2)^2 shapes")


def match_conic_bundle(cover: CoverModel, pencil_point: str) -> CaseLabel:
    """Match against the invariant-conic-bundle families."""
    _require_plane_normalized(cover)
    if not is_totally_ramified(cover):
        raise MatchError("not totally ramified")
    derive_building_data(cover)  # surfaces parity problems with a precise message
    structure = infer_g_prime(cover, pencil_point)
    r, s = cover.r, structure.dimension
    profiles = _branch_profiles(cover, pencil_point)
    nonzero = sorted(profiles)
    p = pencil_point

    # infer_g_prime admits s = 0 at r = 2, s = 1 at r = 2, 3 and s = 2 at r = 2, 3, 4
    if s == 0:
        if len(nonzero) != 3:
            raise MatchError("all three branch divisors must be nonzero")
        _require_pencil_lines(profiles, nonzero, p)
        return CaseLabel("4.2", "P1.221&P1.22.1")

    if s == 1:
        # r pencil lines whose elements sum to w, and one odd curve carrying w
        prop, deep, reducible = _ODD_CURVE_FAMILIES[r]
        w = next(g for g in structure.subgroup if not g.is_zero)
        verticals = [g for g in nonzero if g != w]
        if len(verticals) != r:
            count = ("two", "three")[r - 2]
            raise MatchError(f"exactly {count} branch divisors must be pencil lines")
        _require_pencil_lines(profiles, verticals, p)
        if sum(verticals, group.zero(r)) != w:
            raise MatchError("the pencil-line inertia elements must sum to the G'-carrier")
        if w not in profiles:
            raise MatchError("the G'-carrier branch divisor is zero")
        degree, mult, comps = profiles[w]
        params = (("d", degree),)
        if _odd_curve_form(w, degree, mult, comps, p) == "deep":
            return CaseLabel(prop, deep, params)
        if degree == 1:
            return CaseLabel(prop, reducible, params)
        recipe = partial(_reduce_odd_curve, cover, p, w)
        return CaseLabel(prop, reducible, params, ("needs-reduction",), reduce=recipe)

    # s == 2: three curves on a rank-2 subgroup, the other elements pencil lines
    if r == 2:
        if len(nonzero) != 3:
            raise MatchError("all three branch divisors must be nonzero")
        verticals = ()
    elif r == 3:
        verticals = [
            g
            for g in nonzero
            if len(profiles[g][2]) == 2 and all(_is_pencil_line(c, p) for c in profiles[g][2])
        ]
        if len(verticals) != 1 or len(nonzero) != 4:
            return _four_line_model(profiles, nonzero)
    else:
        if len(nonzero) != 6:
            raise MatchError("need three pencil lines and three curves")
        singles = [
            g
            for g in nonzero
            if len(profiles[g][2]) == 1 and _is_pencil_line(profiles[g][2][0], p)
        ]
        trios = [t for t in itertools.combinations(singles, 3) if sum(t, group.zero(r)).is_zero]
        if not trios:
            raise MatchError("the pencil-line inertia elements must sum to zero")
        verticals = trios[-1]
    horizontals = [g for g in nonzero if g not in verticals]
    if not sum(horizontals, group.zero(r)).is_zero:
        raise MatchError("the three curve inertia elements must span a rank-2 subgroup")
    prop, curves, concurrent = _TRIPLE_FAMILIES[r]
    degrees, bumped = _same_parity_triple(horizontals, profiles, p)
    flags = ("b1",) if bumped else ()
    params = (("degrees", degrees),)
    if max(degrees) > 1:
        return CaseLabel(prop, curves, params, flags)
    lines = [profiles[g][2][0] for g in horizontals]
    q = None if bumped else _common_point(cover, lines, exclude=p)
    if r == 2:
        if q is not None:
            # three concurrent lines: the pencil-lines cover seen from a
            # pencil point away from the common point
            away = ("pencil-away-from-common-point",)
            return CaseLabel("4.2", "P1.221&P1.22.1", (("common_point", q),), away)
        return CaseLabel(prop, "0.22", params, flags + ("degenerate-three-lines",))
    if q is None:
        return CaseLabel(prop, curves, params, flags)
    recipe = None
    if r == 3:
        # one move at p, q and a point joining a curve line to a pencil line
        h_line = min(lines, key=lambda c: c.cid)
        k_line = min(profiles[verticals[0]][2], key=lambda c: c.cid)
        recipe = partial(_aux_move, cover, {h_line.cid: 1, k_line.cid: 1}, p, q, None)
    return CaseLabel(prop, concurrent, params + (("common_point", q),), reduce=recipe)


# -- the Del Pezzo matcher -----------------------------------------------------


def _marked_incidences(cover: CoverModel) -> dict[str, list[CurveComponent]]:
    out = {}
    for m in cover.marked:
        at = [c for c, _ in cover.components_at(m.name)]
        if len(at) >= 2:
            out[m.name] = at
    return out


def match_del_pezzo(cover: CoverModel) -> CaseLabel:
    """Match against the Del Pezzo families (no invariant pencil marked)."""
    _require_plane_normalized(cover)
    if not is_totally_ramified(cover):
        raise MatchError("not totally ramified")
    derive_building_data(cover)
    profiles = {g: [cover.component(cid) for cid, _ in entries] for g, entries in cover.branch}
    nonzero = sorted(profiles)
    degree_of = {g: sum(c.cls.degree for c in comps) for g, comps in profiles.items()}

    if cover.r == 2 and len(nonzero) == 2:
        by_degree = sorted(nonzero, key=degree_of.get)
        if [degree_of[g] for g in by_degree] != [2, 4]:
            raise MatchError("rank-2 two-divisor shape needs a conic and a quartic")
        conic = profiles[by_degree[0]][0]
        quartic = profiles[by_degree[1]][0]
        if len(profiles[by_degree[0]]) != 1 or len(profiles[by_degree[1]]) != 1:
            raise MatchError("conic and quartic must be single components")
        if not (conic.irreducible and quartic.irreducible):
            raise MatchError("conic and quartic must be irreducible")
        tacnode = None
        for m in cover.marked:
            if quartic.mult_at(m.name) == 2 and conic.mult_at(m.name) == 1:
                for child in cover.children_of_point(m.name):
                    if quartic.mult_at(child) == 2 and conic.mult_at(child) == 1:
                        tacnode = (m.name, child)
        if tacnode is None:
            raise MatchError(
                "need a tacnode of the quartic with the conic through it along the tacnodal tangent"
            )
        x, y = tacnode
        # one move at the tacnode, its tangent direction and a common point
        recipe = partial(_aux_move, cover, {quartic.cid: 1, conic.cid: 1}, x, None, y)
        return CaseLabel("5.1", "2.G2", (("tacnode", x),), reduce=recipe)

    if cover.r == 2 and len(nonzero) == 3:
        degs = sorted(degree_of[g] for g in nonzero)
        if degs != [1, 1, 3]:
            raise MatchError("rank-2 three-divisor shape needs two lines and a cubic")
        cubic_g = next(g for g in nonzero if degree_of[g] == 3)
        if len(profiles[cubic_g]) != 1:
            raise MatchError("the cubic must be a single component")
        cubic = profiles[cubic_g][0]
        if not cubic.irreducible or any(m >= 2 for _, m in cubic.mults):
            raise MatchError("the cubic must be smooth and irreducible")
        lines = [profiles[g][0] for g in nonzero if g != cubic_g]
        if any(len(profiles[g]) != 1 for g in nonzero if g != cubic_g):
            raise MatchError("each line divisor must be a single component")
        for line in lines:
            for t in cover.marked:
                if line.mult_at(t.name) >= 1 and cubic.mult_at(t.name) >= 1:
                    for child in cover.children_of_point(t.name):
                        if line.mult_at(child) >= 1 and cubic.mult_at(child) >= 1:
                            return CaseLabel(
                                "5.1", "2.G2", (("tangency", t.name),), ("reduced-cubic-model",)
                            )
                    raise MatchError("cubic meets a line at a marked point but not tangentially")
        if _marked_incidences(cover):
            raise MatchError("unexpected marked incidences for the two-lines-plus-cubic shape")
        return CaseLabel("5.3", "1.B2.1")

    if cover.r == 3:
        line_gs = [g for g in nonzero if degree_of[g] == 1 and len(profiles[g]) == 1]
        conic_gs = [g for g in nonzero if degree_of[g] == 2 and len(profiles[g]) == 1]
        pair_gs = [
            g
            for g in nonzero
            if degree_of[g] == 2
            and len(profiles[g]) == 2
            and all(c.cls.degree == 1 for c in profiles[g])
        ]
        if len(line_gs) == 3 and len(conic_gs) == 1 and len(nonzero) == 4:
            if line_gs[0] + line_gs[1] + line_gs[2] != group.zero(3):
                raise MatchError("the three line inertia elements must span a rank-2 subgroup")
            conic = profiles[conic_gs[0]][0]
            if not conic.irreducible:
                raise MatchError("the conic must be irreducible")
            triples = []
            for m in cover.marked:
                at = [c for c, _ in cover.components_at(m.name)]
                if len(at) >= 3:
                    ids = {c.cid for c in at}
                    if conic.cid not in ids or len(at) != 3:
                        raise MatchError(f"unexpected triple point at {m.name}")
                    triples.append((m.name, ids - {conic.cid}))
            if not triples:
                if _marked_incidences(cover):
                    raise MatchError("unexpected marked incidences for the conic-plus-lines shape")
                return CaseLabel("5.7", "2.G22")
            if len(triples) == 2:
                (xi, at_xi), (eta, at_eta) = triples
                if len(at_xi & at_eta) == 1 and at_xi != at_eta:
                    # one move at both triple points and a point joining the
                    # conic to the line through eta only
                    (only_eta,) = at_eta - at_xi
                    recipe = partial(_aux_move, cover, {conic.cid: 1, only_eta: 1}, xi, eta, None)
                    return CaseLabel("5.5", "4.222", (("triple_points", (xi, eta)),), reduce=recipe)
            raise MatchError(
                "the conic must pass through exactly two line intersections on one common line"
            )
        if len(line_gs) == 3 and len(pair_gs) == 1 and len(nonzero) == 4:
            # five-line model from the reduction of the three-lines-plus-conic case
            k = pair_gs[0]
            if line_gs[0] + line_gs[1] + line_gs[2] != group.zero(3):
                raise MatchError("five-line form needs single lines on a rank-2 subgroup")
            if k in line_gs:
                raise MatchError("five-line form needs the doubled element outside the subgroup")
            for name, at in _marked_incidences(cover).items():
                if len(at) > 3:
                    raise MatchError(f"too many lines through {name}")
                if len(at) == 3:
                    ks = [c for c in at if cover.inertia_of(c.cid) == k]
                    if len(ks) != 1:
                        raise MatchError(f"triple point at {name} must mix both subgroup parts")
            return CaseLabel("5.5", "4.222", (), ("reduced-five-line-model",))
        raise MatchError("rank-3 branch data do not fit a Del Pezzo shape")

    if cover.r == 4:
        if len(nonzero) != 5 or any(
            degree_of[g] != 1 or len(profiles[g]) != 1 for g in nonzero
        ):
            raise MatchError("rank-4 Del Pezzo shape needs five single lines")
        total = group.zero(4)
        for g in nonzero:
            total = total + g
        if not total.is_zero:
            raise MatchError("the five line inertia elements must sum to zero")
        if _marked_incidences(cover):
            raise MatchError("the five lines must be in general position")
        return CaseLabel("5.9", "4.2222")

    raise MatchError(f"no Del Pezzo case matches r={cover.r} branch data")


def classify(cover: CoverModel) -> CaseLabel:
    """Dispatch on the presence of a marked pencil point."""
    if cover.pencil is not None:
        return match_conic_bundle(cover, cover.pencil)
    return match_del_pezzo(cover)


# -- quadratic moves -----------------------------------------------------------


@dataclass(frozen=True)
class MoveRecord:
    """One quadratic transformation: base points and component fates."""

    based: tuple[str, str, str]
    contracted: tuple[str, ...]
    emitted: tuple[str, ...]

    def serialize(self) -> str:
        return (
            f"base=({', '.join(self.based)}) "
            f"contracted=[{', '.join(self.contracted)}] "
            f"emitted=[{', '.join(self.emitted)}]"
        )


def _purge_idle_marks(cover: CoverModel) -> CoverModel:
    """Drop direction markers no longer shared by two branch components."""
    current = cover
    while True:
        removable = None
        for m in current.marked:
            if m.name == current.pencil or current.children_of_point(m.name):
                continue
            if len(current.components_at(m.name)) <= 1:
                removable = m.name
                break
        if removable is None:
            return current
        comps = tuple(
            replace(c, mults=tuple((n, k) for n, k in c.mults if n != removable))
            for c in current.components
        )
        marked = tuple(m for m in current.marked if m.name != removable)
        current = replace(current, components=comps, marked=marked)


def quadratic_move(
    cover: CoverModel, p: str, q: str, r: str
) -> tuple[CoverModel, MoveRecord]:
    """Apply the quadratic transformation based at three marked points.

    Implemented as: pull back at the three points, normalize, reflect every
    component class, then reinterpret the three exceptional coordinates as
    the new base triangle.  Components reflected to degree 0 are contracted
    (or stay exceptional) and disappear from the plane configuration; branch
    membership of the new triangle's exceptionals reappears automatically on
    the next pullback via normalization, so no information is lost.
    """
    if cover.surface.rank != 1:
        raise PreconditionError("quadratic moves operate on plane configurations")
    based = (p, q, r)
    if len(set(based)) != 3:
        raise GeometryError("a quadratic move needs three distinct base points")
    for name in based:
        mp = cover.marked_point(name)
        if mp.parent is not None and mp.parent not in based:
            raise GeometryError(
                f"base point {name!r} is infinitely near {mp.parent!r}, which is not based"
            )
        strays = [c for c in cover.children_of_point(name) if c not in based]
        if strays:
            raise GeometryError(
                f"base point {name!r} carries infinitely near points {strays} "
                f"that the move would orphan"
            )
    order = sorted(based, key=lambda n: (cover.marked_point(n).parent is not None, n))
    work = normalize(pull_back(cover, *order))

    survivors: list[CurveComponent] = []
    dropped: set[str] = set()
    emitted: list[str] = []
    slots = {name: work.surface.index_of(name) for name in based}
    for comp in work.components:
        reflected = lattice.cremona_reflect(comp.cls, p, q, r)
        if reflected.degree == 0:
            dropped.add(comp.cid)
            continue
        mults = dict(comp.mults)
        for name in based:
            m = -reflected.coeffs[slots[name]]
            if m < 0:
                raise GeometryError(
                    f"move produced a negative multiplicity on {comp.cid}; invalid base triple"
                )
            if m:
                mults[name] = m
        if comp.exceptional_of in based:
            emitted.append(comp.cid)
        survivors.append(
            CurveComponent(
                comp.cid,
                lattice.DivisorClass(lattice.PLANE, (reflected.degree,)),
                irreducible=comp.irreducible,
                mults=tuple(mults.items()),
                exceptional_of=None,
            )
        )

    branch = []
    for g, entries in work.branch:
        kept = tuple((cid, k) for cid, k in entries if cid not in dropped)
        if kept:
            branch.append((g, kept))
    parent_of = {name: cover.marked_point(name).parent for name in based}
    marked = tuple(work.marked) + tuple(MarkedPoint(n, parent_of[n]) for n in based)
    moved = CoverModel(
        cover.r, lattice.PLANE, tuple(survivors), tuple(branch), marked, cover.pencil
    )
    moved = _purge_idle_marks(normalize(moved))
    record = MoveRecord(based, tuple(sorted(dropped)), tuple(sorted(emitted)))
    return moved, record


# -- reduction recipes ----------------------------------------------------------


def _fresh_name(cover: CoverModel, stem: str) -> str:
    taken = {m.name for m in cover.marked} | set(cover.surface.names)
    i = 1
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def _aux_move(cover: CoverModel, mults: dict[str, int], *based: str | None):
    """Mark a fresh point on the curves of ``mults``, then make the quadratic
    move at ``based``, where ``None`` stands for the fresh point."""
    aux = _fresh_name(cover, "aux")
    work = add_marked_point(cover, aux, mults=mults)
    work, record = quadratic_move(work, *(aux if n is None else n for n in based))
    return work, (record,)


def _reduce_odd_curve(cover: CoverModel, p: str, w: GroupElement):
    """Degree-drop then line-pair elimination on the odd horizontal curve."""
    moves = []
    work = cover
    while True:
        comps = [work.component(cid) for cid, _ in work.branch_map().get(w, ())]
        heavy = [
            c for c in comps if c.cls.degree >= 2 and c.mult_at(p) == c.cls.degree - 1
        ]
        if not heavy:
            break
        target = sorted(heavy, key=lambda c: c.cid)[0]
        qn = _fresh_name(work, "aux")
        work = add_marked_point(work, qn, mults={target.cid: 1})
        rn = _fresh_name(work, "aux")
        work = add_marked_point(work, rn, parent=p, mults={target.cid: 1})
        work, record = quadratic_move(work, p, qn, rn)
        moves.append(record)
    while True:
        comps = [work.component(cid) for cid, _ in work.branch_map().get(w, ())]
        through = sorted((c for c in comps if c.mult_at(p) == 1), key=lambda c: c.cid)
        off = [c for c in comps if c.mult_at(p) == 0]
        if not through:
            break
        if len(through) % 2:
            raise ReductionError(
                f"expected an even number of residual pencil lines in D_{w}, found {len(through)}"
            )
        if len(off) != 1 or off[0].cls.degree != 1:
            raise ReductionError("expected exactly one line off the pencil point")
        r_a, r_b = through[0], through[1]
        qn = _fresh_name(work, "aux")
        work = add_marked_point(work, qn, mults={off[0].cid: 1, r_b.cid: 1})
        rn = _fresh_name(work, "aux")
        work = add_marked_point(work, rn, parent=p, mults={r_a.cid: 1})
        work, record = quadratic_move(work, p, qn, rn)
        moves.append(record)
    return work, tuple(moves)


def cremona_reduce(cover: CoverModel, pencil_point: str | None = None):
    """Reduce a cover to its family's normal form by the family's recipe.

    Normalize and match the cover once, then run the recipe the match
    attached to its label.  Families already in normal form reduce to
    themselves with an empty trail.  Returns the reduced model and the
    move records.
    """
    p = pencil_point if pencil_point is not None else cover.pencil
    work = normalize(cover)
    label = match_conic_bundle(work, p) if p is not None else match_del_pezzo(work)
    return label.reduce() if label.reduce is not None else (work, ())
