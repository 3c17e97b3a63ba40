"""Matching normalized covers against the classification, and Cremona moves.

The conic-bundle matcher takes a marked pencil point p and first computes
the subgroup G' of elements acting trivially on the parameter line of the
pencil of lines through p: G' is spanned by the inertia elements met by a
general pencil line on the blow-up at p (including the exceptional section
when normalization puts it in the branch).  Both are intersection counts
the plane model already holds, so no blow-up is built: a curve of degree d
with multiplicity m_p at p meets the line (dH - m_p E_p).(H - E_p) = d - m_p
times, and the section E_p, met once, is in the branch with the XOR of the
inertia elements of the curves of odd multiplicity at p, when that is
nonzero.  The branch-point count on the line then pins down the family,
and shape conditions select the case.

A matcher checks the model it is given, in this order: a plane model,
normalized, then ``cover.check_cover``'s even parity and total
ramification, the order the command line uses too.  Then it reads the
model's record (``cover.ModelRecord``: the model as plain dicts) once;
every predicate reads that record, and the recipe a match attaches takes
it as its input.  Even parity, sum over g of (deg D_g mod 2)·g = 0, is
what makes 2L_chi = sum eps_chi(g) D_g solvable on the plane, and the
matchers take the shape facts it decides from ``check_parity`` without
testing them again: the G'-carrier of the G' = Z/2 families holds curves
of odd total degree d with multiplicity d-2 or d-1 at the pencil point,
the three curves of the G' = (Z/2)^2 families have degrees of one parity
and (d-1)-fold points there, or a d-fold one for at most one of them,
and the elements of the single lines sum to zero in the four-line model
and in the three- and five-line Del Pezzo shapes.

Cremona reduction does not search for simplifying moves.  The matcher
branch that decides a family attaches that family's recipe to the label it
returns (``CaseLabel.reduce``), built from the curves and points the match
found; reducing is matching once and running the recipe, so its output is
deterministic and directly testable.  A quadratic move maps a record to a
record: it blows up the three points, reflects the coefficients in closed
form and drops the marks left idle.  A recipe takes the matched record,
marks its auxiliary points, makes all its moves on records and returns the
reduced record; ``cremona_reduce`` builds the reduced model from it, once,
whatever the number of moves, and the census reads the record itself.
``quadratic_move`` builds one model per move.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial

from . import group, lattice
from .cover import (
    CoverModel,
    ModelRecord,
    build_model,
    check_cover,
    children_by_parent,
    curves_through,
    fresh_names,
    mark_points,
    to_record,
)
from .errors import (
    DanglingReferenceError,
    GeometryError,
    MatchError,
    PreconditionError,
    ReductionError,
)
from .group import GroupElement
from .normalize import blow_up, is_normalized, normalize


@dataclass(frozen=True)
class CaseLabel:
    """A matched case: proposition id, taxonomy symbol, family parameters.

    ``reduce`` is the matched family's Cremona recipe on the model it was
    matched on, returning the record of the reduced model and its moves; it
    is ``None`` for families already in normal form.  It takes no part in
    equality.
    """

    proposition: str
    symbol: str
    params: tuple[tuple[str, object], ...] = ()
    flags: tuple[str, ...] = ()
    reduce: Callable[[], tuple[ModelRecord, tuple[MoveRecord, ...]]] | None = field(
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


def _matched_record(cover: CoverModel) -> ModelRecord:
    """The matchers' shared checks, in order: a plane model, normalized, then
    even parity and total ramification (``check_cover``).  Then the model's
    record, read once: the matcher's predicates and the recipe it attaches
    read it."""
    _require_plane_normalized(cover)
    check_cover(cover)
    return to_record(cover)


def infer_g_prime(cover: CoverModel, pencil_point: str) -> GPrimeStructure:
    """Compute G' from which branch pieces meet a general pencil line.

    Read off the plane model, on the blow-up at the pencil point p without
    building it: a general line through p has class H - E_p there, and a
    component of degree d with multiplicity m_p at p has strict transform
    dH - m_p E_p, which meets it d - m_p times, so the component is
    horizontal when d - m_p > 0.  The total transform of D_g holds E_p as
    often as the multiplicities at p of its components add up, so after
    normalization E_p lies in the XOR of the inertia elements of the
    components with odd multiplicity at p; when that XOR is nonzero, the
    exceptional section E_p, which meets the line once, is one more
    branch point.  A pencil point infinitely near another point cannot be
    blown up first, and is rejected as by ``pull_back``.
    """
    _require_plane_normalized(cover)
    return _g_prime(cover.r, _pencil_profiles(to_record(cover), pencil_point))


def _pencil_profiles(record: ModelRecord, p: str):
    """g -> (degree, multiplicity at p, curve ids) for each nonzero D_g of
    the record of a plane, normalized model, in element order.  Checks, in
    order, that p is not infinitely near another point and that no curve,
    in element order and then id order, has negative fiber degree."""
    point = record.marked.get(p)
    if point is not None and point.parent is not None:
        raise PreconditionError(f"point {p!r} is infinitely near unblown point {point.parent!r}")
    profiles = {}
    for g, cids in _elements(record).items():
        degree = mult = 0
        for cid in cids:
            d, m = record.coeffs[cid][0], record.mult_at(cid, p)
            if d < m:
                raise MatchError(
                    f"component {cid} has negative fiber degree; bad multiplicities at the pencil point"
                )
            degree += d
            mult += m
        profiles[g] = (degree, mult, cids)
    return profiles


def _g_prime(r: int, profiles) -> GPrimeStructure:
    """``infer_g_prime`` from the pencil profiles: D_g meets a general pencil
    line degree - multiplicity times, and the section E_p lies in D_s, s the
    sum of the g whose D_g has odd multiplicity at p (nowhere when s = 0)."""
    carriers = [g for g, (degree, mult, _) in profiles.items() if degree > mult]
    count = sum(degree - mult for degree, mult, _ in profiles.values())
    section = sum((g for g, (_, mult, _) in profiles.items() if mult % 2), group.zero(r))
    if not section.is_zero:
        carriers.append(section)
        count += 1
    subgroup = group.span(carriers, r)
    s = group.subgroup_dimension(subgroup)
    expected = _EXPECTED_BRANCH_POINTS.get((r, s))
    if expected is None:
        raise MatchError(f"not an invariant-conic-bundle configuration: r={r} with G' of rank {s}")
    if count != expected:
        raise MatchError(
            f"not an invariant-conic-bundle configuration: {count} branch points "
            f"on a general pencil line, expected {expected} for r={r}, s={s}"
        )
    return GPrimeStructure(dimension=s, subgroup=tuple(sorted(subgroup)))


def _elements(record: ModelRecord) -> dict[GroupElement, list[str]]:
    """g -> the ids of the curves of D_g, for each nonzero D_g of a
    normalized record, in element order and then id order."""
    elements: dict[int, list[str]] = {}
    for cid in sorted(record.carrier):
        elements.setdefault(record.carrier[cid], []).append(cid)
    return {GroupElement._of(record.r, g): elements[g] for g in sorted(elements)}


# -- shape helpers -----------------------------------------------------------


def _is_pencil_lines(profile, n: int) -> bool:
    """The D_g of ``profile`` is n lines through the pencil point."""
    degree, mult, cids = profile
    return len(cids) == degree == mult == n


def _odd_curve_form(record: ModelRecord, g: GroupElement, degree: int, mult: int, cids, p: str):
    """Validate the odd-degree horizontal curve of the G'=Z/2 families, of
    multiplicity d-2 or d-1 at the pencil point."""
    if mult == degree - 2:
        if len(cids) != 1 or not record.kept[cids[0]][0]:
            raise MatchError(f"D_{g} with multiplicity d-2 must be one irreducible curve")
        return "deep"
    # the curves other than pencil lines (degree 1, multiplicity 1 at p)
    heavy = [cid for cid in cids if (record.coeffs[cid][0], record.mult_at(cid, p)) != (1, 1)]
    if len(heavy) != 1 or record.mult_at(heavy[0], p) != record.coeffs[heavy[0]][0] - 1:
        raise MatchError(
            f"D_{g} with multiplicity d-1 must be one curve with an (e-1)-fold "
            f"point at the pencil point plus pencil lines"
        )
    return "reducible"


def _common_point(record: ModelRecord, cids, exclude: str) -> str | None:
    """The first marked point, in name order, other than ``exclude`` lying on
    all given curves."""
    common = set.intersection(*({name for name, _ in record.mults[cid]} for cid in cids))
    return min(common - {exclude}, default=None)


# -- the invariant conic bundle matcher ---------------------------------------


#: G' = Z/2: r -> (proposition, deep-curve symbol, reducible-curve symbol)
_ODD_CURVE_FAMILIES = {2: ("4.4", "C.2,21", "0.22"), 3: ("4.8", "C.2,22", "P1.222&P1.2221")}
#: G' = (Z/2)^2: r -> (proposition, three-curves symbol, concurrent-lines symbol)
_TRIPLE_FAMILIES = {2: ("4.6", "C.22", None), 3: ("4.10", "C.221", "P1s.222"),
                    4: ("4.12", "C.22,22", "P1.2222")}


def _require_pencil_lines(profiles, gs) -> None:
    for g in gs:
        if not _is_pencil_lines(profiles[g], 1):
            raise MatchError(f"D_{g} must be a single line of the pencil")


def _four_line_model(profiles, nonzero) -> CaseLabel:
    """The four-line model produced by the P1s.222 reduction."""
    if len(nonzero) == 4 and all(
        profiles[g][0] == 1 and len(profiles[g][2]) == 1 for g in nonzero
    ):
        # two pencil lines (multiplicity 1 at p) and two lines off p
        if sum(profiles[g][1] for g in nonzero) == 2:
            return CaseLabel("4.10", "P1s.222", (), ("reduced-four-line-model",))
    raise MatchError("branch data do not fit the rank-3 G'=(Z/2)^2 shapes")


def match_conic_bundle(cover: CoverModel, pencil_point: str) -> CaseLabel:
    """Match against the invariant-conic-bundle families."""
    record = _matched_record(cover)
    profiles = _pencil_profiles(record, pencil_point)
    structure = _g_prime(record.r, profiles)
    r, s = record.r, structure.dimension
    nonzero = list(profiles)
    p = pencil_point

    # _EXPECTED_BRANCH_POINTS admits s = 0 at r = 2, s = 1 at r = 2, 3 and s = 2 at r = 2, 3, 4
    if s == 0:
        if len(nonzero) != 3:
            raise MatchError("all three branch divisors must be nonzero")
        _require_pencil_lines(profiles, nonzero)
        return CaseLabel("4.2", "P1.221&P1.22.1")

    if s == 1:
        # r pencil lines whose elements sum to w, and one odd curve carrying w
        prop, deep, reducible = _ODD_CURVE_FAMILIES[r]
        w = next(g for g in structure.subgroup if not g.is_zero)
        verticals = [g for g in nonzero if g != w]
        if len(verticals) != r:
            count = ("two", "three")[r - 2]
            raise MatchError(f"exactly {count} branch divisors must be pencil lines")
        _require_pencil_lines(profiles, verticals)
        if sum(verticals, group.zero(r)) != w:
            raise MatchError("the pencil-line inertia elements must sum to the G'-carrier")
        degree, mult, cids = profiles[w]
        params = (("d", degree),)
        if _odd_curve_form(record, w, degree, mult, cids, p) == "deep":
            return CaseLabel(prop, deep, params)
        if degree == 1:
            return CaseLabel(prop, reducible, params)
        recipe = partial(_reduce_odd_curve, record, p, w)
        return CaseLabel(prop, reducible, params, ("needs-reduction",), reduce=recipe)

    # s == 2: three curves on a rank-2 subgroup, the other elements pencil lines
    if r == 2:
        if len(nonzero) != 3:
            raise MatchError("all three branch divisors must be nonzero")
        verticals = ()
    elif r == 3:
        verticals = [g for g in nonzero if _is_pencil_lines(profiles[g], 2)]
        if len(verticals) != 1 or len(nonzero) != 4:
            return _four_line_model(profiles, nonzero)
    else:
        if len(nonzero) != 6:
            raise MatchError("need three pencil lines and three curves")
        singles = [g for g in nonzero if _is_pencil_lines(profiles[g], 1)]
        trios = [t for t in itertools.combinations(singles, 3) if sum(t, group.zero(r)).is_zero]
        if not trios:
            raise MatchError("the pencil-line inertia elements must sum to zero")
        verticals = trios[-1]
    horizontals = [g for g in nonzero if g not in verticals]
    if not sum(horizontals, group.zero(r)).is_zero:
        raise MatchError("the three curve inertia elements must span a rank-2 subgroup")
    prop, curves, concurrent = _TRIPLE_FAMILIES[r]
    # each curve has a (d-1)-fold point at p, or, for at most one, a d-fold point
    degrees = tuple(sorted((profiles[g][0] for g in horizontals), reverse=True))
    bumped = any(profiles[g][0] == profiles[g][1] for g in horizontals)
    flags = ("b1",) if bumped else ()
    params = (("degrees", degrees),)
    if max(degrees) > 1:
        return CaseLabel(prop, curves, params, flags)
    lines = [profiles[g][2][0] for g in horizontals]
    q = None if bumped else _common_point(record, lines, exclude=p)
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
        h_line = min(lines)
        k_line = min(profiles[verticals[0]][2])
        recipe = partial(_aux_move, record, {h_line: 1, k_line: 1}, p, q, None)
    return CaseLabel(prop, concurrent, params + (("common_point", q),), reduce=recipe)


# -- the Del Pezzo matcher -----------------------------------------------------


def _marked_incidences(record: ModelRecord) -> dict[str, list[tuple[str, int]]]:
    """Marked points on two or more curves, in name order, with those
    curves' (cid, m)."""
    through = curves_through(record.mults.items())
    return {p: at for p, at in sorted(through.items()) if len(at) >= 2}


def _tacnode(record: ModelRecord, quartic: str, conic: str):
    """The last (x, y), in name order, with y infinitely near x and the quartic
    of multiplicity 2 and the conic of 1 at both; None when there is none."""
    tangent = {x for x, m in record.mults[quartic] if m == 2}
    tangent &= {x for x, m in record.mults[conic] if m == 1}
    children = children_by_parent(record.marked)
    pairs = [(x, y) for x in sorted(tangent) for y in children.get(x, ()) if y in tangent]
    return pairs[-1] if pairs else None


def _tangency(record: ModelRecord, line: str, cubic: str) -> str | None:
    """The first marked point on the line and the cubic, in name order, or None;
    MatchError unless a point infinitely near it lies on both too."""
    shared = {t for t, _ in record.mults[line]} & {t for t, _ in record.mults[cubic]}
    if not shared:
        return None
    t = min(shared)
    if not shared.intersection(children_by_parent(record.marked).get(t, ())):
        raise MatchError("cubic meets a line at a marked point but not tangentially")
    return t


def match_del_pezzo(cover: CoverModel) -> CaseLabel:
    """Match against the Del Pezzo families (no invariant pencil marked)."""
    record = _matched_record(cover)
    profiles = _elements(record)
    nonzero = list(profiles)
    degree_of = {g: sum(record.coeffs[cid][0] for cid in cids) for g, cids in profiles.items()}

    if record.r == 2 and len(nonzero) == 2:
        by_degree = sorted(nonzero, key=degree_of.get)
        if [degree_of[g] for g in by_degree] != [2, 4]:
            raise MatchError("rank-2 two-divisor shape needs a conic and a quartic")
        conic = profiles[by_degree[0]][0]
        quartic = profiles[by_degree[1]][0]
        if len(profiles[by_degree[0]]) != 1 or len(profiles[by_degree[1]]) != 1:
            raise MatchError("conic and quartic must be single components")
        if not (record.kept[conic][0] and record.kept[quartic][0]):
            raise MatchError("conic and quartic must be irreducible")
        tacnode = _tacnode(record, quartic, conic)
        if tacnode is None:
            raise MatchError(
                "need a tacnode of the quartic with the conic through it along the tacnodal tangent"
            )
        x, y = tacnode
        if set(_marked_incidences(record)) - {x, y}:
            raise MatchError("unexpected marked incidences for the conic-plus-quartic shape")
        # one move at the tacnode, its tangent direction and a common point
        recipe = partial(_aux_move, record, {quartic: 1, conic: 1}, x, None, y)
        return CaseLabel("5.1", "2.G2", (("tacnode", x),), reduce=recipe)

    if record.r == 2 and len(nonzero) == 3:
        degs = sorted(degree_of[g] for g in nonzero)
        if degs != [1, 1, 3]:
            raise MatchError("rank-2 three-divisor shape needs two lines and a cubic")
        cubic_g = next(g for g in nonzero if degree_of[g] == 3)
        if len(profiles[cubic_g]) != 1:
            raise MatchError("the cubic must be a single component")
        cubic = profiles[cubic_g][0]
        if not record.kept[cubic][0] or any(m >= 2 for _, m in record.mults[cubic]):
            raise MatchError("the cubic must be smooth and irreducible")
        lines = [profiles[g][0] for g in nonzero if g != cubic_g]
        for line in lines:
            t = _tangency(record, line, cubic)
            if t is not None:
                return CaseLabel("5.1", "2.G2", (("tangency", t),), ("reduced-cubic-model",))
        if _marked_incidences(record):
            raise MatchError("unexpected marked incidences for the two-lines-plus-cubic shape")
        return CaseLabel("5.3", "1.B2.1")

    if record.r == 3:
        line_gs = [g for g in nonzero if degree_of[g] == 1 and len(profiles[g]) == 1]
        conic_gs = [g for g in nonzero if degree_of[g] == 2 and len(profiles[g]) == 1]
        pair_gs = [
            g
            for g in nonzero
            if degree_of[g] == 2
            and len(profiles[g]) == 2
            and all(record.coeffs[cid][0] == 1 for cid in profiles[g])
        ]
        if len(line_gs) == 3 and len(conic_gs) == 1 and len(nonzero) == 4:
            conic = profiles[conic_gs[0]][0]
            if not record.kept[conic][0]:
                raise MatchError("the conic must be irreducible")
            incidences = _marked_incidences(record)
            triples = []
            for name, at in incidences.items():
                if len(at) >= 3:
                    ids = {cid for cid, _ in at}
                    if conic not in ids or len(at) != 3:
                        raise MatchError(f"unexpected triple point at {name}")
                    triples.append((name, ids - {conic}))
            if not triples:
                if incidences:
                    raise MatchError("unexpected marked incidences for the conic-plus-lines shape")
                return CaseLabel("5.7", "2.G22")
            if len(triples) == 2:
                (xi, at_xi), (eta, at_eta) = triples
                if len(at_xi & at_eta) == 1 and at_xi != at_eta:
                    # one move at both triple points and a point joining the
                    # conic to the line through eta only
                    (only_eta,) = at_eta - at_xi
                    recipe = partial(_aux_move, record, {conic: 1, only_eta: 1}, xi, eta, None)
                    return CaseLabel("5.5", "4.222", (("triple_points", (xi, eta)),), reduce=recipe)
            raise MatchError(
                "the conic must pass through exactly two line intersections on one common line"
            )
        if len(line_gs) == 3 and len(pair_gs) == 1 and len(nonzero) == 4:
            # five-line model from the reduction of the three-lines-plus-conic case
            k = pair_gs[0]
            for name, at in _marked_incidences(record).items():
                if len(at) > 3:
                    raise MatchError(f"too many lines through {name}")
                if len(at) == 3:
                    ks = [cid for cid, _ in at if record.carrier[cid] == k.mask]
                    if len(ks) != 1:
                        raise MatchError(f"triple point at {name} must mix both subgroup parts")
            return CaseLabel("5.5", "4.222", (), ("reduced-five-line-model",))
        raise MatchError("rank-3 branch data do not fit a Del Pezzo shape")

    if record.r == 4:
        if len(nonzero) != 5 or any(
            degree_of[g] != 1 or len(profiles[g]) != 1 for g in nonzero
        ):
            raise MatchError("rank-4 Del Pezzo shape needs five single lines")
        if _marked_incidences(record):
            raise MatchError("the five lines must be in general position")
        return CaseLabel("5.9", "4.2222")

    raise MatchError(f"no Del Pezzo case matches r={record.r} branch data")


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


def _purge_idle_marks(record: ModelRecord, curves_at: Mapping[str, int]) -> set[str]:
    """The marked points of ``record`` that go idle when ``curves_at[name]``
    curves pass through each: the names to drop.

    A marked point is idle when it is not the pencil point, at most one
    curve passes through it, and every point infinitely near it is idle.
    Dropping a point changes no other point's incidences, so the idle points
    are found from the childless ones up to their parents.
    """
    marked = record.marked
    children = children_by_parent(marked)

    def idle(name: str) -> bool:
        return (
            name != record.pencil
            and curves_at.get(name, 0) <= 1
            and all(child in gone for child in children.get(name, ()))
        )

    gone: set[str] = set()
    ready = [name for name in marked if idle(name)]
    while ready:
        name = ready.pop()
        gone.add(name)
        parent = marked[name].parent
        if parent in marked and idle(parent):
            ready.append(parent)
    return gone


def quadratic_move(
    cover: CoverModel, p: str, q: str, r: str
) -> tuple[CoverModel, MoveRecord]:
    """Apply the quadratic transformation based at three marked points.

    The move runs on the model's record (``_move``), and the moved model,
    normalized since each survivor keeps its carrier, is built once.
    """
    moved, record = _move(to_record(cover), p, q, r)
    return build_model(moved), record


def _move(
    record: ModelRecord, p: str, q: str, r: str
) -> tuple[ModelRecord, MoveRecord]:
    """The quadratic move of ``quadratic_move``, from a record to a record.

    Blow up the three points (``normalize.blow_up``: every curve in its
    carrier), reflect each curve's coefficients in closed form
    (``lattice.reflect_support``) and read the three exceptional slots as
    the multiplicities at the new base triangle.  Curves reflected to
    degree 0 are contracted (or stay exceptional) and leave the plane model;
    the next pull-back puts the new triangle's exceptionals back in their
    carriers, so no information is lost.  Marks left idle are dropped on the
    reflected incidences.
    """
    if record.centers:
        raise PreconditionError("quadratic moves operate on plane configurations")
    based = (p, q, r)
    if len(set(based)) != 3:
        raise GeometryError("a quadratic move needs three distinct base points")
    children = children_by_parent(record.marked)
    parent = {}
    for name in based:
        mp = record.marked.get(name)
        if mp is None:
            raise DanglingReferenceError(f"no marked point named {name!r}")
        parent[name] = mp.parent
        if mp.parent is not None and mp.parent not in based:
            raise GeometryError(
                f"base point {name!r} is infinitely near {mp.parent!r}, which is not based"
            )
        strays = [c for c in children.get(name, ()) if c not in based]
        if strays:
            raise GeometryError(
                f"base point {name!r} carries infinitely near points {strays} "
                f"that the move would orphan"
            )
    # parents first: order by depth, the number of based ancestors (at most two)
    depth = {n: (parent[n] is not None) + (parent.get(parent[n]) is not None) for n in based}
    order = sorted(based, key=lambda n: (depth[n], n))
    up = blow_up(record, *order)
    slots = tuple(1 + order.index(name) for name in based)  # the centers, in blow-up order
    coeffs, mults, dropped, emitted = {}, {}, [], []
    for cid in sorted(up.coeffs):
        reflected = lattice.reflect_support(up.coeffs[cid], slots)
        if not reflected.get(0):
            dropped.append(cid)
            continue
        at_base = [(name, -reflected.get(slot, 0)) for name, slot in zip(based, slots)]
        if any(m < 0 for _, m in at_base):
            raise GeometryError(
                f"move produced a negative multiplicity on {cid}; invalid base triple"
            )
        coeffs[cid] = {0: reflected[0]}
        mults[cid] = up.mults[cid] + [(n, m) for n, m in at_base if m]
        if up.kept[cid][1] in based:
            emitted.append(cid)

    # the moved model keeps every mark of the record, the based ones too, but the idle
    gone = _purge_idle_marks(record, Counter(n for at in mults.values() for n, _ in at))
    moved = ModelRecord(
        record.r,
        [],
        {name: m for name, m in record.marked.items() if name not in gone},
        record.pencil,
        {cid: up.carrier[cid] for cid in coeffs},
        coeffs,
        {cid: (up.kept[cid][0], None) for cid in coeffs},
        {cid: [(n, m) for n, m in at if n not in gone] for cid, at in mults.items()},
    )
    return moved, MoveRecord(based, tuple(dropped), tuple(emitted))


# -- reduction recipes ----------------------------------------------------------
# A recipe takes the record its match read, marks its auxiliary points, makes
# its moves on records and returns the reduced record.


def _aux_move(record: ModelRecord, mults: dict[str, int], *based: str | None):
    """Mark a fresh point on the curves of ``mults``, then make the quadratic
    move at ``based``, where ``None`` stands for the fresh point."""
    (aux,) = fresh_names(record, "aux")
    work = mark_points(record, [(aux, None, mults)])
    work, move = _move(work, *(aux if n is None else n for n in based))
    return work, (move,)


def _reduce_odd_curve(record: ModelRecord, p: str, w: GroupElement):
    """Degree-drop then line-pair elimination on the odd horizontal curve."""
    moves = []
    work = record

    def curves_of_w():
        return sorted(cid for cid, g in work.carrier.items() if g == w.mask)

    while True:
        heavy = [
            cid
            for cid in curves_of_w()
            if (d := work.coeffs[cid].get(0, 0)) >= 2 and work.mult_at(cid, p) == d - 1
        ]
        if not heavy:
            break
        target = heavy[0]
        qn, rn = fresh_names(work, "aux", 2)
        work = mark_points(work, [(qn, None, {target: 1}), (rn, p, {target: 1})])
        work, record = _move(work, p, qn, rn)
        moves.append(record)
    while True:
        comps = curves_of_w()
        through = [cid for cid in comps if work.mult_at(cid, p) == 1]
        off = [cid for cid in comps if work.mult_at(cid, p) == 0]
        if not through:
            break
        if len(through) % 2:
            raise ReductionError(
                f"expected an even number of residual pencil lines in D_{w}, found {len(through)}"
            )
        if len(off) != 1 or work.coeffs[off[0]].get(0, 0) != 1:
            raise ReductionError("expected exactly one line off the pencil point")
        r_a, r_b = through[0], through[1]
        qn, rn = fresh_names(work, "aux", 2)
        work = mark_points(work, [(qn, None, {off[0]: 1, r_b: 1}), (rn, p, {r_a: 1})])
        work, record = _move(work, p, qn, rn)
        moves.append(record)
    return work, tuple(moves)


def cremona_reduce(cover: CoverModel):
    """Reduce a cover to its family's normal form by the family's recipe.

    Normalize and ``classify`` the cover once, then run the recipe the match
    attached to its label and build the reduced model from its record.
    Families already in normal form reduce to themselves with an empty
    trail.  Returns the reduced model and the move records.
    """
    work = normalize(cover)
    label = classify(work)
    if label.reduce is None:
        return work, ()
    reduced, moves = label.reduce()
    return build_model(reduced), moves
