"""Normalization of branch data, blow-up pullback, and the resolution loop.

Normalization rewrites branch data until every component is reduced and
assigned to a single group element.  The standard moves are:

* strip two copies of a component from one D_g (the halved building classes
  follow implicitly, since those are always re-derived);
* move one copy of a component lying in both D_g and D_h into D_{g+h}.

Both keep, for each component, the XOR of the g whose D_g hold it an odd
number of times: the first removes an even count, the second trades g and h
for g+h.  Each move removes a copy, so every sequence of moves stops, and it
stops exactly when each component lies in at most one D_g, once.  The XOR is
then that g, or 0 when the component lies nowhere.  So every order of moves
ends in the same branch data, and ``normalize`` writes them down in one pass.

Singularity detection is combinatorial on declared incidence data: a point
is bad when a component is singular there, three or more branch components
meet, two meet tangentially (shared infinitely near point), or two carry the
same inertia element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .cover import CoverModel, CurveComponent, add_marked_points, fresh_names
from .errors import (
    DomainError,
    InconsistencyError,
    NonTerminationError,
    PreconditionError,
)
from .group import GroupElement
from .lattice import BlownPlane, Center, DivisorClass


# -- normalization --------------------------------------------------------------


def normalize(cover: CoverModel) -> CoverModel:
    """Put each component once in the XOR of the D_g that hold it an odd
    number of times; drop it when that XOR is 0 or no D_g holds it.

    A model that is normalized already is returned as it is, not rebuilt."""
    if is_normalized(cover):
        return cover
    carrier: dict[str, GroupElement] = {}
    for g, entries in cover.branch:
        for cid, k in entries:
            if k % 2:
                carrier[cid] = carrier[cid] + g if cid in carrier else g
    kept = {cid: g for cid, g in carrier.items() if not g.is_zero}
    branch = tuple((g, ((cid, 1),)) for cid, g in kept.items())
    comps = tuple(c for c in cover.components if c.cid in kept)
    return replace(cover, branch=branch, components=comps)


def is_normalized(cover: CoverModel) -> bool:
    """True when ``normalize`` would return the cover unchanged: every branch
    entry has multiplicity 1 and every component lies in exactly one D_g."""
    entries = [entry for _, bucket in cover.branch for entry in bucket]
    cids = {cid for cid, _ in entries}
    return all(k == 1 for _, k in entries) and len(entries) == len(cids) == len(cover.components)


# -- pullback ----------------------------------------------------------------


def pull_back(cover: CoverModel, *points: str) -> CoverModel:
    """Pull the cover back along the blow-ups at marked (or fresh) points.
    A marked point's ``Center`` becomes a center of the new surface as it is.

    The points are blown up in the order given, so a child point may follow
    its parent in the same call (the parent's exceptional curve then passes
    through it), and the result equals pulling back one point at a time:
    ``pull_back(c, a, b) == pull_back(pull_back(c, a), b)``.

    At each point, every D_g gains mult(D_g at the point) copies of the new
    exceptional component and component classes become strict transforms,
    so the branch divisor classes are total transforms.  Each new center is
    appended as the last coordinate, so a strict transform keeps the old
    coefficients and gains minus the multiplicity at the point in the new
    slot.  The surface, the components and the model are built once, after
    the last point, so the cost follows the number of incidences and nonzero
    coefficients, not the Picard rank.  The result is NOT normalized.
    """
    if not points:
        raise DomainError("pull_back needs at least one point")
    marked = dict(cover._by_point)
    centers = list(cover.surface.centers)
    center_names = set(cover.surface.names)
    # work per incidence, not per (component, point): each component keeps its
    # nonzero coefficients, gaining (slot, -m) per point it passes through, the
    # D_g it lies in and its unchanged constructor arguments; each point maps
    # to the components through it, copied from the model's incidence index
    coeffs = {c.cid: dict(c.cls.support) for c in cover.components}
    carriers: dict[str, list[tuple[GroupElement, int]]] = {cid: [] for cid in coeffs}
    for g, entries in cover.branch:
        for cid, k in entries:
            carriers[cid].append((g, k))
    kept = {c.cid: (c.irreducible, c.exceptional_of) for c in cover.components}
    through = {name: {c.cid: m for c, m in at} for name, at in cover._through.items()}
    new_branch = list(cover.branch)
    for point in points:
        if point in marked:
            center = marked.pop(point)
            if center.parent is not None and center.parent not in center_names:
                raise PreconditionError(
                    f"point {point!r} is infinitely near unblown point {center.parent!r}"
                )
        elif point in center_names:
            raise DomainError(f"point {point!r} is already a center")
        else:
            center = Center(point)
        centers.append(center)
        center_names.add(point)
        slot = len(centers)

        mult_in_g: dict[GroupElement, int] = {}
        for cid, m in through.pop(point, {}).items():
            coeffs[cid][slot] = -m
            for g, k in carriers[cid]:
                mult_in_g[g] = mult_in_g.get(g, 0) + k * m
        if not mult_in_g:
            continue
        eid = f"E_{point}"
        serial = 1
        while eid in coeffs:
            serial += 1
            eid = f"E_{point}{serial}"
        coeffs[eid] = {slot: 1}
        carriers[eid] = list(mult_in_g.items())
        kept[eid] = (True, point)
        for child in cover.children_of_point(point):
            through.setdefault(child, {})[eid] = 1
        new_branch.extend((g, ((eid, total),)) for g, total in mult_in_g.items())

    surface = BlownPlane(tuple(centers))
    mults: dict[str, list[tuple[str, int]]] = {cid: [] for cid in coeffs}
    for name, at in through.items():
        for cid, m in at.items():
            mults[cid].append((name, m))
    comps = []
    for cid, coeff in coeffs.items():
        comps.append(
            CurveComponent(
                cid,
                DivisorClass.from_support(surface, coeff),
                irreducible=kept[cid][0],
                mults=tuple(mults[cid]),
                exceptional_of=kept[cid][1],
            )
        )
    return CoverModel(
        cover.r, surface, tuple(comps), tuple(new_branch), tuple(marked.values()), cover.pencil
    )


# -- smoothness --------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.smooth


def is_smooth_over(cover: CoverModel, point: str) -> SmoothnessReport:
    """Combinatorial smoothness of the cover over one marked point.

    Smooth iff at most two branch components pass through it, each smooth
    there, meeting transversally, with distinct inertia elements.
    """
    at = cover.components_at(point)
    for comp, m in at:
        if m >= 2:
            return SmoothnessReport(False, f"component {comp.cid} is singular at {point}")
    if len(at) >= 3:
        names = ", ".join(c.cid for c, _ in at)
        return SmoothnessReport(False, f"{len(at)} branch components meet at {point}: {names}")
    if len(at) == 2:
        (c1, _), (c2, _) = at
        for child in cover.children_of_point(point):
            if c1.mult_at(child) >= 1 and c2.mult_at(child) >= 1:
                return SmoothnessReport(
                    False, f"{c1.cid} and {c2.cid} are tangent at {point} (share {child})"
                )
        if cover.inertia_of(c1.cid) == cover.inertia_of(c2.cid):
            return SmoothnessReport(
                False, f"{c1.cid} and {c2.cid} carry the same inertia element at {point}"
            )
    return SmoothnessReport(True)


def singular_residual_pairs(cover: CoverModel) -> list[tuple[str, str]]:
    """Pairs of same-inertia components crossing at undeclared points.

    The residual crossing number of components a and b is

        C_a.C_b - sum of m_a*m_b over the marked points both pass through,
        C_a.C_b = d_a*d_b - sum of a_i*b_i over the exceptional slots both use,

    and a pair is singular when its residual is at least 1 and both carry
    the same inertia element.  A pair that shares no slot and no marked point
    has residual d_a*d_b >= 0, so only pairs sharing something are computed,
    and each raises InconsistencyError when its residual is negative.

    Cost: one pass over each class's nonzero coefficients and the model's
    point -> components index, then constant work per (shared slot or point,
    pair through it) and per same-inertia pair of positive degrees.
    Nothing is proportional to the Picard rank per pair.  Pairs come in the
    order of the sorted component ids; the first over-declared pair in that
    order is the one reported.  On a model that is not normalized, the
    InconsistencyError of ``inertia_of`` for the first component in that
    order that is not uniquely assigned comes first.
    """
    comps = cover.components
    if len(comps) < 2:
        return []
    inertia = [cover.inertia_of(c.cid) for c in comps]
    index = {c.cid: i for i, c in enumerate(comps)}
    # exceptional slot -> [(component index, -coefficient)], and marked point
    # -> [(component index, multiplicity)] from the model's incidence index;
    # both lists run in component order
    through: dict[int, list[tuple[int, int]]] = {}
    for i, c in enumerate(comps):
        for slot, value in c.cls.support.items():
            if slot:
                through.setdefault(slot, []).append((i, -value))
    at_points = ([(index[c.cid], m) for c, m in at] for at in cover._through.values())
    shared: dict[tuple[int, int], int] = {}
    for members in itertools.chain(through.values(), at_points):
        for n, (i, x) in enumerate(members):
            for j, y in members[n + 1 :]:
                shared[i, j] = shared.get((i, j), 0) + x * y
    degree = [c.cls.degree for c in comps]
    pairs = []
    for i, j in sorted(shared):
        residual = degree[i] * degree[j] - shared[i, j]
        if residual < 0:
            raise InconsistencyError(
                f"declared multiplicities of {comps[i].cid} and {comps[j].cid} "
                "exceed their intersection number"
            )
        if residual and inertia[i] == inertia[j]:
            pairs.append((i, j))
    by_inertia: dict[GroupElement, list[int]] = {}
    for i, g in enumerate(inertia):
        if degree[i]:
            by_inertia.setdefault(g, []).append(i)
    for members in by_inertia.values():
        pairs += [
            (i, j)
            for n, i in enumerate(members)
            for j in members[n + 1 :]
            if (i, j) not in shared
        ]
    return [(comps[i].cid, comps[j].cid) for i, j in sorted(pairs)]


def smoothness_report(cover: CoverModel) -> SmoothnessReport:
    """Global verdict over all declared points and undeclared crossings."""
    for m in cover.marked:
        verdict = is_smooth_over(cover, m.name)
        if not verdict:
            return verdict
    pairs = singular_residual_pairs(cover)
    if pairs:
        a, b = pairs[0]
        return SmoothnessReport(False, f"{a} and {b} cross with equal inertia off declared points")
    return SmoothnessReport(True)


def assert_smooth(cover: CoverModel) -> None:
    verdict = smoothness_report(cover)
    if not verdict:
        raise PreconditionError(f"cover is not smooth: {verdict.reason}")


# -- resolution --------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    round: int
    blown: tuple[str, ...]
    diff: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]


@dataclass(frozen=True)
class ResolveResult:
    cover: CoverModel
    rounds: int
    trail: tuple[RoundRecord, ...]


def _branch_sets(cover: CoverModel) -> dict[str, set[str]]:
    return {str(g): {cid for cid, _ in entries} for g, entries in cover.branch}


def _branch_diff(before: CoverModel, after: CoverModel):
    b, a = _branch_sets(before), _branch_sets(after)
    keys = sorted(set(b) | set(a))
    out = []
    for key in keys:
        added = tuple(sorted(a.get(key, set()) - b.get(key, set())))
        removed = tuple(sorted(b.get(key, set()) - a.get(key, set())))
        if added or removed:
            out.append((key, added, removed))
    return tuple(out)


def resolve(cover: CoverModel, max_rounds: int = 6) -> ResolveResult:
    """Blow up singular points, pull back and normalize, until smooth.

    Each round blows up every currently visible singular point (a child
    point only becomes visible once its parent is a center), so a tacnode
    takes two rounds while two separate triple points take one.
    """
    current = normalize(cover)
    rounds = 0
    trail: list[RoundRecord] = []
    while True:
        singulars = [
            m.name
            for m in current.marked
            if current.point_is_ripe(m.name) and not is_smooth_over(current, m.name)
        ]
        if not singulars:
            pairs = singular_residual_pairs(current)
            if not pairs:
                break
            names = fresh_names(current, "sing", len(pairs))
            current = add_marked_points(
                current, [(name, None, {a: 1, b: 1}) for name, (a, b) in zip(names, pairs)]
            )
            singulars = names
        if rounds >= max_rounds:
            raise NonTerminationError(
                f"resolution did not finish within {max_rounds} rounds; "
                f"still singular at {', '.join(sorted(singulars))}",
                trail=tuple(trail),
            )
        rounds += 1
        before = current
        blown = tuple(sorted(singulars))
        current = normalize(pull_back(current, *blown))
        trail.append(RoundRecord(rounds, blown, _branch_diff(before, current)))
    return ResolveResult(current, rounds, tuple(trail))
