"""Normalization of branch data, blow-up pullback, and the resolution loop.

Normalization rewrites branch data until every component is reduced and
assigned to a single group element:

* step 1 strips even multiples of a component from each D_g (adjusting the
  halved building classes implicitly, since those are always re-derived);
* step 2 moves a component lying in both D_g and D_h into D_{g+h}.

Iterating both to a fixpoint leaves each component either absent or assigned
once: its final carrier is the XOR of its original carriers counted with
multiplicity mod 2, which is also why the result is order-independent.

Singularity detection is combinatorial on declared incidence data: a point
is bad when a component is singular there, three or more branch components
meet, two meet tangentially (shared infinitely near point), or two carry the
same inertia element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from . import lattice
from .cover import CoverModel, CurveComponent, add_marked_point
from .errors import (
    DomainError,
    InconsistencyError,
    NonTerminationError,
    PreconditionError,
)
from .group import GroupElement
from .lattice import Center, DivisorClass


@dataclass(frozen=True)
class IncidenceRecord:
    """Declared local data at one marked point."""

    point: str
    entries: tuple[tuple[str, int], ...]
    tangencies: tuple[tuple[str, tuple[str, ...]], ...]


def incidence_at(cover: CoverModel, point: str) -> IncidenceRecord:
    entries = tuple((c.cid, m) for c, m in cover.components_at(point))
    tangencies = []
    for child in cover.children_of_point(point):
        sharing = tuple(c.cid for c, _ in cover.components_at(child))
        if len(sharing) >= 2:
            tangencies.append((child, sharing))
    return IncidenceRecord(point, entries, tuple(tangencies))


# -- normalization steps ----------------------------------------------------------


def step1_reduce(cover: CoverModel) -> CoverModel:
    """Drop even parts: a component with multiplicity k in D_g keeps k mod 2."""
    new_branch = []
    for g, entries in cover.branch:
        kept = tuple((cid, k % 2) for cid, k in entries if k % 2)
        if kept:
            new_branch.append((g, kept))
    return replace(cover, branch=tuple(new_branch))


def step2_disjoin(cover: CoverModel, rng: random.Random | None = None) -> CoverModel:
    """While some component lies in D_g and D_h, move it into D_{g+h}.

    The default processing order is deterministic (component id, then
    lexicographic g); passing ``rng`` shuffles it, which must not change the
    fixpoint reached by ``normalize``.
    """
    branch = {g: dict(entries) for g, entries in cover.branch}
    while True:
        candidates = []
        for cid in sorted({c for bucket in branch.values() for c in bucket}):
            carriers = sorted(g for g, bucket in branch.items() if bucket.get(cid, 0) >= 1)
            if len(carriers) >= 2:
                candidates.append((cid, carriers))
        if not candidates:
            break
        if rng is not None:
            rng.shuffle(candidates)
        cid, carriers = candidates[0]
        if rng is not None:
            carriers = list(carriers)
            rng.shuffle(carriers)
        g, h = carriers[0], carriers[1]
        k = g + h
        for source in (g, h):
            branch[source][cid] -= 1
            if branch[source][cid] == 0:
                del branch[source][cid]
        branch.setdefault(k, {})
        branch[k][cid] = branch[k].get(cid, 0) + 1
    new_branch = tuple(
        (g, tuple(sorted(bucket.items()))) for g, bucket in branch.items() if bucket
    )
    return replace(cover, branch=new_branch)


def normalize(cover: CoverModel, rng: random.Random | None = None) -> CoverModel:
    """Iterate step 1 and step 2 to a fixpoint; drop unassigned components."""
    current = cover
    while True:
        after = step2_disjoin(step1_reduce(current), rng=rng)
        if after.branch == current.branch:
            current = after
            break
        current = after
    assigned = {cid for _, entries in current.branch for cid, _ in entries}
    comps = tuple(c for c in current.components if c.cid in assigned)
    return replace(current, components=comps)


def is_normalized(cover: CoverModel) -> bool:
    """True when ``normalize`` would return the cover unchanged: every branch
    entry has multiplicity 1 and every component lies in exactly one D_g."""
    entries = [entry for _, bucket in cover.branch for entry in bucket]
    cids = {cid for cid, _ in entries}
    return all(k == 1 for _, k in entries) and len(entries) == len(cids) == len(cover.components)


# -- pullback ----------------------------------------------------------------


def pull_back(cover: CoverModel, point: str) -> CoverModel:
    """Pull the cover back along the blow-up at a marked (or fresh) point.

    Each D_g gains mult(D_g at the point) copies of the new exceptional
    component and component classes become strict transforms, so the branch
    divisor classes are total transforms.  The new center is the last
    coordinate, so a strict transform is the old coefficient tuple followed
    by minus the multiplicity at the point.  The result is NOT normalized.
    """
    known = {m.name for m in cover.marked}
    if point in known:
        mp = cover.marked_point(point)
        if not cover.point_is_ripe(point):
            raise PreconditionError(
                f"point {point!r} is infinitely near unblown point {mp.parent!r}"
            )
        parent = mp.parent
    elif cover.surface.has_center(point):
        raise DomainError(f"point {point!r} is already a center")
    else:
        parent = None

    surface = cover.surface.blow_up(Center(point, parent))
    taken = {c.cid for c in cover.components}
    eid = f"E_{point}"
    serial = 1
    while eid in taken:
        serial += 1
        eid = f"E_{point}{serial}"

    new_comps = []
    comp_mult: dict[str, int] = {}
    for comp in cover.components:
        m = comp_mult[comp.cid] = comp.mult_at(point)
        cls = DivisorClass(surface, comp.cls.coeffs + (-m,))
        mults = tuple((n, k) for n, k in comp.mults if n != point)
        new_comps.append(replace(comp, cls=cls, mults=mults))
    mult_in_g: dict[GroupElement, int] = {}
    for g, entries in cover.branch:
        total = sum(k * comp_mult[cid] for cid, k in entries)
        if total:
            mult_in_g[g] = total

    new_branch = list(cover.branch)
    if mult_in_g:
        children = tuple(m.name for m in cover.marked if m.parent == point)
        exc = CurveComponent(
            eid,
            lattice.exceptional(surface, point),
            irreducible=True,
            mults=tuple((child, 1) for child in children),
            exceptional_of=point,
        )
        new_comps.append(exc)
        new_branch.extend((g, ((eid, total),)) for g, total in mult_in_g.items())

    marked = tuple(m for m in cover.marked if m.name != point)
    return CoverModel(cover.r, surface, tuple(new_comps), tuple(new_branch), marked, cover.pencil)


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


def residual_intersections(cover: CoverModel, cid1: str, cid2: str) -> int:
    """Crossings of two components away from every declared point."""
    c1, c2 = cover.component(cid1), cover.component(cid2)
    total = lattice.intersect(c1.cls, c2.cls)
    for m in cover.marked:
        total -= c1.mult_at(m.name) * c2.mult_at(m.name)
    if total < 0:
        raise InconsistencyError(
            f"declared multiplicities of {cid1} and {cid2} exceed their intersection number"
        )
    return total


def singular_residual_pairs(cover: CoverModel) -> list[tuple[str, str]]:
    """Pairs of same-inertia components crossing at undeclared points."""
    pairs = []
    comps = list(cover.components)
    for i, a in enumerate(comps):
        for b in comps[i + 1 :]:
            if cover.inertia_of(a.cid) != cover.inertia_of(b.cid):
                residual_intersections(cover, a.cid, b.cid)  # validates declarations
                continue
            if residual_intersections(cover, a.cid, b.cid) >= 1:
                pairs.append((a.cid, b.cid))
    return pairs


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
    auto = 0
    while True:
        singulars = [
            m.name
            for m in current.marked
            if current.point_is_ripe(m.name) and not is_smooth_over(current, m.name)
        ]
        if not singulars:
            pairs = singular_residual_pairs(current)
            if pairs:
                for cid1, cid2 in pairs:
                    auto += 1
                    name = f"sing{auto}"
                    current = add_marked_point(current, name, mults={cid1: 1, cid2: 1})
                    singulars.append(name)
            else:
                break
        if rounds >= max_rounds:
            raise NonTerminationError(
                f"resolution did not finish within {max_rounds} rounds; "
                f"still singular at {', '.join(sorted(singulars))}",
                trail=tuple(trail),
            )
        rounds += 1
        before = current
        for name in sorted(singulars):
            current = pull_back(current, name)
        current = normalize(current)
        trail.append(RoundRecord(rounds, tuple(sorted(singulars)), _branch_diff(before, current)))
    return ResolveResult(current, rounds, tuple(trail))
