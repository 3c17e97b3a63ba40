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

A pull-back comes out normalized: ``blow_up`` puts each strict transform
and each exceptional curve straight into that XOR, its carrier, and keeps
no curve whose carrier is 0.  It takes a ``cover.ModelRecord``, a model as
plain dicts, and returns one, so blow-ups and Cremona moves chain on
records: ``cover.to_record`` reads a model, ``cover.mark_points`` adds
marked points, and ``cover.build_model`` builds a model from a record.
``pull_back`` is one ``blow_up`` between the two.  ``resolve`` chains its
rounds at marked points the same way: it reads the normalized input once,
makes each such round one ``blow_up`` and decides smoothness on the record.
The crossings of two curves of one inertia it counts instead, from one pair
search: they are A1 points of the cover, whose blow-ups change neither chi
nor K^2.  It returns the record before the crossing rounds with the
crossings beside it; the resolved model, with every crossing blown up, is
built only when a caller asks for ``ResolveResult.cover``.

Singularity detection is combinatorial on declared incidence data: a point
is bad when a component is singular there, three or more branch components
meet, two meet tangentially (shared infinitely near point), or two carry the
same inertia element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .cover import (
    CoverModel,
    ModelRecord,
    build_model,
    carriers,
    children_by_parent,
    curves_through,
    fresh_names,
    mark_points,
    names_in_use,
    pair_sums,
    to_record,
)
from .errors import (
    DomainError,
    InconsistencyError,
    NonTerminationError,
    PreconditionError,
)
from .group import GroupElement
from .lattice import Center


# -- normalization --------------------------------------------------------------


def normalize(cover: CoverModel) -> CoverModel:
    """Put each component once in the XOR of the D_g that hold it an odd
    number of times; drop it when that XOR is 0 or no D_g holds it.

    A model that is normalized already is returned as it is, not rebuilt."""
    if is_normalized(cover):
        return cover
    carrier = carriers(cover.branch)
    branch = tuple((GroupElement._of(cover.r, g), ((cid, 1),)) for cid, g in carrier.items() if g)
    comps = [c for c in cover.components if carrier.get(c.cid)]
    return CoverModel(cover.r, cover.surface, comps, branch, cover.marked, cover.pencil)


def is_normalized(cover: CoverModel) -> bool:
    """True when ``normalize`` would return the cover unchanged: every branch
    entry has multiplicity 1 and every component lies in exactly one D_g."""
    ones = [cid for _, bucket in cover.branch for cid, k in bucket if k == 1]
    entries = sum(len(bucket) for _, bucket in cover.branch)
    return entries == len(ones) == len(set(ones)) == len(cover.components)


# -- pullback ----------------------------------------------------------------


def pull_back(cover: CoverModel, *points: str) -> CoverModel:
    """Pull the cover back along the blow-ups at marked (or fresh) points;
    the result is normalized.

    The points are blown up in the order given, so a child point may follow
    its parent in the same call (the parent's exceptional curve then passes
    through it), and the result equals pulling back one point at a time:
    ``pull_back(c, a, b) == pull_back(pull_back(c, a), b)``.  A marked
    point's ``Center`` becomes a center of the new surface as it is.

    ``blow_up`` decides every curve, class and incidence on the model's
    record; then the surface, the components and the model are built once.
    """
    return build_model(blow_up(to_record(cover), *points))


def blow_up(record: ModelRecord, *points: str) -> ModelRecord:
    """The blow-ups of ``pull_back``, same errors, on a record.

    Each curve goes straight into its carrier, the one D_g that normalization
    leaves it in (see ``normalize``): a component's carrier is the XOR of the
    g whose D_g hold it an odd number of times, and the carrier of the
    exceptional curve E_p is the XOR of the carriers of the curves with odd
    multiplicity at p, since the total transform of D_g holds E_p as often
    as the multiplicities at p of its curves add up.  Only the curves with a
    nonzero carrier are kept, and an incidence with E_p is kept only when
    E_p is, so the result is the record of what ``normalize`` makes of the
    total transforms.  Classes become strict transforms: each new center is
    appended as the last coordinate, so a strict transform keeps the old
    coefficients and gains minus the multiplicity at the point in the new
    slot.  The cost follows the number of incidences and nonzero
    coefficients, not the Picard rank.
    """
    if not points:
        raise DomainError("pull_back needs at least one point")
    marked = dict(record.marked)
    centers = list(record.centers)
    center_names = {c.name for c in centers}
    through = curves_through(record.mults.items())
    in_use = names_in_use(record)

    # every curve some D_g holds, with the bit mask of its carrier (0 when the
    # XOR cancels); a curve with carrier 0 is not kept, but its exceptional
    # curves are named and passed on as the total transforms would be, so the
    # names of the curves that are kept do not depend on it
    carrier = dict(record.carrier)
    # work per incidence, not per (curve, point): each curve kept gets its
    # nonzero coefficients, gaining (slot, -m) per point it passes through;
    # each point maps to the curves through it
    coeffs = {cid: dict(record.coeffs[cid]) for cid, g in carrier.items() if g}
    kept = {cid: record.kept[cid] for cid in coeffs}
    children = children_by_parent(marked)
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

        on_branch = False
        section = 0
        for cid, m in through.pop(point, ()):
            g = carrier.get(cid)
            if g is None:
                continue
            on_branch = True
            if g:
                coeffs[cid][slot] = -m
                if m % 2:
                    section ^= g
        if not on_branch:
            continue
        eid = f"E_{point}"  # a name no curve or point has: a document names both alike
        serial = 1
        while eid in in_use:
            serial += 1
            eid = f"E_{point}{serial}"
        in_use.add(eid)
        carrier[eid] = section
        for child in children.get(point, ()):
            through.setdefault(child, []).append((eid, 1))
        if section:
            coeffs[eid] = {slot: 1}
            kept[eid] = (True, point)

    mults: dict[str, list[tuple[str, int]]] = {cid: [] for cid in coeffs}
    for name, at in through.items():
        for cid, m in at:
            if cid in mults:
                mults[cid].append((name, m))
    carrier = {cid: carrier[cid] for cid in coeffs}
    return ModelRecord(record.r, centers, marked, record.pencil, carrier, coeffs, kept, mults)


# -- smoothness --------------------------------------------------------------
# Decided on a normalized record, as ``blow_up`` returns them and as
# ``to_record`` reads a normalized model: every curve is a branch component,
# and its carrier is its inertia element.


def _singularity(
    record: ModelRecord,
    through: Mapping[str, list[tuple[str, int]]],
    children: Mapping[str, list[str]],
    point: str,
) -> str | None:
    """The test of ``singularity_over``, on the indexes its caller built."""
    at = through.get(point, ())
    for cid, m in at:
        if m >= 2:
            return f"component {cid} is singular at {point}"
    if len(at) >= 3:
        names = ", ".join(cid for cid, _ in at)
        return f"{len(at)} branch components meet at {point}: {names}"
    if len(at) == 2:
        (a, _), (b, _) = at
        for child in children.get(point, ()):
            near = [cid for cid, _ in through.get(child, ())]
            if a in near and b in near:
                return f"{a} and {b} are tangent at {point} (share {child})"
        if record.carrier[a] == record.carrier[b]:
            return f"{a} and {b} carry the same inertia element at {point}"
    return None


def singularity_over(record: ModelRecord, point: str) -> str | None:
    """Why the cover is singular over one marked point, or None when smooth.

    Smooth iff at most two branch components pass through it, each smooth
    there, meeting transversally, with distinct inertia elements.
    """
    through, children = curves_through(record.mults.items()), children_by_parent(record.marked)
    return _singularity(record, through, children, point)


def singular_points(record: ModelRecord) -> list[str]:
    """The ripe marked points over which the cover is singular, in name order.

    A point is ripe once its parent, if it has one, is a center: a blow-up
    can take it now.  The test of ``singularity_over`` runs on indexes of the
    incidences and of the infinitely near points built once for all points.
    """
    ripe_parents = {None} | {c.name for c in record.centers}
    through, children = curves_through(record.mults.items()), children_by_parent(record.marked)
    return [
        name
        for name in sorted(record.marked)
        if record.marked[name].parent in ripe_parents
        and _singularity(record, through, children, name) is not None
    ]


def singular_residual_pairs(record: ModelRecord) -> list[tuple[str, str, int]]:
    """The pairs of same-inertia curves crossing at undeclared points, each
    as ``(a, b, residual)``: its residual crossing number

        C_a.C_b - sum of m_a*m_b over the marked points both pass through,
        C_a.C_b = d_a*d_b - sum of a_i*b_i over the exceptional slots both use.

    A pair is singular when its residual is at least 1 and both carry the
    same inertia element.  A pair that shares no slot and no marked point
    has residual d_a*d_b >= 0, so only pairs sharing something are computed,
    and each raises InconsistencyError when its residual is negative.

    Cost: one pass over each curve's nonzero coefficients and incidences,
    then constant work per (shared slot or point, pair through it) and per
    same-inertia pair of positive degrees.  Nothing is proportional to the
    Picard rank per pair.  A pair of curves is keyed by one int, its two
    indexes in id order, so a slot through two curves (every crossing's)
    costs one dict update, and only the pairs returned are sorted.  Pairs
    come in the order of the sorted curve ids; the first over-declared pair
    in that order is the one reported.  A curve with no carrier (the record
    of a model that is not normalized) raises InconsistencyError first,
    for the first such curve in id order.
    """
    cids = sorted(record.coeffs)
    if len(cids) < 2:
        return []
    inertia = [record.carrier.get(cid, 0) for cid in cids]
    if not all(inertia):
        cid = cids[inertia.index(0)]
        raise InconsistencyError(
            f"component {cid!r} is not reduced/uniquely assigned; normalize first"
        )
    # exceptional slot -> [(curve index, -coefficient)], and marked point ->
    # [(curve index, multiplicity)]; slots are ints and points are names, so
    # one map holds both, and every list runs in curve order
    through: dict[int | str, list[tuple[int, int]]] = {}
    for i, cid in enumerate(cids):
        for slot, value in record.coeffs[cid].items():
            if slot:
                through.setdefault(slot, []).append((i, -value))
        for name, m in record.mults[cid]:
            through.setdefault(name, []).append((i, m))
    n = len(cids)
    shared = pair_sums(through.values(), n)
    degree = [record.coeffs[cid].get(0, 0) for cid in cids]
    pairs = []  # (key, residual)
    over = []
    for key, total in shared.items():
        i, j = divmod(key, n)
        residual = degree[i] * degree[j] - total
        if residual < 0:
            over.append(key)
        elif residual and inertia[i] == inertia[j]:
            pairs.append((key, residual))
    if over:
        i, j = divmod(min(over), n)
        raise InconsistencyError(
            f"declared multiplicities of {cids[i]} and {cids[j]} "
            "exceed their intersection number"
        )
    by_inertia: dict[int, list[int]] = {}
    for i, g in enumerate(inertia):
        if degree[i]:
            by_inertia.setdefault(g, []).append(i)
    for members in by_inertia.values():
        for a, i in enumerate(members):
            base = i * n
            for j in members[a + 1 :]:
                if base + j not in shared:
                    pairs.append((base + j, degree[i] * degree[j]))
    return [(cids[key // n], cids[key % n], residual) for key, residual in sorted(pairs)]


# -- resolution --------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    """One round of ``resolve``: the points it blew up, in name order, and
    (g as text, cids added to D_g, cids removed from it) for each g whose
    set of components changed, in element order."""

    round: int
    blown: tuple[str, ...]
    diff: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]


@dataclass(frozen=True)
class ResolveResult:
    """A smooth model, as ``resolve`` proved it, with the rounds it took.

    ``record`` is the record after the rounds at marked points, normalized:
    each curve lies in the D_g of its carrier, once.  ``crossings`` are the
    points of the crossing rounds as ``(name, a, b)``, in center order: the
    resolved surface is the surface of ``record`` blown up at them, and a
    and b are the two curves of one inertia that cross there.
    ``normalized`` is the normalized input.  ``cover`` is built on first
    use: ``mark_points`` marks the crossings on ``record``, one ``blow_up``
    takes them, and ``build_model`` builds the result; with no round taken,
    it is ``normalized`` itself.
    """

    record: ModelRecord
    crossings: tuple[tuple[str, str, str], ...]
    rounds: int
    trail: tuple[RoundRecord, ...]
    normalized: CoverModel = field(compare=False, repr=False)

    @cached_property
    def cover(self) -> CoverModel:
        if not self.rounds:
            return self.normalized
        record = self.record
        if self.crossings:
            marks = [(name, None, {a: 1, b: 1}) for name, a, b in self.crossings]
            record = blow_up(mark_points(record, marks), *(name for name, _, _ in self.crossings))
        return build_model(record)


def _round_diff(before: ModelRecord, after: ModelRecord):
    """The diff of a ``RoundRecord``, read off the curves a round adds: a
    blow-up keeps every curve of a normalized record with its carrier, so
    no round removes a curve from a D_g."""
    added: dict[int, list[str]] = {}
    for cid, g in after.carrier.items():
        if cid not in before.carrier:
            added.setdefault(g, []).append(cid)
    return tuple(
        (str(GroupElement._of(before.r, g)), tuple(sorted(added[g])), ()) for g in sorted(added)
    )


#: The rounds ``resolve`` takes before it gives up with NonTerminationError.
MAX_ROUNDS = 6


def _give_up(blown: Iterable[str], trail: list[RoundRecord]) -> NonTerminationError:
    """The error of a round past the budget, naming its points (in name order)."""
    return NonTerminationError(
        f"resolution did not finish within {MAX_ROUNDS} rounds; "
        f"still singular at {', '.join(blown)}",
        trail=tuple(trail),
    )


def resolve(cover: CoverModel) -> ResolveResult:
    """Blow up singular points until smooth, in at most ``MAX_ROUNDS`` rounds.

    Each round blows up every currently visible singular point (a child
    point only becomes visible once its parent is a center), so a tacnode
    takes two rounds while two separate triple points take one.  These
    rounds chain on records: the normalized input is read once by
    ``to_record`` and each round is one ``blow_up``.

    When no marked point is singular, the crossings are counted, not blown
    up: one pair search gives each same-inertia pair with its residual
    crossing number, and crossing round j takes one new point ``sing<n>``
    per pair whose residual is at least j.  The names come from one
    ``fresh_names`` call, in pair order round after round, and each round
    lists its points in name order, the order its blow-ups take.  A
    crossing is an A1 point of the cover, whose resolution changes neither
    chi nor K^2, so the result keeps the record before the crossing rounds
    and the crossings beside it (see ``ResolveResult``); a crossing round
    adds no curve to any D_g.

    This is the one place smoothness is decided: the loop returns only when
    no ripe marked point is singular and every same-inertia crossing off the
    marked points is counted.  An unripe point is then smooth too: by
    proximity its curves pass through its parent with at least its
    multiplicity, and a smooth parent shares none of its directions between
    two curves.
    """
    current = normalize(cover)
    record = to_record(current)
    rounds = 0
    trail: list[RoundRecord] = []
    while singulars := singular_points(record):
        if rounds >= MAX_ROUNDS:
            raise _give_up(singulars, trail)
        rounds += 1
        after = blow_up(record, *singulars)
        trail.append(RoundRecord(rounds, tuple(singulars), _round_diff(record, after)))
        record = after
    pairs = singular_residual_pairs(record)
    if not pairs:
        return ResolveResult(record, (), rounds, tuple(trail), current)
    # the crossing rounds up to the first one past the budget, which names its points
    budget = MAX_ROUNDS - rounds + 1
    names = iter(fresh_names(record, "sing", sum(min(k, budget) for _, _, k in pairs)))
    crossings: list[tuple[str, str, str]] = []
    for j in range(1, budget + 1):
        batch = sorted((next(names), a, b) for a, b, k in pairs if k >= j)
        if not batch:
            break
        blown = tuple(name for name, _, _ in batch)
        if rounds >= MAX_ROUNDS:
            raise _give_up(blown, trail)
        rounds += 1
        trail.append(RoundRecord(rounds, blown, ()))
        crossings += batch
    return ResolveResult(record, tuple(crossings), rounds, tuple(trail), current)
