from __future__ import annotations

import contextlib
import io
import itertools
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence
from unittest import mock

import pytest

from planecover import classify, cli, config, cover, group, invariants, lattice
from planecover import normalize as normalize_mod
from planecover.config import ComponentSpec, ConfigDocument
from planecover.cover import (
    CoverModel,
    CurveComponent,
    ModelRecord,
    add_marked_point,
    add_marked_points,
    carriers,
    check_parity,
    derive_building_data,
    fresh_names,
    to_record,
)
from planecover.errors import (
    ConfigError,
    DanglingReferenceError,
    DimensionError,
    DomainError,
    GeometryError,
    InconsistencyError,
    MatchError,
    NonTerminationError,
    ParityError,
    PreconditionError,
    ReductionError,
)
from planecover.group import GroupElement, element_key
from planecover.invariants import invariant_report
from planecover.lattice import Center, DivisorClass
from planecover.normalize import (
    ResolveResult,
    RoundRecord,
    normalize,
    pull_back,
    resolve,
    singular_residual_pairs,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_DIR = Path(__file__).parent / "golden"

PROPOSITION_FIXTURES = (
    "prop42",
    "prop44",
    "prop46",
    "prop48",
    "prop410",
    "prop412",
    "prop51",
    "prop53",
    "prop55",
    "prop57",
    "prop59",
)


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.cfg").read_text(encoding="utf-8")


def load_cover(name: str):
    return config.parse(fixture_text(name)).to_cover()


@pytest.fixture
def cover_loader():
    return load_cover


def normalize_by_moves(cover, rng):
    """Reference normalization: apply the standard moves one at a time, each
    drawn by ``rng`` from those that apply, until none does; then drop the
    components that no D_g holds.

    The moves strip two copies of a component from one D_g, or move one copy
    of a component lying in both D_g and D_h into D_{g+h}.
    """
    counts = Counter({(g, cid): k for g, entries in cover.branch for cid, k in entries})
    while True:
        held = sorted(key for key, k in counts.items() if k > 0)
        moves = [(key, key) for key in held if counts[key] >= 2]
        moves += [(a, b) for a, b in itertools.combinations(held, 2) if a[1] == b[1]]
        if not moves:
            break
        (g, cid), (h, _) = rng.choice(moves)
        counts[g, cid] -= 1
        counts[h, cid] -= 1
        if g != h:
            counts[g + h, cid] += 1
    branch = [(g, [(cid, k)]) for (g, cid), k in counts.items() if k > 0]
    kept = {cid for _, [(cid, _)] in branch}
    components = tuple(c for c in cover.components if c.cid in kept)
    return replace(cover, branch=tuple(branch), components=components)


def dense_singular_residual_pairs(cover):
    """Reference for ``normalize.singular_residual_pairs``: every pair of
    components, intersected over the full dense coefficient tuples, minus
    m_a*m_b at every marked point, validated and then kept, with that
    residual, when both carry the same inertia element and the residual is
    at least 1."""
    pairs = []
    comps = list(cover.components)
    for i, a in enumerate(comps):
        for b in comps[i + 1 :]:
            same = scan_inertia(cover, a.cid) == scan_inertia(cover, b.cid)
            x, y = a.cls.coeffs, b.cls.coeffs
            total = x[0] * y[0] - sum(p * q for p, q in zip(x[1:], y[1:]))
            for m in cover.marked:
                total -= a.mult_at(m.name) * b.mult_at(m.name)
            if total < 0:
                raise InconsistencyError(
                    f"declared multiplicities of {a.cid} and {b.cid} "
                    "exceed their intersection number"
                )
            if same and total >= 1:
                pairs.append((a.cid, b.cid, total))
    return pairs


def fresh_record(cover):
    """The record of a model read afresh from its fields, as ``to_record``
    reads it once per model."""
    return ModelRecord(
        cover.r,
        list(cover.surface.centers),
        {m.name: m for m in cover.marked},
        cover.pencil,
        carriers(cover.branch),
        {c.cid: dict(c.cls.support) for c in cover.components},
        {c.cid: (c.irreducible, c.exceptional_of) for c in cover.components},
        {c.cid: list(c.mults) for c in cover.components},
    )


def reference_odd_character(cover):
    """Reference for the parity sweep ``cover.odd_character``: the sweep as
    it was on a built model, over its branch entries.  The first character,
    in ``group.characters`` order, whose branch sum S_chi has an odd
    coefficient; None when every S_chi is even.  Mod 2, S_chi at slot s is
    eps_chi(v_s), where v_s is the XOR of the g over the entries (cid, k)
    of D_g with k odd and an odd coefficient of [C_cid] at s."""
    at_slot = {}
    for g, entries in cover.branch:
        for cid, k in entries:
            if k & 1:
                for slot, value in cover.component(cid).cls.support.items():
                    if value & 1:
                        at_slot[slot] = at_slot.get(slot, 0) ^ g.mask
    odd = {v for v in at_slot.values() if v}
    if not odd:
        return None
    return next(
        chi
        for chi in group.characters(cover.r)
        if any((chi.mask & v).bit_count() & 1 for v in odd)
    )


def reference_shape_key(cover):
    """Reference for ``census._shape_key``: the key as it was on a built
    model, read off its branch entries."""
    p = cover.pencil
    profile = []
    for g, entries in cover.branch:
        comps = [cover.component(cid) for cid, _ in entries]
        shape = tuple(sorted((c.cls.degree, c.mult_at(p)) for c in comps))
        profile.append((str(g), shape))
    return (cover.r, tuple(sorted(profile)))


def scan_components_at(cover, point):
    """Reference for ``cover.curves_through``: every component, in id order,
    with its multiplicity at ``point`` when that is at least 1."""
    return [(c, c.mult_at(point)) for c in cover.components if c.mult_at(point) >= 1]


def scan_children_of_point(cover, name):
    """Reference for ``cover.children_by_parent``: the marked points, in name
    order, whose parent is ``name``."""
    return tuple(m.name for m in cover.marked if m.parent == name)


def scan_inertia(cover, cid):
    """Reference for a curve's carrier on a normalized model: the one g whose
    D_g holds ``cid``, once; InconsistencyError when no D_g holds it, or more
    than one does, or one holds it more than once."""
    held = [(g, k) for g, entries in cover.branch for c, k in entries if c == cid]
    if len(held) != 1 or held[0][1] != 1:
        raise InconsistencyError(
            f"component {cid!r} is not reduced/uniquely assigned; normalize first"
        )
    return held[0][0]


def embed(cls, surface):
    """Reference total transform of a class on a surface that blows up further
    centers after those of the class's own surface: the dense coefficients,
    padded with zeros."""
    assert surface.centers[: len(cls.surface.centers)] == cls.surface.centers
    return lattice.DivisorClass(surface, cls.coeffs + (0,) * (surface.rank - cls.surface.rank))


def strict_transform(cls, center_name, mult):
    """Reference strict transform: ``mult`` subtracted from the dense
    coefficient of E_center_name."""
    coeffs = list(cls.coeffs)
    coeffs[cls.surface.index_of(center_name)] -= mult
    return lattice.DivisorClass(cls.surface, tuple(coeffs))


def parse_class(surface, text):
    """Inverse of ``str(DivisorClass)``: reads signed combinations like
    ``4H-2E1-4E2``, and ``0``."""
    coeffs = [0] * surface.rank
    if text != "0":
        terms = re.findall(r"([+-]?)(\d*)(H|E[A-Za-z0-9_']+)", text)
        assert "".join(map("".join, terms)) == text, text
        for sign, mag, label in terms:
            slot = 0 if label == "H" else surface.index_of(label[1:])
            coeffs[slot] += (-1 if sign == "-" else 1) * int(mag or 1)
    return lattice.DivisorClass(surface, tuple(coeffs))


def closure_span(els, r):
    """Reference for ``group.span``: the closure of ``els`` and zero under
    addition, grown one element at a time."""
    closure = {group.zero(r)}
    frontier = list(els)
    while frontier:
        g = frontier.pop()
        if g in closure:
            continue
        new = [g + h for h in closure]
        closure.add(g)
        frontier.extend(new)
    return frozenset(closure)


def greedy_complement_basis(subgroup, r):
    """Reference for ``group.complement_basis``: each coordinate vector in
    turn, kept when it is outside the closure of the subgroup and the
    vectors kept before it."""
    chosen = []
    for i in range(r):
        e = group.GroupElement._of(r, 1 << (r - 1 - i))
        if e not in closure_span(list(subgroup) + chosen, r):
            chosen.append(e)
    return chosen


def searched_quotient_cover(cover, subgroup):
    """Reference for ``cover.quotient_cover``: the image of each branch element
    found by trying the 2^(r-s) combinations of the complement basis, in
    order, until one lands in the coset of the element."""
    sub = group.span(subgroup, cover.r)
    basis = group.complement_basis(sub, cover.r)
    new_r = len(basis)
    if new_r == 0:
        raise DomainError("cannot quotient by the full group")

    combos = []
    for bits in group.elements(new_r):
        rep = group.zero(cover.r)
        for coeff, vec in zip(bits.bits, basis):
            if coeff:
                rep = rep + vec
        combos.append((bits, rep))
    new_branch = []
    for g, entries in cover.branch:
        image = next(bits for bits, rep in combos if g + rep in sub)
        if not image.is_zero:
            new_branch.append((image, entries))
    kept = {cid for _, entries in new_branch for cid, _ in entries}
    comps = tuple(c for c in cover.components if c.cid in kept)
    return replace(cover, r=new_r, components=comps, branch=tuple(new_branch))


def scan_common_point(cover, comps, exclude):
    """Reference for ``classify._common_point``: the first marked point, in
    name order, other than ``exclude`` where every component has multiplicity
    at least 1."""
    for m in cover.marked:
        if m.name != exclude and all(c.mult_at(m.name) >= 1 for c in comps):
            return m.name
    return None


def scan_tacnode(cover, quartic, conic):
    """Reference for ``classify._tacnode``: every marked point and every point
    infinitely near it, in name order, scanned for the quartic's 2 and the
    conic's 1 at both; the last such pair wins."""
    tacnode = None
    for m in cover.marked:
        if quartic.mult_at(m.name) == 2 and conic.mult_at(m.name) == 1:
            for child in scan_children_of_point(cover, m.name):
                if quartic.mult_at(child) == 2 and conic.mult_at(child) == 1:
                    tacnode = (m.name, child)
    return tacnode


def scan_tangency(cover, line, cubic):
    """Reference for ``classify._tangency``: the first marked point, in name
    order, on both curves, when a point infinitely near it is on both too;
    MatchError when none is; None when the curves share no marked point."""
    for t in cover.marked:
        if line.mult_at(t.name) >= 1 and cubic.mult_at(t.name) >= 1:
            for child in scan_children_of_point(cover, t.name):
                if line.mult_at(child) >= 1 and cubic.mult_at(child) >= 1:
                    return t.name
            raise MatchError("cubic meets a line at a marked point but not tangentially")
    return None


def pulled_back_g_prime(cover, pencil_point):
    """Reference for ``classify.infer_g_prime``: pull the cover back to the
    blow-up at the pencil point, normalize, and intersect every branch
    component of that model with the fiber class H - E_p."""
    classify._require_plane_normalized(cover)
    model = normalize(total_transform_pull_back(cover, pencil_point))
    fiber = lattice.hyperplane(model.surface) - lattice.exceptional(model.surface, pencil_point)
    carriers = []
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
    s = len(subgroup).bit_length() - 1  # the span has 2^s elements
    expected = classify._EXPECTED_BRANCH_POINTS.get((cover.r, s))
    if expected is None:
        raise MatchError(
            f"not an invariant-conic-bundle configuration: r={cover.r} with G' of rank {s}"
        )
    if count != expected:
        raise MatchError(
            f"not an invariant-conic-bundle configuration: {count} branch points "
            f"on a general pencil line, expected {expected} for r={cover.r}, s={s}"
        )
    return classify.GPrimeStructure(dimension=s, subgroup=tuple(sorted(subgroup)))


def reference_branch_class(cover, g):
    """Reference [D_g]: the sum of k [C] over the entries (C, k) of D_g, by
    ``lattice.linear_combination``."""
    entries = dict(cover.branch).get(g, ())
    return lattice.linear_combination(
        cover.surface, ((k, cover.component(cid).cls) for cid, k in entries)
    )


def per_character_building_data(cover):
    """Reference for ``derive_building_data``: for each character chi in
    order, S_chi as the epsilon-weighted linear combination of the [D_g],
    and L_chi = S_chi / 2, or ParityError for the first chi whose sum has an
    odd coefficient.  Returns (L, S)."""
    sums, halves = {}, {}
    for chi in group.characters(cover.r):
        total = lattice.linear_combination(
            cover.surface,
            ((group.epsilon(chi, g), reference_branch_class(cover, g)) for g, _ in cover.branch),
        )
        if any(c % 2 for c in total.coeffs):
            raise ParityError(
                f"branch data sum for character {chi} is not divisible by two", character=chi
            )
        sums[chi] = total
        halves[chi] = lattice.DivisorClass(cover.surface, tuple(c // 2 for c in total.coeffs))
    return halves, sums


class ProdReport(NamedTuple):
    """Result of ``check_prod_relations``."""

    pairs_checked: int
    violations: tuple[tuple[group.Character, group.Character], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_prod_relations(cover, building=None):
    """Reference check of L_chi + L_chi' ~ L_{chi chi'} + sum eps_{chi,chi'}(g) D_g
    for every ordered pair of characters, on given building data or, without
    them, on ``derive_building_data`` (ParityError when a sum is odd).

    With M_chi = 2 L_chi - S_chi, S_chi = sum eps_chi(g) D_g, and eps_chi +
    eps_chi' - eps_{chi+chi'} = 2 eps_{chi,chi'}, twice the relation for
    (chi, chi') reads M_chi + M_chi' = M_{chi+chi'}; the lattice is
    torsion-free, so that decides it.  Only when some M_chi is nonzero are
    the pairs scanned, to list the violations.
    """
    if building is None:
        building = derive_building_data(cover)
    sums = per_character_building_data(cover)[1]
    for chi in sums:
        if chi not in building:
            raise DomainError(f"building data have no class for character {chi}")
        if building[chi].surface != cover.surface:
            raise DimensionError(f"building class for character {chi} lives on another surface")
    n = len(sums)
    if all(
        {slot: 2 * c for slot, c in building[chi].support.items()} == total.support
        for chi, total in sums.items()
    ):
        return ProdReport(n * n, ())
    defect = {
        chi: lattice.linear_combination(cover.surface, ((2, building[chi]), (-1, total)))
        for chi, total in sums.items()
    }
    violations = [
        (chi, chi2)
        for chi in defect
        for chi2 in defect
        if defect[chi] + defect[chi2] != defect[chi + chi2]
    ]
    return ProdReport(n * n, tuple(violations))


def per_character_chi(cover):
    """Reference for ``invariant_report``'s chi on a smooth model: 2^r + (1/2)
    * sum over chi of L_chi.(L_chi + K), from the 2^r building classes of
    ``per_character_building_data``.

    L.(L + K) = L.L + L.K, and with K = -3H + sum E_i, L.K is -3 deg L minus
    the sum of the exceptional coefficients of L: both read off the nonzero
    coefficients of L, so neither K nor L + K is built.  L_0 = 0 adds nothing.
    """
    total = 0
    for cls in per_character_building_data(cover)[0].values():
        d = cls.degree
        total += d * d - 3 * d - sum(c * c + c for slot, c in cls.support.items() if slot)
    if total % 2:
        raise InconsistencyError("building data give a non-integral Euler characteristic")
    return 2**cover.r + total // 2


def purge_idle_marks_one_at_a_time(cover):
    """Reference for ``classify._purge_idle_marks``: drop the first marked
    point, in name order, that is not the pencil point, has no point
    infinitely near it and lies on at most one component; rebuild the whole
    model, and repeat until no point qualifies."""
    current = cover
    while True:
        removable = None
        for m in current.marked:
            if m.name == current.pencil or scan_children_of_point(current, m.name):
                continue
            if len(scan_components_at(current, m.name)) <= 1:
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


def reference_component_mults(cid, cls, mults):
    """Reference for the checks of ``CurveComponent``: the same checks in the
    same order, on the raw ``mults``; returns the sorted ``mults``."""
    if cls.degree < 0:
        raise DomainError(f"component {cid!r} has negative degree")
    if cls.degree == 0:
        support = cls.support
        lead = support[min(support)] if support else None
        if lead is None or lead < 0:
            raise DomainError(f"degree-0 component {cid!r} must be an exceptional class")
    if any(m < 1 for _, m in mults):
        raise DomainError(f"component {cid!r} has a multiplicity below 1")
    if len({name for name, _ in mults}) != len(mults):
        raise DomainError(f"component {cid!r} repeats a point in its multiplicities")
    return tuple(sorted(mults))


def reference_canonical_branch(raw):
    """Reference for ``cover._canonical_branch``: the coefficients of each g
    summed per component, nonpositive sums and empty D_g dropped, sorted by
    the elements' own order and the component ids."""
    merged = {}
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


def reference_cover_fields(r, surface, components, branch, marked=(), pencil=None):
    """Reference for the checks of ``CoverModel``: the canonical (components,
    branch, marked) it stores, or the same error in the same order.  Written
    plainly: a set union per marked point, sorts by lambda keys."""
    if not 1 <= r <= group.MAX_RANK:
        raise DomainError(f"cover rank must be between 1 and {group.MAX_RANK}")
    components = tuple(sorted(components, key=lambda c: c.cid))
    branch = reference_canonical_branch(branch)
    marked = tuple(sorted(marked, key=lambda m: m.name))
    ids = [c.cid for c in components]
    if len(set(ids)) != len(ids):
        raise DomainError("component ids must be unique")
    known_points = {m.name for m in marked}
    center_names = set(surface.names)
    if known_points & center_names:
        raise DomainError("marked point names collide with blown-up centers")
    if len([m.name for m in marked]) != len(known_points):
        raise DomainError("marked point names must be unique")
    for m in marked:
        if m.parent is not None and m.parent not in known_points | center_names:
            raise DanglingReferenceError(f"marked point {m.name!r} has unknown parent {m.parent!r}")
    parent_of = {m.name: m.parent for m in marked}
    for m in marked:
        seen = [m.name]
        while parent_of.get(seen[-1]) is not None:
            if parent_of[seen[-1]] in seen:
                raise DomainError(f"the parents of marked point {m.name!r} form a cycle")
            seen.append(parent_of[seen[-1]])
    for comp in components:
        if comp.cls.surface != surface:
            raise DimensionError(f"component {comp.cid!r} lives on the wrong surface")
        for name, _ in comp.mults:
            if name not in known_points:
                raise DanglingReferenceError(
                    f"component {comp.cid!r} declares a multiplicity at unknown point {name!r}"
                )
    for g, entries in branch:
        if g.r != r:
            raise DimensionError(f"branch element {g} has wrong rank")
        if g.is_zero:
            raise DomainError("branch data are indexed by nonzero group elements")
        for cid, _ in entries:
            if cid not in set(ids):
                raise DanglingReferenceError(f"branch references unknown component {cid!r}")
    if pencil is not None and pencil not in known_points | center_names:
        raise DanglingReferenceError(f"pencil point {pencil!r} is not a known point")
    return components, branch, marked


def root_reflect(cls, p, q, r):
    """Reference for ``lattice.cremona_reflect`` on valid base points: the
    reflection c + (c.alpha) alpha in the root alpha = H - E_p - E_q - E_r."""
    slots = {cls.surface.index_of(name): -1 for name in (p, q, r)}
    alpha = lattice.DivisorClass.from_support(cls.surface, {0: 1, **slots})
    return cls + lattice.intersect(cls, alpha) * alpha


def reference_quadratic_move(cover, p, q, r):
    """Reference for ``classify.quadratic_move``: the same base-point checks,
    then ``pull_back`` at the three points, the root reflection of every
    component class, a plane model built from the survivors, and
    ``purge_idle_marks_one_at_a_time`` on it."""
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
        strays = [c for c in scan_children_of_point(cover, name) if c not in based]
        if strays:
            raise GeometryError(
                f"base point {name!r} carries infinitely near points {strays} "
                f"that the move would orphan"
            )
    parent = {n: cover.marked_point(n).parent for n in based}
    depth = {n: (parent[n] is not None) + (parent.get(parent[n]) is not None) for n in based}
    order = sorted(based, key=lambda n: (depth[n], n))
    work = pull_back(cover, *order)
    survivors, dropped, emitted = [], set(), []
    for comp in work.components:
        reflected = root_reflect(comp.cls, p, q, r)
        if reflected.degree == 0:
            dropped.add(comp.cid)
            continue
        mults = dict(comp.mults)
        for name in based:
            m = -reflected.coeffs[work.surface.index_of(name)]
            if m < 0:
                raise GeometryError(
                    f"move produced a negative multiplicity on {comp.cid}; invalid base triple"
                )
            if m:
                mults[name] = m
        if comp.exceptional_of in based:
            emitted.append(comp.cid)
        plane_class = lattice.DivisorClass(lattice.PLANE, (reflected.degree,))
        survivors.append(
            replace(comp, cls=plane_class, mults=tuple(mults.items()), exceptional_of=None)
        )
    branch = []
    for g, entries in work.branch:
        kept = tuple((cid, k) for cid, k in entries if cid not in dropped)
        if kept:
            branch.append((g, kept))
    marked = work.marked + tuple(cover.marked_point(n) for n in based)
    moved = CoverModel(cover.r, lattice.PLANE, tuple(survivors), tuple(branch), marked, cover.pencil)
    record = classify.MoveRecord(based, tuple(sorted(dropped)), tuple(sorted(emitted)))
    return purge_idle_marks_one_at_a_time(moved), record


# -- references for the Cremona recipes ---------------------------------------
# Copies of the recipes as they were when each step built its model: mark the
# auxiliary points on the model, then call ``classify.quadratic_move`` once per
# move.  It is looked up at call time, so a test can watch every move or make
# it with ``reference_quadratic_move``.


def reference_aux_move(cover, mults, *based):
    """Reference for ``classify._aux_move``."""
    (aux,) = fresh_names(to_record(cover), "aux")
    work = add_marked_point(cover, aux, mults=mults)
    work, record = classify.quadratic_move(work, *(aux if n is None else n for n in based))
    return work, (record,)


def reference_reduce_odd_curve(cover, p, w):
    """Reference for ``classify._reduce_odd_curve``."""
    moves = []
    work = cover
    while True:
        comps = [work.component(cid) for cid, _ in dict(work.branch).get(w, ())]
        heavy = [
            c for c in comps if c.cls.degree >= 2 and c.mult_at(p) == c.cls.degree - 1
        ]
        if not heavy:
            break
        target = sorted(heavy, key=lambda c: c.cid)[0]
        qn, rn = fresh_names(to_record(work), "aux", 2)
        work = add_marked_points(work, [(qn, None, {target.cid: 1}), (rn, p, {target.cid: 1})])
        work, record = classify.quadratic_move(work, p, qn, rn)
        moves.append(record)
    while True:
        comps = [work.component(cid) for cid, _ in dict(work.branch).get(w, ())]
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
        qn, rn = fresh_names(to_record(work), "aux", 2)
        work = add_marked_points(
            work, [(qn, None, {off[0].cid: 1, r_b.cid: 1}), (rn, p, {r_a.cid: 1})]
        )
        work, record = classify.quadratic_move(work, p, qn, rn)
        moves.append(record)
    return work, tuple(moves)


def reference_cremona_reduce(cover, pencil_point=None):
    """Reference for ``classify.cremona_reduce``: the same match, then the
    reference copy of the recipe the match attached to its label."""
    p = pencil_point if pencil_point is not None else cover.pencil
    work = normalize(cover)
    if p is not None:
        label = classify.match_conic_bundle(work, p)
    else:
        label = classify.match_del_pezzo(work)
    if label.reduce is None:
        return work, ()
    recipes = {
        classify._aux_move: reference_aux_move,
        classify._reduce_odd_curve: reference_reduce_odd_curve,
    }
    # the recipe's first argument is the matched record; the reference reads the model
    return recipes[label.reduce.func](work, *label.reduce.args[1:])


def total_transform_pull_back(cover, *points):
    """Reference for ``normalize.pull_back``: the total transforms, not
    normalized, so ``normalize`` of it is what ``pull_back`` returns.

    At each point, every D_g gains mult(D_g at the point) copies of the new
    exceptional component, created when any curve with a branch entry passes
    through the point, and component classes become strict transforms."""
    if not points:
        raise DomainError("pull_back needs at least one point")
    marked = dict(cover._by_point)
    centers = list(cover.surface.centers)
    center_names = set(cover.surface.names)
    coeffs = {c.cid: dict(c.cls.support) for c in cover.components}
    carriers = {cid: [] for cid in coeffs}
    for g, entries in cover.branch:
        for cid, k in entries:
            carriers[cid].append((g, k))
    kept = {c.cid: (c.irreducible, c.exceptional_of) for c in cover.components}
    through = {}
    for c in cover.components:
        for name, m in c.mults:
            through.setdefault(name, {})[c.cid] = m
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
            center = lattice.Center(point)
        centers.append(center)
        center_names.add(point)
        slot = len(centers)
        mult_in_g = {}
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
        for child in scan_children_of_point(cover, point):
            through.setdefault(child, {})[eid] = 1
        new_branch.extend((g, ((eid, total),)) for g, total in mult_in_g.items())
    surface = lattice.BlownPlane(tuple(centers))
    mults = {cid: [] for cid in coeffs}
    for name, at in through.items():
        for cid, m in at.items():
            mults[cid].append((name, m))
    comps = tuple(
        CurveComponent(
            cid,
            lattice.DivisorClass.from_support(surface, coeff),
            irreducible=kept[cid][0],
            mults=tuple(mults[cid]),
            exceptional_of=kept[cid][1],
        )
        for cid, coeff in coeffs.items()
    )
    return CoverModel(
        cover.r, surface, comps, tuple(new_branch), tuple(marked.values()), cover.pencil
    )


def resolve_within(cover, rounds):
    """``resolve`` with a budget of ``rounds`` rounds: ``normalize.MAX_ROUNDS``
    is patched for the one call."""
    with mock.patch.object(normalize_mod, "MAX_ROUNDS", rounds):
        return resolve(cover)


def marked_total_transform_pull_back(cover, *points, crossings=()):
    """Reference for ``pull_back`` at the points and then at the crossings,
    ``(name, {cid: m})`` points not marked on ``cover``: mark the crossings,
    pull back by total transforms, and normalize."""
    crossings = list(crossings)
    marked = add_marked_points(cover, [(name, None, mults) for name, mults in crossings])
    names = [name for name, _ in crossings]
    return normalize(total_transform_pull_back(marked, *points, *names))


def point_is_ripe(cover, name):
    """A marked point can be blown up once its parent (if any) has been."""
    parent = cover.marked_point(name).parent
    return parent is None or cover.surface.has_center(parent)


def reference_singularity_over(cover, point):
    """Reference for ``normalize.singularity_over``: the test as it was when it
    read a built model, here through scans of its components and branch data."""
    at = scan_components_at(cover, point)
    for comp, m in at:
        if m >= 2:
            return f"component {comp.cid} is singular at {point}"
    if len(at) >= 3:
        names = ", ".join(c.cid for c, _ in at)
        return f"{len(at)} branch components meet at {point}: {names}"
    if len(at) == 2:
        (c1, _), (c2, _) = at
        for child in scan_children_of_point(cover, point):
            if c1.mult_at(child) >= 1 and c2.mult_at(child) >= 1:
                return f"{c1.cid} and {c2.cid} are tangent at {point} (share {child})"
        if scan_inertia(cover, c1.cid) is scan_inertia(cover, c2.cid):
            return f"{c1.cid} and {c2.cid} carry the same inertia element at {point}"
    return None


def branch_diff(before, after):
    """Reference for the diff of a ``RoundRecord``: (g as text, cids added to
    D_g, cids removed from it) for each g whose set of components changed,
    in element order, read off two built models that share r."""
    b, a = dict(before.branch), dict(after.branch)
    out = []
    for g in sorted(b.keys() | a.keys(), key=element_key):
        was = {cid for cid, _ in b.get(g, ())}
        now = {cid for cid, _ in a.get(g, ())}
        if was != now:
            out.append((str(g), tuple(sorted(now - was)), tuple(sorted(was - now))))
    return tuple(out)


def _reference_rounds(cover, budget, step):
    """The resolve loop on built models: ``step(model, blown, crossings)``
    makes one round's model, where ``crossings`` maps each new point
    ``sing<n>`` (name order) to the two curves crossing there, or is empty."""
    current = start = normalize(cover)
    rounds = 0
    trail = []
    while True:
        singulars = [
            m.name
            for m in current.marked
            if point_is_ripe(current, m.name)
            and reference_singularity_over(current, m.name) is not None
        ]
        crossings = {}
        if not singulars:
            pairs = singular_residual_pairs(to_record(current))
            if not pairs:
                break
            names = fresh_names(to_record(current), "sing", len(pairs))
            crossings = {name: {a: 1, b: 1} for name, (a, b, _) in zip(names, pairs)}
            singulars = names
        if rounds >= budget:
            raise NonTerminationError(
                f"resolution did not finish within {budget} rounds; "
                f"still singular at {', '.join(sorted(singulars))}",
                trail=tuple(trail),
            )
        rounds += 1
        blown = tuple(sorted(singulars))
        after = step(current, blown, crossings)
        trail.append(RoundRecord(rounds, blown, branch_diff(current, after)))
        current = after
    # the record of the resolved model, with no crossing left to blow up
    return ResolveResult(to_record(current), (), rounds, tuple(trail), start)


def resolved(outcome):
    """What a resolve gives its caller, to compare the engine with the
    references: the resolved model, the rounds and the trail of a
    ``ResolveResult``; any other outcome, such as an error's, as it is."""
    if isinstance(outcome, ResolveResult):
        return outcome.cover, outcome.rounds, outcome.trail
    return outcome


def reference_stepwise_resolve(cover, budget=6, pull_back=pull_back):
    """Reference for ``normalize.resolve``: the loop as it was when every
    round built its model, one ``pull_back`` per round, a crossing round
    on the model with its crossings marked (``add_marked_points``).  A test
    may pass its own ``pull_back``, of that signature, to see the model of
    every round."""

    def step(current, blown, crossings):
        marks = [(name, None, crossings[name]) for name in blown if name in crossings]
        return pull_back(add_marked_points(current, marks) if marks else current, *blown)

    return _reference_rounds(cover, budget, step)


def reference_resolve(cover, budget=6):
    """Reference for ``normalize.resolve``: each round marks its crossing
    points on the model, pulls back by total transforms and normalizes."""

    def step(current, blown, crossings):
        marked = add_marked_points(current, [(name, None, at) for name, at in crossings.items()])
        return normalize(total_transform_pull_back(marked, *blown))

    return _reference_rounds(cover, budget, step)


def singularity_reference(cover):
    """Reference smoothness check of a whole model, for ``resolve``'s result:
    the reason of the first marked point, ripe or not, that is singular, else
    the first same-inertia pair crossing off the marked points; None when
    the model is smooth."""
    for m in cover.marked:
        reason = reference_singularity_over(cover, m.name)
        if reason is not None:
            return reason
    pairs = singular_residual_pairs(to_record(cover))
    if pairs:
        a, b, _ = pairs[0]
        return f"{a} and {b} cross with equal inertia off declared points"
    return None


def smooth_chi(model):
    """chi of a model that is smooth as it stands: resolve blows up nothing."""
    result = resolve(model)
    assert result.rounds == 0
    return invariant_report(result).chi


# -- reference for the invariant report --------------------------------------
# A copy of ``invariant_report`` as it was before it became one sweep: the
# canonical class, one class per D_g and the bicanonical class built with the
# lattice routines, and every number read by ``lattice.intersect``.


def reference_bicanonical_pullback(cover):
    """Reference for ``invariants.bicanonical_pullback``: 2K + sum of the
    reference [D_g], by ``lattice.linear_combination``."""
    surface = cover.surface
    terms = [(1, reference_branch_class(cover, g)) for g, _ in cover.branch]
    return lattice.linear_combination(surface, [(2, lattice.canonical(surface)), *terms])


def reference_canonical_square(cover):
    """Reference for ``invariants.canonical_square``: 2^r B^2 / 4 with B the
    reference bicanonical class, B^2 by ``lattice.intersect``."""
    bicanonical = reference_bicanonical_pullback(cover)
    value = 2**cover.r * lattice.intersect(bicanonical, bicanonical)
    if value % 4:
        raise InconsistencyError("branch data give a non-integral K^2; check the branch classes")
    return value // 4


def reference_invariant_report(resolved):
    """Reference for ``invariants.invariant_report``: the same checks in the
    same order (parity, integral chi, integral K^2, Noether)."""
    cover = resolved.cover
    check_parity(cover)
    r, surface = cover.r, cover.surface
    canonical = lattice.canonical(surface)
    branch_classes = [reference_branch_class(cover, g) for g, _ in cover.branch]
    bicanonical = reference_bicanonical_pullback(cover)
    k2 = 10 - surface.rank
    b2 = lattice.intersect(bicanonical, bicanonical)
    dk = lattice.intersect(bicanonical, canonical) - 2 * k2
    d2 = b2 - 4 * k2 - 4 * dk
    squares = sum(lattice.intersect(cls, cls) for cls in branch_classes)
    num = 2**r * (d2 + squares + 4 * dk)
    if num % 32:
        raise InconsistencyError("building data give a non-integral Euler characteristic")
    chi = 2**r + num // 32
    value = 2**r * b2
    if value % 4:
        raise InconsistencyError("branch data give a non-integral K^2; check the branch classes")
    k_squared = value // 4
    c2 = sum(lattice.intersect(comp.cls, comp.cls) for comp in cover.components)
    nodes = (d2 - c2) // 2
    e_y = 2 + surface.rank
    e_d = -c2 - dk - nodes
    four_e = 2 ** (r + 2) * (e_y - e_d) + 2 ** (r + 1) * (e_d - nodes) + 2**r * nodes
    if 48 * chi != 4 * k_squared + four_e:
        raise InconsistencyError(
            f"Noether's formula fails: 4 * 12 chi = {48 * chi} "
            f"but 4 (K^2 + e(S)) = {4 * k_squared + four_e}"
        )
    verdict, notes = invariants._verdict(chi, bicanonical)
    return invariants.InvariantReport(
        chi=chi,
        k_squared=k_squared,
        bicanonical_pullback=bicanonical,
        rationality_verdict=verdict,
        surface_centers=surface.names,
        notes=notes,
    )


# -- references for reading a document ----------------------------------
# Copies of the parser, the plane builder and the element parser as they
# were before each became a single sweep; the tests require the same result,
# or the same error, from both.

_SECTION = re.compile(r"^\[(?P<name>[a-z]+)\]$")
_KEYVAL = re.compile(r"^(?P<key>[^=\s]+)\s*=\s*(?P<value>.*)$")
_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_']*$")
# added since the copy: a number has at most config.MAX_DIGITS digits
_MULT = re.compile(
    rf"^mult\((?P<point>[^)]*)\)\s*=\s*(?P<value>-?[0-9]{{1,{config.MAX_DIGITS}}})$"
)


def _is_number(text: str) -> bool:
    return len(text) <= config.MAX_DIGITS and text.isascii() and text.isdigit()


def reference_strip_comment(line: str) -> str:
    if "#" in line:
        return line[: line.index("#")]
    return line


def _cut(text: str) -> str:
    return text if len(text) <= 80 else text[:80] + "..."


def reference_parse(text: str) -> ConfigDocument:
    """Reference for ``config.parse``: a copy of the line-by-line parser it
    replaced (a regex match per clause, a set per branch key), with three
    rules added since: a degree below 1 is a problem at its line, a number
    has at most ``config.MAX_DIGITS`` digits, and a message echoes at most 80
    characters of a value, then ``...``."""
    problems: list[tuple[int, int, str]] = []
    doc = ConfigDocument(r=0)
    section = None
    seen_names: set[str] = set()
    component_names: set[str] = set()
    center_names: set[str] = set()
    cover_keys: set[str] = set()
    # (line, column, key, problems so far) per branch key whose length is not
    # r when it is read; r is 0 until read, and [cover] may follow [branch],
    # so the length is checked after the last line
    wrong_length: list[tuple[int, int, str, int]] = []

    def err(lineno: int, col: int, message: str) -> None:
        problems.append((lineno, col, message))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = reference_strip_comment(raw).strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            section = m.group("name")
            if section not in ("cover", "centers", "components", "branch"):
                err(lineno, 1, f"unknown section [{_cut(section)}]")
                section = None
            continue
        if section is None:
            err(lineno, 1, "content outside any section")
            continue
        kv = _KEYVAL.match(line)
        if not kv:
            err(lineno, 1, "expected 'key = value'")
            continue
        key, value = kv.group("key"), kv.group("value").strip()
        col = raw.index(key) + 1

        if section == "cover":
            if key in cover_keys:
                err(lineno, col, f"duplicate [cover] key {_cut(key)!r}")
            elif key == "r":
                cover_keys.add(key)
                if not _is_number(value) or not 1 <= int(value) <= 4:
                    err(lineno, col, f"r must be an integer between 1 and 4, got {_cut(value)!r}")
                else:
                    doc.r = int(value)
            elif key == "pencil":
                cover_keys.add(key)
                doc.pencil = value
            else:
                err(lineno, col, f"unknown [cover] key {_cut(key)!r}")

        elif section == "centers":
            if not _NAME.match(key):
                err(lineno, col, f"invalid center name {_cut(key)!r}")
                continue
            if key in seen_names:
                err(lineno, col, f"duplicate name {_cut(key)!r}")
                continue
            if value == "point":
                parent = None
            elif value.startswith("near "):
                parent = value[5:].strip()
                if parent not in center_names:
                    err(lineno, col, f"unknown parent center {_cut(parent)!r}")
                    continue
            else:
                err(lineno, col, f"center must be 'point' or 'near <center>', got {_cut(value)!r}")
                continue
            doc.centers.append((key, parent))
            seen_names.add(key)
            center_names.add(key)

        elif section == "components":
            if not _NAME.match(key):
                err(lineno, col, f"invalid component name {_cut(key)!r}")
                continue
            if key in seen_names:
                err(lineno, col, f"duplicate name {_cut(key)!r}")
                continue
            spec = ComponentSpec(key, degree=-1)
            ok = True
            clauses: set[str] = set()
            for part in [p.strip() for p in value.split(",")]:
                # a repeated degree or mult(point) clause would overwrite the first
                mm = _MULT.match(part)
                clause = mm and f"mult({mm.group('point')})"
                if part.startswith("degree"):
                    clause = "degree"
                if clause in clauses:
                    message = f"duplicate {_cut(clause)} clause for component {_cut(key)!r}"
                    err(lineno, col, message)
                    continue
                if clause:
                    clauses.add(clause)
                if part.startswith("degree"):
                    rest = part[len("degree") :].strip()
                    if not _is_number(rest):
                        err(lineno, col, f"bad degree {_cut(rest)!r} for component {_cut(key)!r}")
                        ok = False
                    else:
                        spec.degree = int(rest)
                        # added since the copy: a plane curve has degree at least 1
                        if spec.degree < 1:
                            message = (
                                f"degree must be at least 1 for component {_cut(key)!r}, "
                                f"got {_cut(rest)}"
                            )
                            err(lineno, col, message)
                            ok = False
                elif part == "reducible":
                    spec.irreducible = False
                elif mm:
                    point, mult = mm.group("point"), int(mm.group("value"))
                    if point not in center_names:
                        err(lineno, col, f"multiplicity at undeclared center {_cut(point)!r}")
                        ok = False
                    elif mult < 1:
                        err(lineno, col, f"multiplicity must be at least 1, got {_cut(str(mult))}")
                        ok = False
                    else:
                        spec.mults[point] = mult
                else:
                    err(lineno, col, f"cannot parse component clause {_cut(part)!r}")
                    ok = False
            if spec.degree < 0:
                err(lineno, col, f"component {_cut(key)!r} is missing its degree")
                ok = False
            if ok:
                doc.components.append(spec)
                seen_names.add(key)
                component_names.add(key)

        elif section == "branch":
            if any(c not in "01" for c in key):
                err(lineno, col, f"non-binary group element {_cut(key)!r}")
                continue
            if len(key) != doc.r:
                wrong_length.append((lineno, col, key, len(problems)))
            if set(key) == {"0"}:
                err(lineno, col, "branch data are indexed by nonzero group elements")
                continue
            if key in doc.branch:
                err(lineno, col, f"duplicate branch element {_cut(key)!r}")
                continue
            entries = []
            for part in [p.strip() for p in value.split(",") if p.strip()]:
                name, star, mult_text = part.partition("*")
                name = name.strip()
                mult = 1
                if star:
                    if not _is_number(mult_text.strip()) or int(mult_text) < 1:
                        err(lineno, col, f"bad multiplicity in branch entry {_cut(part)!r}")
                        continue
                    mult = int(mult_text)
                if name not in component_names:
                    err(lineno, col, f"branch references undeclared component {_cut(name)!r}")
                    continue
                entries.append((name, mult))
            if entries:
                doc.branch[key] = entries

    # a key of the wrong length reports only that, as if its line stopped there
    for lineno, col, key, start in reversed(wrong_length):
        if doc.r and len(key) != doc.r:
            end = start
            while end < len(problems) and problems[end][0] == lineno:
                end += 1
            problems[start:end] = [
                (lineno, col, f"group element {_cut(key)!r} has length {len(key)}, "
                 f"expected {doc.r}")
            ]
    if "r" not in cover_keys:
        problems.insert(0, (1, 1, "missing required key 'r' in [cover]"))
    if doc.pencil is not None and doc.pencil not in center_names:
        problems.append((1, 1, f"pencil point {_cut(doc.pencil)!r} is not a declared center"))
    if problems:
        raise ConfigError(problems)
    return doc


def reference_plane_cover(
    r: int,
    components: Sequence[tuple[str, int, Mapping[str, int]]],
    branch: Mapping[str, Sequence[tuple[str, int]]],
    marked: Sequence[tuple[str, str | None]] = (),
    pencil: str | None = None,
    reducible: Iterable[str] = (),
) -> CoverModel:
    """Reference for ``cover.plane_cover``: a verbatim copy of the builder it
    replaced (proximity summed per parent for every component, every Bezout
    pair sorted), with the name rule added since.

    Build a plane configuration from degrees and declared multiplicities.

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
    # added since the copy: every name must be one a document can write
    names = [cid for cid, _, _ in components] + [name for name, _ in marked]
    for name in names + ([] if pencil is None else [pencil]):
        if not _NAME.fullmatch(name):
            raise DomainError(f"name {name!r} cannot be written in a document")
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
    reference_check_bezout(components)
    for cid in sorted({cid for cid, _, _ in components}):
        if cid in {name for name, _ in marked}:
            raise DomainError(f"component id {cid!r} is also the name of a marked point")
    branch_data = tuple(
        (GroupElement.parse(key), tuple(entries)) for key, entries in branch.items()
    )
    marks = tuple(Center(name, parent) for name, parent in marked)
    return CoverModel(r, lattice.PLANE, tuple(comps), branch_data, marks, pencil)


def reference_check_bezout(components: Sequence[tuple[str, int, Mapping[str, int]]]) -> None:
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


def reference_element_parse(text: str) -> group.GroupElement:
    """Reference for ``GroupElement.parse``: validation first, then the
    interned element."""
    if not text or any(c not in "01" for c in text):
        raise DomainError(f"non-binary group element {text!r}")
    group._check_rank(len(text))
    return group._INTERNED[len(text)][int(text, 2)]


def _reference_topo_sorted(centers):
    """Centers by (depth below a plane point, name), found without recursion."""
    by_name = dict(centers)
    depth = {None: -1}
    for name, _ in centers:
        chain = []
        while name not in depth and len(chain) <= len(by_name):
            chain.append(name)
            name = by_name.get(name)
        for link in reversed(chain):
            depth[link] = depth.get(name, -1) + 1
            name = link
    return sorted(centers, key=lambda item: (depth[item[0]], item[0]))


def reference_document_text(model: CoverModel) -> str:
    """Reference for the document writer: a copy of the writer it replaced,
    which copied the model into a ``ConfigDocument`` and then sorted every
    part of it as it wrote."""
    if model.surface.rank != 1:
        raise ConfigError([(1, 1, "only plane configurations can be serialized")])
    doc = ConfigDocument(r=model.r, pencil=model.pencil)
    doc.centers = [(m.name, m.parent) for m in model.marked]
    doc.components = [
        ComponentSpec(c.cid, c.cls.degree, dict(c.mults), c.irreducible)
        for c in model.components
    ]
    doc.branch = {str(g): list(entries) for g, entries in model.branch}
    lines = ["[cover]", f"r = {doc.r}"]
    if doc.pencil is not None:
        lines.append(f"pencil = {doc.pencil}")
    lines.append("")
    lines.append("[centers]")
    for name, parent in _reference_topo_sorted(doc.centers):
        lines.append(f"{name} = point" if parent is None else f"{name} = near {parent}")
    lines.append("")
    lines.append("[components]")
    for comp in sorted(doc.components, key=lambda c: c.name):
        parts = [f"degree {comp.degree}"]
        parts += [f"mult({point}) = {mult}" for point, mult in sorted(comp.mults.items())]
        if not comp.irreducible:
            parts.append("reducible")
        lines.append(f"{comp.name} = " + ", ".join(parts))
    lines.append("")
    lines.append("[branch]")
    for key in sorted(doc.branch):
        entries = ", ".join(
            [name if mult == 1 else f"{name}*{mult}" for name, mult in sorted(doc.branch[key])]
        )
        lines.append(f"{key} = {entries}")
    return "\n".join(lines) + "\n"


# -- construction counts ----------------------------------------------------

#: What ``construction_counts`` counts, in the order it returns them.
COUNTED = ("parse", "CoverModel", "CurveComponent", "Center")

#: What ``census_counts`` counts, in the order it returns them.
CENSUS_COUNTED = ("CoverModel", "_basis", "blow_up", "_move")


def _spied_main(argv: list[str], targets, stdin: str = "") -> Counter:
    """The calls of one ``cli.main`` call to each ``(name, owner, attribute)``
    of ``targets``, by name, counted by spies patched over the attributes."""
    counts = Counter()

    def spy(name, func):
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    with contextlib.ExitStack() as stack:
        for name, owner, attribute in targets:
            spied = spy(name, getattr(owner, attribute))
            stack.enter_context(mock.patch.object(owner, attribute, spied))
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(stdin)))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        cli.main(argv)
    return counts


def construction_counts(argv: list[str], stdin: str = "") -> tuple[int, ...]:
    """The ``config.parse`` calls and the ``CoverModel``, ``CurveComponent``
    and ``Center`` constructions of one ``cli.main`` call, in ``COUNTED``
    order, counted by spies on ``config.parse`` and on the constructors."""
    targets = [
        ("parse", config, "parse"),
        ("CoverModel", cover.CoverModel, "__post_init__"),
        ("CurveComponent", cover.CurveComponent, "__init__"),
        ("Center", lattice.Center, "__init__"),
    ]
    counts = _spied_main(argv, targets, stdin)
    return tuple(counts[name] for name in COUNTED)


def census_counts(r: int) -> tuple[int, ...]:
    """The work of one ``census --r R --max-degree 7`` call, in
    ``CENSUS_COUNTED`` order: the ``CoverModel`` builds, the ``group._basis``
    eliminations, the ``blow_up`` calls of ``resolve`` (those through the
    ``normalize`` module) and the ``classify._move`` calls."""
    targets = [
        ("CoverModel", cover.CoverModel, "__post_init__"),
        ("_basis", group, "_basis"),
        ("blow_up", normalize_mod, "blow_up"),
        ("_move", classify, "_move"),
    ]
    counts = _spied_main(["census", "--r", str(r), "--max-degree", "7"], targets)
    return tuple(counts[name] for name in CENSUS_COUNTED)
