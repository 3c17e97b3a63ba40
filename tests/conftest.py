from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from planecover import config, group
from planecover.errors import InconsistencyError

FIXTURE_DIR = Path(__file__).parent / "fixtures"
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
    m_a*m_b at every marked point, validated and then kept when both carry
    the same inertia element and the residual is at least 1."""
    pairs = []
    comps = list(cover.components)
    for i, a in enumerate(comps):
        for b in comps[i + 1 :]:
            same = cover.inertia_of(a.cid) == cover.inertia_of(b.cid)
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
                pairs.append((a.cid, b.cid))
    return pairs


def scan_components_at(cover, point):
    """Reference for ``CoverModel.components_at``: every component, in id
    order, with its multiplicity at ``point`` when that is at least 1."""
    return [(c, c.mult_at(point)) for c in cover.components if c.mult_at(point) >= 1]


def scan_children_of_point(cover, name):
    """Reference for ``CoverModel.children_of_point``: the marked points, in
    name order, whose parent is ``name``."""
    return tuple(m.name for m in cover.marked if m.parent == name)


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
