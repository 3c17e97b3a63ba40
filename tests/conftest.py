from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from planecover import config
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
