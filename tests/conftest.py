from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from planecover import config

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
