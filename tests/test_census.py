import hashlib

import pytest

from planecover import census as census_mod
from planecover import config
from planecover.census import census
from planecover.classify import classify
from planecover.cover import build_model, to_record
from planecover.errors import DomainError

from conftest import CENSUS_COUNTED, GOLDEN_DIR, census_counts, reference_shape_key


def test_census_r2_degree1_is_exactly_the_two_line_patterns():
    table = census(2, 1)
    labels = sorted(row.label for row in table.rows)
    assert labels == ["Prop4.2/P1.221&P1.22.1", "Prop4.4/0.22[d=1]"]


@pytest.mark.parametrize("r, max_degree", [(r, d) for r in (2, 3, 4) for d in range(1, 8)])
def test_census_matches_golden_file(r, max_degree):
    golden = (GOLDEN_DIR / f"census_r{r}_maxdeg{max_degree}.txt").read_text(encoding="utf-8")
    assert census(r, max_degree).to_text() == golden


def _candidate_listing() -> str:
    """One line per census candidate (r = 2..4, degree <= 7): r, the pattern and
    the SHA-256 of the model's serialized document."""
    lines = []
    for r in (2, 3, 4):
        for pattern, model in census_mod._candidates(r, 7):
            digest = hashlib.sha256(config.from_cover(model).serialize().encode()).hexdigest()
            lines.append(f"{r}\t{pattern}\t{digest}")
    return "\n".join(lines) + "\n"


def test_census_candidates_match_golden_listing():
    # two different models can give the same table row, so the models the
    # census builds are pinned one by one
    golden = (GOLDEN_DIR / "census_candidates.txt").read_text(encoding="utf-8")
    assert _candidate_listing() == golden


def test_census_is_deterministic():
    first = census(2, 3).to_text()
    second = census(2, 3).to_text()
    assert first == second
    assert census(3, 3).to_tsv() == census(3, 3).to_tsv()


def test_census_rows_all_chi_one():
    for r in (2, 3, 4):
        for row in census(r, 3).rows:
            assert row.chi == 1


def test_census_r4_rows_carry_three_pencil_lines():
    table = census(4, 3)
    assert table.rows
    for row in table.rows:
        assert "pencil triple" in row.pattern
        assert row.label.startswith("Prop4.12/")


@pytest.mark.parametrize(("r", "max_degree"), [(2, 3), (2, 7), (3, 7)])
def test_census_deduplicates_reduction_equivalent_patterns(r, max_degree):
    # the multiplicity-(d-1) odd curves reduce to the d=1 normal form: each
    # recipe's record has the key of the d=1 pattern, so its pattern is
    # folded into that single row
    table = census(r, max_degree)
    d1_rows = [row for row in table.rows if "d=1" in row.label]
    assert len(d1_rows) == 1
    patterns = {row.pattern for row in table.rows}
    candidates = dict(census_mod._candidates(r, max_degree))
    stem = {2: "pencil pair", 3: "pencil triple"}[r] + " + odd curve"
    normal_form = f"{stem} d=1 mult=0"
    assert normal_form in patterns
    key = census_mod._shape_key(to_record(candidates[normal_form]))
    for k in range(3, max_degree + 1, 2):
        pattern = f"{stem} d={k} mult={k - 1}"
        assert pattern not in patterns
        label = classify(candidates[pattern])
        assert census_mod._shape_key(label.reduce()[0]) == key, pattern


def test_census_bounds():
    with pytest.raises(DomainError):
        census(5, 3)
    with pytest.raises(DomainError):
        census(2, 8)


def test_shape_key_of_a_record_matches_the_model_reference():
    # every census pattern and its reduction: the key read off the record
    # equals the key of the model built from it
    reduced = 0
    for r in (2, 3, 4):
        for _, model in census_mod._candidates(r, 7):
            record = to_record(model)
            assert census_mod._shape_key(record) == reference_shape_key(model)
            label = classify(model)
            if label.reduce is not None:
                record = label.reduce()[0]
                assert census_mod._shape_key(record) == reference_shape_key(build_model(record))
                reduced += 1
    assert reduced == 6


def test_census_does_no_more_work_than_recorded():
    # counts, not timings, guard the census pipeline: per rank, the models
    # built, the subgroup eliminations, resolve's blow-ups and the Cremona
    # moves of one degree-7 census may not rise above the recorded counts
    lines = (GOLDEN_DIR / "census_counts.txt").read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines if not line.startswith("#")]
    assert [row[0] for row in rows] == ["2", "3", "4"]
    for r, *recorded in rows:
        counts = census_counts(int(r))
        over = [what for what, n, limit in zip(CENSUS_COUNTED, counts, recorded) if n > int(limit)]
        assert not over, (r, counts, recorded)
