import pytest

from planecover.census import census
from planecover.errors import DomainError

from conftest import GOLDEN_DIR


def test_census_r2_degree1_is_exactly_the_two_line_patterns():
    table = census(2, 1)
    labels = sorted(row.label for row in table.rows)
    assert labels == ["Prop4.2/P1.221&P1.22.1", "Prop4.4/0.22[d=1]"]


@pytest.mark.parametrize("r, max_degree", [(2, 3), (3, 7), (4, 7)])
def test_census_matches_golden_file(r, max_degree):
    golden = (GOLDEN_DIR / f"census_r{r}_maxdeg{max_degree}.txt").read_text(encoding="utf-8")
    assert census(r, max_degree).to_text() == golden


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


def test_census_deduplicates_reduction_equivalent_patterns():
    # the multiplicity-(d-1) shapes reduce to the d=1 normal form and are
    # folded into a single row
    table = census(2, 3)
    d1_rows = [row for row in table.rows if "d=1" in row.label]
    assert len(d1_rows) == 1


def test_census_bounds():
    with pytest.raises(DomainError):
        census(5, 3)
    with pytest.raises(DomainError):
        census(2, 8)
