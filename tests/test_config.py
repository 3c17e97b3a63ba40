import pytest

from planecover import config
from planecover.errors import ConfigError

from conftest import FIXTURE_DIR, fixture_text


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        text = path.read_text(encoding="utf-8")
        doc = config.parse(text)
        assert doc.serialize() == text, path.name
        model = doc.to_cover()
        assert config.from_cover(model).serialize() == text, path.name


def test_parse_prop59_document():
    doc = config.parse(fixture_text("prop59"))
    assert doc.r == 4
    assert sorted(doc.branch) == ["0001", "0010", "0100", "1000", "1111"]
    assert len(doc.components) == 5


def test_non_binary_branch_key():
    text = "[cover]\nr = 2\n[components]\nA = degree 1\n[branch]\n1a = A\n"
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    assert any("non-binary group element" in msg for _, _, msg in err.value.problems)


def test_wrong_length_branch_key():
    text = "[cover]\nr = 2\n[components]\nA = degree 1\n[branch]\n101 = A\n"
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    line, _, msg = err.value.problems[0]
    assert line == 6 and "length" in msg


def test_undeclared_center_is_positioned():
    text = (
        "[cover]\nr = 2\n\n[centers]\np = point\n\n[components]\n"
        "A = degree 1, mult(q) = 1\n\n[branch]\n10 = A\n"
    )
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    line, col, msg = err.value.problems[0]
    assert (line, col) == (8, 1)
    assert "undeclared center 'q'" in msg


def test_undeclared_component_in_branch():
    text = "[cover]\nr = 2\n[components]\nA = degree 1\n[branch]\n10 = B\n"
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    assert any("undeclared component 'B'" in msg for _, _, msg in err.value.problems)


def test_missing_r():
    with pytest.raises(ConfigError) as err:
        config.parse("[components]\nA = degree 1\n")
    assert any("missing required key 'r'" in msg for _, _, msg in err.value.problems)


def test_branch_multiplicities_and_comments():
    text = (
        "[cover]\nr = 2  # rank\n\n[centers]\np = point\n\n[components]\n"
        "A = degree 1, mult(p) = 1\nB = degree 2, reducible\n\n"
        "[branch]\n10 = A\n01 = B, A*2\n"
    )
    doc = config.parse(text)
    assert doc.branch["01"] == [("B", 1), ("A", 2)]
    assert not doc.components[1].irreducible
    model = doc.to_cover()
    assert model.component("B").irreducible is False


def test_unknown_parent_center():
    text = "[cover]\nr = 2\n[centers]\ny = near x\n"
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    assert any("unknown parent center 'x'" in msg for _, _, msg in err.value.problems)


def test_multiple_problems_collected():
    text = "junk\n[weird]\n[cover]\nr = 9\n[branch]\n00 = A\n"
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    messages = [msg for _, _, msg in err.value.problems]
    assert any("outside any section" in m for m in messages)
    assert any("unknown section" in m for m in messages)
    assert any("between 1 and 4" in m for m in messages)
    assert len(messages) >= 3


def test_pencil_must_be_declared():
    text = "[cover]\nr = 2\npencil = p\n[components]\nA = degree 2\n[branch]\n10 = A\n"
    with pytest.raises(ConfigError):
        config.parse(text)


@pytest.mark.parametrize("value", ["5", "0", "²"])
def test_out_of_range_r_is_one_problem(value):
    # a present but invalid r is a range error, not also a missing key
    text = f"[cover]\nr = {value}\n[components]\nA = degree 1\n[branch]\n10 = A\n"
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    assert err.value.problems == [(2, 1, f"r must be an integer between 1 and 4, got {value!r}")]


def test_repeated_branch_entries_stay_legal():
    text = "[cover]\nr = 2\n[components]\nA = degree 1\nB = degree 1\n[branch]\n10 = A, A\n01 = B\n"
    assert config.parse(text).branch == {"10": [("A", 1), ("A", 1)], "01": [("B", 1)]}
