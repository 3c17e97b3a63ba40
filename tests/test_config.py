import sys

import pytest

from planecover import config
from planecover.cli import main
from planecover.errors import ConfigError

from conftest import FIXTURE_DIR, fixture_text, reference_parse


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


COMMANDS = ("validate", "normalize", "resolve", "invariants", "classify", "reduce")

#: A number of 5,000 digits: above Python's default limit of 4,300 digits
#: for converting text to int.
HUGE = "1" * 5000
#: HUGE as a message echoes it: its first 80 characters, then "..."
CUT = HUGE[:80] + "..."


@pytest.mark.parametrize(
    "text, problem",
    [
        (f"[cover]\nr = {HUGE}\n", f"2:1: r must be an integer between 1 and 4, got '{CUT}'"),
        (
            f"[cover]\nr = 1\n[components]\nA = degree {HUGE}\n",
            f"4:1: bad degree '{CUT}' for component 'A'; 4:1: component 'A' is missing its degree",
        ),
        (
            f"[cover]\nr = 1\n[centers]\np = point\n[components]\nA = degree 1, mult(p) = {HUGE}\n",
            f"6:1: cannot parse component clause '{('mult(p) = ' + HUGE)[:80]}...'",
        ),
        (
            f"[cover]\nr = 1\n[components]\nA = degree 2\n[branch]\n1 = A*{HUGE}\n",
            f"6:1: bad multiplicity in branch entry '{('A*' + HUGE)[:80]}...'",
        ),
    ],
    ids=["r", "degree", "mult", "branch"],
)
def test_overlong_number_is_a_positioned_config_error(tmp_path, capsys, text, problem):
    path = tmp_path / "huge.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error[config]: {problem}\n"


#: A name of 5,001 characters
LONG = "N" + "x" * 5000
_CENTERS = "[cover]\nr = 1\n[centers]\np = point\n"
_COMPONENTS = _CENTERS + "[components]\n"
_BRANCH = _COMPONENTS + "A = degree 2\n[branch]\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"[{'x' * 5000}]\n", id="section"),
        pytest.param(f"[cover]\nr = 1\n{LONG} = 1\n", id="cover-key"),
        pytest.param(f"[cover]\nr = {LONG}\n", id="r"),
        pytest.param(f"[cover]\nr = 1\npencil = {LONG}\n", id="pencil"),
        pytest.param(f"{_CENTERS}1{LONG} = point\n", id="center-name"),
        pytest.param(f"{_CENTERS}{LONG} = point\n{LONG} = point\n", id="duplicate-name"),
        pytest.param(f"{_CENTERS}q = near {LONG}\n", id="parent"),
        pytest.param(f"{_CENTERS}q = {LONG}\n", id="center-value"),
        pytest.param(f"{_COMPONENTS}{LONG} = degree 1, degree 1\n", id="duplicate-degree"),
        pytest.param(f"{_COMPONENTS}{LONG} = degree 0{'0' * 250}\n", id="degree-below-one"),
        pytest.param(f"{_COMPONENTS}A = degree 1, mult({LONG}) = 1\n", id="undeclared-center"),
        pytest.param(
            f"{_CENTERS}{LONG} = point\n[components]\nA = degree 1, mult({LONG}) = 1, "
            f"mult({LONG}) = 1\n",
            id="duplicate-mult",
        ),
        pytest.param(f"{_COMPONENTS}A = degree 1, mult(p) = -{'9' * 250}\n", id="mult-below-one"),
        pytest.param(f"{_COMPONENTS}A = degree 1, {LONG}\n", id="component-clause"),
        pytest.param(f"{_COMPONENTS}{LONG} = reducible\n", id="missing-degree"),
        pytest.param(f"{_BRANCH}{'2' * 5000} = A\n", id="non-binary-key"),
        pytest.param(f"{_BRANCH}1{'0' * 5000} = A\n", id="key-length"),
        pytest.param(f"{_BRANCH}1 = {LONG}\n", id="undeclared-component"),
        pytest.param(f"{_BRANCH}1 = A*{LONG}\n", id="branch-mult"),
    ],
)
def test_every_echo_of_an_overlong_value_is_cut(text):
    # a message echoes at most 80 characters of each value, then "...", as
    # the reference parser does, so none reaches 250 characters
    with pytest.raises(ConfigError) as err:
        config.parse(text)
    assert err.value.problems
    assert all(len(message) < 250 for _, _, message in err.value.problems)
    assert any("..." in message for _, _, message in err.value.problems)
    with pytest.raises(ConfigError) as expected:
        reference_parse(text)
    assert err.value.problems == expected.value.problems


@pytest.mark.parametrize("digits", [config.MAX_DIGITS, config.MAX_DIGITS + 1])
def test_number_length_cap_for_every_number(digits):
    # each number reads up to the cap, with leading zeros, and none beyond it
    one = "0" * (digits - 1) + "1"
    text = (
        f"[cover]\nr = {one}\n[centers]\np = point\n[components]\n"
        f"A = degree {'0' * (digits - 1)}2, mult(p) = {one}\n[branch]\n1 = A*{one}\n"
    )
    if digits > config.MAX_DIGITS:
        with pytest.raises(ConfigError) as err:
            config.parse(text)
        assert [line for line, _, _ in err.value.problems] == [2, 6, 6, 6, 8]
    else:
        doc = config.parse(text)
        assert (doc.r, doc.components[0].degree) == (1, 2)
        assert doc.components[0].mults == {"p": 1} and doc.branch == {"1": [("A", 1)]}


def test_longest_numbers_read_and_print_under_the_lowest_int_limit(tmp_path, capsys):
    # the squares the invariants make of a number at the cap stay below 640
    # digits, the lowest limit Python's int conversion can be set to
    degree = "2" * config.MAX_DIGITS
    text = (
        f"[cover]\nr = 2\n[components]\nA = degree {degree}\nB = degree {degree}\n"
        "[branch]\n10 = A\n01 = B\n"
    )
    path = tmp_path / "longest.cfg"
    path.write_text(text, encoding="utf-8")
    limited = hasattr(sys, "set_int_max_str_digits")  # Python 3.10.7 and later
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
    try:
        codes = [main([command, "--input", str(path)]) for command in COMMANDS]
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert codes == [0, 0, 0, 0, 5, 5], err
    assert f"k2 = {4 * (int(degree) - 3) ** 2}" in out
