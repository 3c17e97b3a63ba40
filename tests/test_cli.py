import io
import json

import pytest

from planecover import config
from planecover.cli import main

from conftest import FIXTURE_DIR, GOLDEN_DIR, fixture_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURE_DIR / f"{name}.cfg")


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--input", fixture("prop59"))
    assert code == 0
    assert "totally_ramified = true" in out
    assert "parity = ok" in out
    assert "prod_relations = ok (256 pairs)" in out


def test_invariants_prop53(capsys):
    code, out, _ = run(capsys, "invariants", "--input", fixture("prop53"))
    assert code == 0
    assert "chi = 1" in out and "k2 = 1" in out
    assert "verdict = rational" in out


def test_invariants_resolves_first(capsys):
    code, out, _ = run(capsys, "invariants", "--input", fixture("prop51"))
    assert code == 0
    assert "chi = 1" in out and "k2 = -4" in out
    assert "resolution_rounds = 2" in out


def test_classify_prop57(capsys):
    code, out, _ = run(capsys, "classify", "--input", fixture("prop57"))
    assert code == 0
    assert out.splitlines()[0] == "Prop5.7/2.G22"


def test_classify_not_totally_ramified(capsys, tmp_path):
    doc = tmp_path / "partial.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[centers]\np = point\n\n[components]\n"
        "lineA = degree 1, mult(p) = 1\nlineB = degree 1, mult(p) = 1\n\n"
        "[branch]\n11 = lineA, lineB\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "classify", "--input", str(doc))
    assert code == 5
    assert "error[no-match]: not totally ramified" in err


def test_parse_error_exit_code(capsys, tmp_path):
    doc = tmp_path / "bad.cfg"
    doc.write_text("[cover]\nr = 2\n[components]\nA = degree 1\n[branch]\n112 = A\n")
    code, _, err = run(capsys, "classify", "--input", str(doc))
    assert code == 2
    assert "error[config]" in err and "non-binary group element" in err


@pytest.mark.parametrize("idle", ["a", "z"])
def test_tacnode_reduction_blames_the_idle_direction_whatever_its_name(capsys, tmp_path, idle):
    # the move is based at the tacnodal tangent the matcher found, so an
    # extra direction at the tacnode is the one the move would orphan
    doc = tmp_path / "idle.cfg"
    doc.write_text(fixture_text("prop51").replace("y = near x\n", f"y = near x\n{idle} = near x\n"))
    code, out, err = run(capsys, "reduce", "--input", str(doc))
    assert (code, out) == (4, "")
    assert err == (
        f"error[geometry]: base point 'x' carries infinitely near points ['{idle}'] "
        "that the move would orphan\n"
    )


REPEATED_KEYS = {
    "r": ("[cover]\nr = 2\nr = 3\n[components]\nA = degree 1\n[branch]\n10 = A\n",
          "3:1: duplicate [cover] key 'r'"),
    "pencil": ("[cover]\nr = 2\npencil = p\npencil = q\n[centers]\np = point\nq = point\n"
               "[components]\nA = degree 1\n[branch]\n10 = A\n",
               "4:1: duplicate [cover] key 'pencil'"),
    "degree": ("[cover]\nr = 2\n[components]\nA = degree 2, degree 4\n[branch]\n10 = A\n",
               "4:1: duplicate degree clause for component 'A'"),
    # the second clause would hide that m = d needs a reducible curve
    "mult": ("[cover]\nr = 2\n[centers]\np = point\n[components]\n"
             "A = degree 2, mult(p) = 2, mult(p) = 1\n[branch]\n10 = A\n",
             "6:1: duplicate mult(p) clause for component 'A'"),
}


@pytest.mark.parametrize("repeated", sorted(REPEATED_KEYS))
def test_repeated_key_or_clause_is_one_positioned_problem(capsys, tmp_path, repeated):
    text, problem = REPEATED_KEYS[repeated]
    doc = tmp_path / "repeated.cfg"
    doc.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--input", str(doc))
    assert (code, out, err) == (2, "", f"error[config]: {problem}\n")


def test_parity_error_exit_code(capsys, tmp_path):
    doc = tmp_path / "odd.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[components]\nA = degree 1\nB = degree 2\n\n"
        "[branch]\n10 = A\n01 = B\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "validate", "--input", str(doc))
    assert code == 3
    assert "error[parity]" in err


def test_resolve_trail_json(capsys):
    code, out, _ = run(capsys, "resolve", "--input", fixture("prop51"))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1] == {"rounds": 2, "smooth": True}
    assert lines[0]["round"] == 1 and lines[0]["blown"] == ["x"]
    assert lines[1]["blown"] == ["y"]


def test_normalize_emits_canonical_document(capsys):
    code, out, _ = run(capsys, "normalize", "--input", fixture("prop53"))
    assert code == 0
    assert out == (FIXTURE_DIR / "prop53.cfg").read_text(encoding="utf-8")


def test_normalize_rewrites_shared_components(capsys, tmp_path):
    doc = tmp_path / "raw.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[components]\nA = degree 1\nB = degree 1\nE = degree 3\n\n"
        "[branch]\n10 = A, E\n01 = B, E\n11 = E*2\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "normalize", "--input", str(doc))
    assert code == 0
    # E sits in 10 and 01, so it migrates to 11 where its double was erased
    assert "11 = E" in out
    assert "10 = A" in out and "01 = B" in out


def test_reduce_emits_trail_and_document(capsys):
    code, out, _ = run(capsys, "reduce", "--input", fixture("prop44_unreduced"))
    assert code == 0
    assert out.count("# move") == 3
    assert "[branch]" in out


def test_census_golden_via_cli(capsys):
    code, out, _ = run(capsys, "census", "--r", "2", "--max-degree", "3")
    assert code == 0
    assert out == (GOLDEN_DIR / "census_r2_maxdeg3.txt").read_text(encoding="utf-8")


def test_census_tsv_format(capsys):
    code, out, _ = run(capsys, "census", "--r", "2", "--max-degree", "1", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "pattern\tlabel\tchi\tk2"


def test_invariants_tsv(capsys):
    code, out, _ = run(capsys, "invariants", "--input", fixture("prop53"), "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chi\tk2\tbicanonical\tverdict"
    assert lines[1] == "1\t1\t-H\trational"


def test_census_bounds_exit_code(capsys):
    code, _, err = run(capsys, "census", "--r", "5", "--max-degree", "3")
    assert code == 4
    assert "error[domain]" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--input", "/nonexistent/file.cfg")
    assert code == 2
    assert "error[io]" in err


UNDECODABLE = b"\xff\xfe[cover]\n"


def test_undecodable_file_is_a_config_error(capsys, tmp_path):
    doc = tmp_path / "bad.cfg"
    doc.write_bytes(UNDECODABLE)
    code, _, err = run(capsys, "validate", "--input", str(doc))
    assert code == 2
    assert err.startswith("error[config]: 1:1: input is not UTF-8 text")


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_undecodable_stdin_is_a_config_error(capsys, monkeypatch, errors):
    stdin = io.TextIOWrapper(io.BytesIO(b"[cover]\nr = 2\n" + UNDECODABLE), "utf-8", errors)
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, "validate", "--input", "-")
    assert code == 2
    assert err.startswith("error[config]: 3:1: input is not UTF-8 text")


def test_normalize_deep_chain_of_near_points(capsys, tmp_path):
    centers = ["x0 = point"] + [f"x{i} = near x{i - 1}" for i in range(1, 1100)]
    lines = ["A = degree 1", "B = degree 1", "C = degree 1"]
    branch = ["10 = A", "01 = B", "11 = C"]
    text = "\n".join(["[cover]", "r = 2", "[centers]", *centers, "[components]", *lines,
                      "[branch]", *branch]) + "\n"
    doc = tmp_path / "deep.cfg"
    doc.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "normalize", "--input", str(doc))
    assert (code, err) == (0, "")
    assert len(config.parse(out).centers) == 1100
    doc.write_text(out, encoding="utf-8")
    assert run(capsys, "normalize", "--input", str(doc)) == (0, out, "")


IMPOSSIBLE_MULTIPLICITY = (
    "[cover]\nr = 2\n\n[centers]\nx = point\n\n[components]\n"
    "lineA = degree 1, mult(x) = 3\nlineB = degree 1\nlineC = degree 1\n\n"
    "[branch]\n10 = lineA\n01 = lineB\n11 = lineC\n"
)


@pytest.mark.parametrize("command", ["validate", "invariants"])
def test_multiplicity_above_degree_is_a_geometry_error(capsys, tmp_path, command):
    doc = tmp_path / "mult3.cfg"
    doc.write_text(IMPOSSIBLE_MULTIPLICITY, encoding="utf-8")
    code, out, err = run(capsys, command, "--input", str(doc))
    assert (code, out) == (4, "")
    assert err == "error[geometry]: component 'lineA' of degree 1 cannot have multiplicity 3 at 'x'\n"


@pytest.mark.parametrize("command", ["validate", "invariants"])
def test_full_multiplicity_needs_a_reducible_curve(capsys, tmp_path, command):
    conic = "conic = degree 2, mult(x) = 2"
    text = (
        "[cover]\nr = 2\n\n[centers]\nx = point\n\n[components]\n"
        f"{conic}\nlineA = degree 1\nlineB = degree 1\nlineC = degree 1\nlineD = degree 1\n\n"
        "[branch]\n10 = lineA, lineB\n01 = conic\n11 = lineC, lineD\n"
    )
    doc = tmp_path / "conic.cfg"
    doc.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--input", str(doc))
    assert (code, out) == (4, "")
    assert err.startswith("error[geometry]: component 'conic' of degree 2 has multiplicity 2 at 'x'")
    doc.write_text(text.replace(conic, conic + ", reducible"), encoding="utf-8")
    code, _, err = run(capsys, command, "--input", str(doc))
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["validate", "invariants"])
def test_proximity_violation_is_a_geometry_error(capsys, tmp_path, command):
    # the conic passes once through x but through two directions at x
    doc = tmp_path / "proximity.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[centers]\nx = point\ny = near x\nw = near x\n\n[components]\n"
        "conic = degree 2, mult(x) = 1, mult(y) = 1, mult(w) = 1\n"
        "lineA = degree 1\nlineB = degree 1\nlineC = degree 1\nlineD = degree 1\n\n"
        "[branch]\n10 = lineA, lineB\n01 = conic\n11 = lineC, lineD\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, command, "--input", str(doc))
    assert (code, out) == (4, "")
    assert err == (
        "error[geometry]: component 'conic' has multiplicity 1 at 'x' "
        "but 2 at the points infinitely near it\n"
    )


@pytest.mark.parametrize("command", ["validate", "invariants", "classify"])
def test_infinitely_near_pencil_point_is_a_geometry_error(capsys, tmp_path, command):
    doc = tmp_path / "pencil.cfg"
    doc.write_text(
        "[cover]\nr = 2\npencil = y\n\n[centers]\nx = point\ny = near x\n\n[components]\n"
        "conic = degree 2, mult(x) = 1, mult(y) = 1\n"
        "quartic = degree 4, mult(x) = 2, mult(y) = 2\n\n"
        "[branch]\n01 = conic\n10 = quartic\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, command, "--input", str(doc))
    assert (code, out) == (4, "")
    assert err == "error[geometry]: pencil point 'y' is infinitely near 'x'\n"


@pytest.mark.parametrize(
    "cover, component, entry, message",
    [
        ("r = ²", "A = degree 1", "10 = A", "2:1: r must be an integer between 1 and 4, got '²'"),
        ("r = 2", "A = degree ²", "10 = A", "5:1: bad degree '²' for component 'A'"),
        ("r = 2", "A = degree 1", "10 = A*²", "8:1: bad multiplicity in branch entry 'A*²'"),
    ],
    ids=["rank", "degree", "branch-multiplicity"],
)
def test_superscript_digits_are_config_errors(capsys, tmp_path, cover, component, entry, message):
    # str.isdigit accepts superscripts, which int() rejects
    doc = tmp_path / "digits.cfg"
    doc.write_text(
        f"[cover]\n{cover}\n\n[components]\n{component}\n\n[branch]\n{entry}\n", encoding="utf-8"
    )
    for command in ("validate", "normalize", "resolve", "invariants", "classify", "reduce"):
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error[config]: ") and message in err


DOCUMENT_COMMANDS = ("validate", "normalize", "resolve", "invariants", "classify", "reduce")


@pytest.mark.parametrize(
    "centers, components, message",
    [
        (
            "p = point\nq = point",
            "A = degree 1, mult(p) = 1, mult(q) = 1\nB = degree 1, mult(p) = 1, mult(q) = 1\n"
            "C = degree 1",
            "components 'A' and 'B' meet with multiplicity 2 at declared points, "
            "above the product of their degrees 1*1 (Bezout)",
        ),
        (
            # a line tangent to a cubic at p and through q and s: only the
            # direction t at p makes the count exceed 3
            "p = point\nt = near p\nq = point\ns = point",
            "A = degree 3, mult(p) = 1, mult(t) = 1, mult(q) = 1, mult(s) = 1\n"
            "B = degree 1, mult(p) = 1, mult(t) = 1, mult(q) = 1, mult(s) = 1\nC = degree 1",
            "components 'A' and 'B' meet with multiplicity 4 at declared points, "
            "above the product of their degrees 3*1 (Bezout)",
        ),
        (
            "p = point\nq = point",
            "A = degree 3, mult(p) = 2, mult(q) = 2\nB = degree 1\nC = degree 1",
            "component 'A' of degree 3 has declared singularities with sum m(m-1)/2 = 2, "
            "above its arithmetic genus 1; declare it reducible",
        ),
        (
            # a cubic with a tacnode
            "p = point\nt = near p",
            "A = degree 3, mult(p) = 2, mult(t) = 2\nB = degree 1\nC = degree 1",
            "component 'A' of degree 3 has declared singularities with sum m(m-1)/2 = 2, "
            "above its arithmetic genus 1; declare it reducible",
        ),
    ],
    ids=["bezout", "bezout-near", "genus", "genus-near"],
)
def test_impossible_incidences_are_geometry_errors(
    capsys, tmp_path, centers, components, message
):
    doc = tmp_path / "impossible.cfg"
    doc.write_text(
        f"[cover]\nr = 2\n\n[centers]\n{centers}\n\n[components]\n{components}\n\n"
        "[branch]\n10 = A\n01 = B\n11 = C\n",
        encoding="utf-8",
    )
    for command in DOCUMENT_COMMANDS:
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, out, err) == (4, "", f"error[geometry]: {message}\n")


def test_reducible_cubic_may_have_two_double_points(capsys, tmp_path):
    # a conic and a line meet twice: the genus rule binds irreducible curves only
    doc = tmp_path / "reducible.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[centers]\np = point\nq = point\n\n[components]\n"
        "A = degree 3, mult(p) = 2, mult(q) = 2, reducible\nB = degree 1\nC = degree 1\n\n"
        "[branch]\n10 = A\n01 = B\n11 = C\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "validate", "--input", str(doc))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("entry", ["10 = A*", "10 = A*, B", "10 = A* , B"])
def test_empty_branch_multiplicity_is_a_config_error(capsys, tmp_path, entry):
    doc = tmp_path / "star.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[components]\nA = degree 1\nB = degree 1\nC = degree 2\n\n"
        f"[branch]\n{entry}\n11 = C\n",
        encoding="utf-8",
    )
    for command in DOCUMENT_COMMANDS:
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, out) == (2, "")
        assert err == "error[config]: 10:1: bad multiplicity in branch entry 'A*'\n"
