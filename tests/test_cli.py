import argparse
import ast
import codecs
import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecover import cli, config
from planecover.classify import classify, cremona_reduce, match_del_pezzo
from planecover.cli import main
from planecover.errors import ParityError

from conftest import COUNTED, FIXTURE_DIR, GOLDEN_DIR, construction_counts, fixture_text


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


def _prop55_with_a_taken_name(clash):
    text = fixture_text("prop55")
    if clash == "curve named aux1":  # the name of the recipe's fresh point
        return text.replace("lineB", "aux1")
    # a point the blown-up aux1's exceptional curve would be named after
    text = text.replace("xi = point\n", "xi = point\nE_aux1 = point\n")
    text = text.replace("mult(xi) = 1\nlineA", "mult(xi) = 1, mult(E_aux1) = 1\nlineA")
    return text.replace(
        "lineB = degree 1, mult(eta) = 1", "lineB = degree 1, mult(eta) = 1, mult(E_aux1) = 1"
    )


@pytest.mark.parametrize("clash", ["curve named aux1", "point named E_aux1"])
def test_reduce_names_nothing_the_document_already_names(capsys, tmp_path, clash):
    doc = tmp_path / "doc.cfg"
    doc.write_text(_prop55_with_a_taken_name(clash), encoding="utf-8")
    code, out, _ = run(capsys, "classify", "--input", str(doc))
    assert code == 0 and out.startswith("Prop5.5/4.222")
    code, out, err = run(capsys, "reduce", "--input", str(doc))
    assert code == 0, err
    reduced = tmp_path / "reduced.cfg"
    reduced.write_text("".join(line for line in out.splitlines(True) if not line.startswith("#")))
    code, out, err = run(capsys, "validate", "--input", str(reduced))
    assert code == 0 and err == ""
    assert "totally_ramified = true" in out


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


@pytest.fixture
def built(monkeypatch):
    """The ``prog`` of every argument parser built from now on, with the
    cached parser dropped, so the first list that is not plain builds it."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._parser.cache_clear()
    return progs


def test_parser_is_built_once(capsys, built):
    # plain calls build no parser; the first usage error builds it, with its
    # subcommands, and a second usage error and help reuse it
    assert main(["validate", "--input", fixture("prop53")]) == 0
    assert main(["classify", "--input", fixture("prop51")]) == 0
    assert main(["census", "--r", "2", "--max-degree", "3"]) == 0
    assert built == []
    for argv in (["validate"], ["census", "--r", "x", "--max-degree", "3"], ["validate", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == ["planecover", *(f"planecover {name}" for name in cli.OPTIONS)]


def test_main_reads_sys_argv_on_the_plain_path(capsys, monkeypatch, built):
    monkeypatch.setattr("sys.argv", ["planecover", "validate", "--input", fixture("prop53")])
    assert main() == 0
    assert capsys.readouterr().out.startswith("totally_ramified = true\n")
    assert built == []


def _argparse_reads(argv):
    """``vars()`` of ``_parser().parse_args(argv)``, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


#: option -> values argparse takes for it
GOOD_VALUES = {
    "--input": ("x.cfg", "dir/doc.cfg", "-", ""),
    "--format": ("text", "tsv"),
    "--r": ("2", " 3", "٣"),
    "--max-degree": ("2", " 3", "٣"),
}
ARGUMENT_TOKENS = (
    *GOOD_VALUES,
    *("--inp", "--form", "--max", "--m", "--input=x", "-h", "--", "-", "-1", " 3", "٣", ""),
    *("text", "tsv", "csv", "2", "x.cfg", "dir/doc.cfg"),
)


@st.composite
def argument_lists(draw):
    """Argument lists of length 0-7: a command, or an unknown one, and its
    own options in any order with values argparse mostly takes, each of the
    three changes (drop options, add another, put in or take out a token)
    made one time in four; so plain lists and near misses are both drawn."""
    if draw(st.integers(0, 20)) == 0:
        return []
    sometimes = st.sampled_from((False, False, False, True))
    command = draw(st.sampled_from((*cli.OPTIONS, "bogus")))
    options = draw(st.permutations(tuple(cli.OPTIONS.get(command, ("--input",)))))
    if draw(sometimes):
        options = options[: draw(st.integers(0, len(options)))]
    if draw(sometimes):
        options.insert(draw(st.integers(0, len(options))), draw(st.sampled_from(tuple(GOOD_VALUES))))
    argv = [command]
    for option in options:
        argv += [option, draw(st.sampled_from(GOOD_VALUES[option]) | st.sampled_from(ARGUMENT_TOKENS))]
    if draw(sometimes):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(at, draw(st.sampled_from(ARGUMENT_TOKENS)))
        else:
            del argv[at - 1 : at]
    return argv[:7]


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(argument_lists())
def test_plain_reader_agrees_with_argparse(argv):
    plain = cli._read_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--input", "-"],
        ["validate", "--input", ""],
        ["invariants", "--format", "tsv", "--input", "x.cfg"],
        ["invariants", "--input", "x.cfg"],
        ["census", "--max-degree", "3", "--r", "2"],
        ["census", "--r", "٣", "--max-degree", " 3", "--format", "tsv"],
    ],
)
def test_plain_lists_read_as_argparse_reads_them(argv):
    plain = cli._read_plain(argv)
    assert plain is not None and vars(plain) == _argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["validate", "--inp", "x.cfg"], id="abbreviation"),
        pytest.param(["validate", "--input=x.cfg"], id="option=value"),
        pytest.param(["validate", "--input", "x.cfg", "--input", "y.cfg"], id="repeat"),
        pytest.param(["validate", "-h"], id="-h"),
        pytest.param(["validate", "--input", "x.cfg", "--help"], id="--help"),
        pytest.param(["validate"], id="missing-input"),
        pytest.param(["census", "--r", "2"], id="missing-max-degree"),
        pytest.param(["validate", "--input", "-x"], id="dash-value"),
        pytest.param(["census", "--r", "-1", "--max-degree", "3"], id="negative-value"),
        pytest.param(["validate", "--input", "--"], id="double-dash"),
        pytest.param(["invariants", "--input", "x.cfg", "--format", "csv"], id="bad-choice"),
        pytest.param(["census", "--r", "x", "--max-degree", "3"], id="bad-int"),
        pytest.param(["validate", "--input", "x.cfg", "--format", "tsv"], id="other-option"),
        pytest.param(["bogus", "--input", "x.cfg"], id="unknown-command"),
        pytest.param([], id="empty"),
    ],
)
def test_lists_that_are_not_plain_go_to_argparse(argv):
    assert cli._read_plain(argv) is None


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # usage errors and help go to the streams current at the call
    with pytest.raises(SystemExit) as exited:
        main(["validate"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: planecover validate [-h] --input INPUT")
    assert "error: the following arguments are required: --input" in captured.err
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exited:
            main(["validate", "--help"])
        assert exited.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    assert helps[0].out.startswith("usage: planecover validate") and helps[0].err == ""
    code, out, err = run(capsys, "validate", "--input", fixture("prop53"))
    assert (code, err) == (0, "")
    assert "totally_ramified = true" in out


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
    "component": ("[cover]\nr = 2\n[components]\nA = degree 1\nA = degree 1\n[branch]\n10 = A\n",
                  "5:1: duplicate name 'A'"),
    "element": ("[cover]\nr = 2\n[components]\nA = degree 1\nB = degree 1\nC = degree 1\n"
                "[branch]\n10 = A\n01 = B\n11 = C\n11 = C\n",
                "11:1: duplicate branch element '11'"),
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


def test_resolve_and_invariants_check_parity_first(capsys, tmp_path):
    # a document with no cover gets no resolution and no invariants
    doc = tmp_path / "odd.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[components]\nA = degree 1\nB = degree 2\n\n"
        "[branch]\n10 = A\n01 = B\n",
        encoding="utf-8",
    )
    expected = run(capsys, "validate", "--input", str(doc))
    assert expected[0] == 3 and expected[2].startswith("error[parity]: ")
    for command in ("resolve", "invariants"):
        assert run(capsys, command, "--input", str(doc)) == (3, "", expected[2])


def test_cover_commands_stop_at_the_first_error_of_validate():
    # every document of the outputs digest (fixtures, 400 seeded random
    # documents, the mutants of both, the documents that are not totally
    # ramified and the adversarial ones) that validate rejects gets the same
    # stderr line and exit code from resolve, invariants, classify and
    # reduce, with nothing on stdout
    import outputs_digest

    documents = [
        (description, stdin)
        for description, argv, stdin in outputs_digest.calls()
        if argv[0] == "validate" and stdin is not None
    ]
    rejected = Counter()
    for description, stdin in documents:
        code, out, err, failure = outputs_digest.run(["validate", "--input", "-"], stdin)
        assert failure is None, description
        if code == 0:
            continue
        assert out == "" and err.startswith("error["), description
        rejected[err[: err.index("]") + 1], code] += 1
        for command in ("resolve", "invariants", "classify", "reduce"):
            got = outputs_digest.run([command, "--input", "-"], stdin)
            assert got == (code, "", err, None), (description, command)
    # 118 fixture mutants: two of the 120 drawn repeat an earlier one; the
    # adversarial documents of a long number, an unwritable name and a byte
    # that is not UTF-8 end in error[config]
    assert len(documents) == 400 + 118 + 200 + 6 + 5
    assert rejected == {
        ("error[config]", 2): 209 + 3,
        ("error[parity]", 3): 84,
        ("error[geometry]", 4): 26,
        ("error[no-match]", 5): 5,
    }


def test_outputs_digest_calls_are_unique():
    import outputs_digest

    descriptions = [description for description, _, _ in outputs_digest.calls()]
    assert len(descriptions) == len(set(descriptions)) == 4493 + 30


def test_digest_documents_that_are_not_totally_ramified():
    # every command after normalize checks parity, then total ramification:
    # the document of odd parity ends in error[parity], the others in
    # error[no-match]; normalize checks neither
    import outputs_digest

    for name, document in outputs_digest.NOT_TOTALLY_RAMIFIED.items():
        for command in ("validate", "resolve", "invariants", "classify", "reduce"):
            code, out, err, _ = outputs_digest.run([command, "--input", "-"], document)
            if name == "odd-line-in-11":
                assert (code, out) == (3, "") and err.startswith("error[parity]: "), command
            else:
                assert (code, out, err) == (5, "", "error[no-match]: not totally ramified\n"), (
                    name,
                    command,
                )
        code, _, err, _ = outputs_digest.run(["normalize", "--input", "-"], document)
        assert (code, err) == (0, ""), name
    model = config.parse(outputs_digest.NOT_TOTALLY_RAMIFIED["odd-line-in-11"])
    for match_or_reduce in (classify, match_del_pezzo, cremona_reduce):
        with pytest.raises(ParityError):
            match_or_reduce(model)


def test_resolve_and_invariants_build_only_the_document_model(capsys, tmp_path, monkeypatch):
    from planecover.cover import CoverModel
    from test_invariants import line_arrangement

    doc = tmp_path / "arrangement.cfg"
    doc.write_text(config.write(line_arrangement(8)), encoding="utf-8")
    expected = config.parse(doc.read_text(encoding="utf-8"))
    builds = []
    post_init = CoverModel.__post_init__

    def counting(model):
        builds.append(model)
        post_init(model)

    monkeypatch.setattr(CoverModel, "__post_init__", counting)
    for command, last in (("resolve", '{"rounds": 2, "smooth": true}'), ("invariants", "resolution_rounds = 2")):
        builds.clear()
        code, out, _ = run(capsys, command, "--input", str(doc))
        assert (code, out.splitlines()[-1]) == (0, last)
        assert builds == [expected]


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


@pytest.mark.parametrize("command", ["validate", "normalize", "resolve", "classify", "reduce"])
def test_format_is_an_option_of_invariants_and_census_only(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--input", fixture("prop53"), "--format", "tsv"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: planecover [-h]")
    assert captured.err.endswith("planecover: error: unrecognized arguments: --format tsv\n")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--format" not in capsys.readouterr().out


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


THREE_LINES = (
    "[cover]\nr = 2\n[components]\nA = degree 1\nB = degree 1\nC = degree 1\n"
    "[branch]\n10 = A\n01 = B\n11 = C\n"
)
VALIDATED = "totally_ramified = true\nparity = ok\nprod_relations = ok (16 pairs)\n"


def test_byte_order_mark_file_is_read_without_it(capsys, tmp_path):
    doc = tmp_path / "bom.cfg"
    doc.write_bytes(codecs.BOM_UTF8 + THREE_LINES.encode("utf-8"))
    assert run(capsys, "validate", "--input", str(doc)) == (0, VALIDATED, "")


def test_byte_order_mark_on_stdin_is_read_without_it(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(codecs.BOM_UTF8 + THREE_LINES.encode("utf-8")), "utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(capsys, "validate", "--input", "-") == (0, VALIDATED, "")


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_undecodable_stdin_is_a_config_error(capsys, monkeypatch, errors):
    stdin = io.TextIOWrapper(io.BytesIO(b"[cover]\nr = 2\n" + UNDECODABLE), "utf-8", errors)
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, "validate", "--input", "-")
    assert code == 2
    assert err.startswith("error[config]: 3:1: input is not UTF-8 text")


#: (document, position of its byte 0xff): columns count characters, so the
#: byte after "r = é" is in column 6, not 7; a leading byte-order mark is not
#: counted, and lines break as ``config.parse`` breaks them, at a lone "\r" too
ACCENTED = [
    pytest.param("[cover]\nr = é".encode("utf-8") + b"\xff\n", "2:6", id="line-2"),
    pytest.param(codecs.BOM_UTF8 + "r = é".encode("utf-8") + b"\xff\n", "1:6", id="mark"),
    pytest.param("[cover]\r\nr = 2\rA = é".encode("utf-8") + b"\xff\n", "3:6", id="lone-cr"),
]


@pytest.mark.parametrize("data, position", ACCENTED)
def test_undecodable_file_reports_the_character_column(capsys, tmp_path, data, position):
    doc = tmp_path / "accented.cfg"
    doc.write_bytes(data)
    code, _, err = run(capsys, "validate", "--input", str(doc))
    assert code == 2
    assert err.startswith(f"error[config]: {position}: input is not UTF-8 text")


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
@pytest.mark.parametrize("data, position", ACCENTED)
def test_undecodable_stdin_reports_the_character_column(capsys, monkeypatch, errors, data, position):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors))
    code, _, err = run(capsys, "validate", "--input", "-")
    assert code == 2
    assert err.startswith(f"error[config]: {position}: input is not UTF-8 text")


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
    assert len(config.parse(out).marked) == 1100
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


@pytest.mark.parametrize("clauses", ["degree 0", "degree 0, mult(p) = 1", "degree 00, reducible"])
def test_degree_zero_is_a_positioned_config_error(capsys, tmp_path, clauses):
    # a plane curve has degree at least 1; the parser says where it is not
    doc = tmp_path / "degree0.cfg"
    doc.write_text(
        "[cover]\nr = 2\n\n[centers]\np = point\n\n[components]\n"
        f"A = {clauses}\nB = degree 1\nC = degree 1\n\n[branch]\n10 = A\n01 = B\n11 = C\n",
        encoding="utf-8",
    )
    value = clauses.split(",")[0].split()[1]
    for command in DOCUMENT_COMMANDS:
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, out) == (2, ""), command
        # like a bad degree, the component is not declared, so its branch
        # entry is a second problem
        assert err == (
            f"error[config]: 8:1: degree must be at least 1 for component 'A', got {value}; "
            "13:1: branch references undeclared component 'A'\n"
        ), command


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


def test_automatic_points_skip_declared_names(capsys, tmp_path):
    # the lines A and B in 10 cross at an undeclared point, which resolve
    # names by the first free sing<i>; a declared sing1 on no curve is taken
    text = (
        "[cover]\nr = 2\n\n[centers]\n{point} = point\n\n[components]\n"
        "A = degree 1\nB = degree 1\nC = degree 2\nD = degree 2\n\n"
        "[branch]\n01 = C\n10 = A, B\n11 = D\n"
    )
    found = {}
    for point in ("sing1", "q1"):
        doc = tmp_path / f"{point}.cfg"
        doc.write_text(text.format(point=point), encoding="utf-8")
        code, out, err = run(capsys, "invariants", "--input", str(doc))
        assert (code, err) == (0, "")
        found[point] = [
            line for line in out.splitlines() if line.startswith(("chi", "k2", "resolution_rounds"))
        ]
    assert found["sing1"] == found["q1"] == ["chi = 1", "k2 = 0", "resolution_rounds = 1"]


@pytest.mark.parametrize("command", ["validate", "normalize", "classify"])
@pytest.mark.parametrize("key", ["100", "11111", "1"])
@pytest.mark.parametrize("cover_first", [True, False])
def test_branch_key_length_is_checked_in_either_section_order(
    capsys, tmp_path, cover_first, key, command
):
    cover = "[cover]\nr = 2\n"
    rest = f"[components]\nA = degree 1\nB = degree 1\n[branch]\n{key} = A, B\n"
    text = cover + rest if cover_first else rest + cover
    line = text.splitlines().index(f"{key} = A, B") + 1
    doc = tmp_path / "order.cfg"
    doc.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--input", str(doc))
    problem = f"{line}:1: group element {key!r} has length {len(key)}, expected 2"
    assert (code, out, err) == (2, "", f"error[config]: {problem}\n")


README = Path(__file__).parent.parent / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs_and_shows_its_values(monkeypatch):
    # each line whose comment is a Python literal shows that value
    monkeypatch.chdir(README.parent)
    namespace = {}
    shown = 0
    for line in readme_block("Library use", "python").splitlines():
        code, _, comment = line.partition("  # ")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(line, namespace)
            continue
        assert eval(code, namespace) == expected, line
        shown += 1
    assert shown == 4


def test_readme_example_is_the_cli_output(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    runs = readme_block("Example", "sh").strip().split("\n\n")
    assert len(runs) == 2
    for text in runs:
        command, *expected = text.splitlines()
        assert command.startswith("$ planecover ")
        got = run(capsys, *command.split()[2:])
        assert got == (0, "\n".join(expected) + "\n", ""), command


def test_document_commands_build_no_more_than_recorded():
    # construction counts, not timings, guard the read path: per fixture and
    # document command, the parse calls and the models, components and
    # centers built may not rise above the recorded counts
    lines = (GOLDEN_DIR / "construction_counts.txt").read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines if not line.startswith("#")]
    assert len(rows) == 12 * len(cli.COMMANDS)
    for name, command, *recorded in rows:
        counts = construction_counts([command, "--input", fixture(name)])
        over = [what for what, n, limit in zip(COUNTED, counts, recorded) if n > int(limit)]
        assert not over, (name, command, counts, recorded)
