"""Fuzzing of the document parser and the document subcommands.

Every generated document, valid or not, must end in a result (exit 0) or a
coded ``error[code]: ...`` line with that code's exit status, never in an
uncaught exception.  The examples are derived from the test source, not
drawn at random, so every run checks the same documents.
"""

import contextlib
import io
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecover import config
from planecover.cli import EXIT_CODES, main
from planecover.cover import plane_cover
from planecover.errors import ConfigError, CoverError
from planecover.normalize import normalize

from conftest import PERFBENCH_DIR, fixture_text, reference_parse

FUZZ = settings(derandomize=True, database=None, deadline=None)
COMMANDS = ("validate", "normalize", "resolve", "invariants", "classify", "reduce")
CODED = re.compile(r"error\[([a-z-]+)\]: ")

WRONG = ["0", "5", "-1", "²", "", "x", "y"]
ALPHABET = "[]=*,#() \n01234rdegpointnearmultABpqx"
#: Replacement text of a local corruption ("" drops a character).
JUNK = ["", "=", "[", "]", "#", "*", ",", "\n", " ", "\x00", "é", "0"]


def mostly(*valid):
    """One of ``valid``, or now and then a malformed value (a middle draw, as
    hypothesis favours the ends of a range)."""
    return st.integers(0, 19).flatmap(lambda n: st.sampled_from(WRONG if n == 13 else valid))


@st.composite
def documents(draw):
    """Documents in the shape of the format, with a field now and then wrong."""
    r = draw(mostly("2", "3", "4", "1"))
    centers = {}
    for name in draw(st.lists(st.sampled_from("pqx"), max_size=3, unique=True)):
        centers[name] = draw(st.none() | mostly(*centers)) if centers else None
    lines = ["[cover]", f"r = {r}"]
    if centers and draw(st.booleans()):
        lines.append(f"pencil = {draw(mostly(*centers))}")
    lines.append("[centers]")
    for name, parent in centers.items():
        lines.append(f"{name} = point" if parent is None else f"{name} = near {parent}")
    lines.append("[components]")
    components = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True))
    for name in components:
        clauses = [f"degree {draw(mostly('1', '2', '3', '4'))}"]
        for point in draw(st.lists(st.sampled_from(sorted(centers)), max_size=2, unique=True)) if centers else ():
            clauses.append(f"mult({point}) = {draw(mostly('1', '1', '2', '3'))}")
        if draw(mostly(False, False, False, True)) is True:
            clauses.append("reducible")
        lines.append(f"{name} = {', '.join(clauses)}")
    lines.append("[branch]")
    width = int(r) if r.isascii() and r.isdigit() and 1 <= int(r) <= 4 else 2
    keys = st.integers(1, 2**width - 1).map(lambda k: format(k, f"0{width}b"))
    for key in draw(st.lists(keys, min_size=1, max_size=4, unique=True)):
        entries = draw(st.lists(st.sampled_from(components), min_size=1, max_size=2))
        parts = [f"{e}*{draw(mostly('2', '3'))}" if draw(st.integers(0, 4)) == 3 else e for e in entries]
        lines.append(f"{key} = {', '.join(parts)}")
    text = "\n".join(lines) + "\n"
    # now and then one local corruption: a character replaced or dropped
    if draw(st.integers(0, 9)) == 7:
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from(JUNK))
        text = text[:at] + junk + text[at + 1 :]
    return text


@st.composite
def fixture_mutants(draw):
    """Fixture documents with one short span replaced by arbitrary text."""
    text = fixture_text(draw(st.sampled_from(["prop42", "prop44", "prop51", "prop53", "prop59"])))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.text(max_size=6)) + text[at + draw(st.integers(0, 8)) :]


@settings(FUZZ, max_examples=60)
@given(st.text(alphabet=ALPHABET, max_size=120) | documents())
def test_parse_ends_in_a_document_or_config_error(text):
    try:
        doc = config.parse(text)
    except ConfigError as exc:
        assert exc.problems
        assert all(line >= 1 and col >= 1 for line, col, _ in exc.problems)
    else:
        assert 1 <= doc.r <= 4


def run_command(command, text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", "-"])
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(FUZZ, max_examples=25)
@given(documents() | fixture_mutants())
def test_document_commands_end_in_a_result_or_a_coded_error(text):
    for command in COMMANDS:
        code, err = run_command(command, text)
        if code == 0:
            assert err == ""
            continue
        match = CODED.match(err)
        assert match, (command, err)
        assert EXIT_CODES[match.group(1)] == code


def parsed_or_problems(parse, text):
    """The document, or the (line, column, message) problems in their order."""
    try:
        return parse(text)
    except ConfigError as exc:
        return exc.problems


#: Line breaks, whitespace and lookalikes that ``splitlines``, ``strip`` and
#: ``isdigit`` treat specially, and whole words of the format, on top of the
#: fuzz alphabet.
SPECIAL = ["\t", "\r\n", "\x0b", "\x1c", "\u2003", "\xa0", "²", "#"]
WORDS = ["[cover]\nr = 2\n", "[centers]\n", "[components]\n", "[branch]\n", "degree ", "mult(p)",
         "reducible"]

#: A number one digit longer than a document may hold.
LONG = "1" * (config.MAX_DIGITS + 1)
#: Whole lines, and parts of lines, for ``line_soup``.
SECTIONS = ["[cover]", "[centers]", "[components]", "[branch]", "[other]", "[Cover]", " [branch] # x",
            "[branch] x"]
PLAIN = ["r = 2", "r = 1", "r=3", "r = 5", "r = ²", "pencil = p", "pencil = z", "x = 1", "p = point",
         "q = near p", "z = near w", "1p = point", "s = line", "p", "= 1", "A = B = C", f"r = {LONG}"]
NAMES = ["A", "B", "C", "A", "2A", "p"]
CLAUSES = ["degree 2", "degree 1", "degree x", "degree", "degree ²", " degree  3 ", "mult(p) = 1",
           "mult(p)=2", "mult(q) = 0", "mult(p) = -1", "mult(degree) = 1", "mult(z) = 1",
           "mult() = 1", "reducible", "reducible2", "", f"degree {LONG}", f"mult(p) = {LONG}"]
KEYS = ["0", "00", "1", "01", "10", "11", "012", "1x", "000", "100"]
ENTRIES = ["A", "B", "A*2", "A *2", "B*", "B*0", "C", "A*²", " * ", "A*x", "", f"A*{LONG}"]


@st.composite
def line_soup(draw):
    """Documents made of whole lines of every kind the parser tells apart,
    right or wrong, in any order: sections, [cover] and [centers] lines,
    component lines with repeated, malformed or clashing clauses, and
    branch lines with zero, short, long or non-binary keys."""
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            lines.append(draw(st.sampled_from(SECTIONS)))
        elif kind == 1:
            lines.append(draw(st.sampled_from(PLAIN)))
        elif kind == 2:
            clauses = draw(st.lists(st.sampled_from(CLAUSES), max_size=4))
            lines.append(f"{draw(st.sampled_from(NAMES))} = {', '.join(clauses)}")
        else:
            entries = draw(st.lists(st.sampled_from(ENTRIES), max_size=3))
            lines.append(f"{draw(st.sampled_from(KEYS))} = {','.join(entries)}")
    return "\n".join(lines)


@settings(FUZZ, max_examples=400)
@given(
    documents()
    | fixture_mutants()
    | line_soup()
    | st.lists(st.sampled_from([*ALPHABET, *SPECIAL, *WORDS]), max_size=80).map("".join)
)
def test_parse_equals_the_reference_parser(text):
    assert parsed_or_problems(config.parse, text) == parsed_or_problems(reference_parse, text)


def test_parse_equals_the_reference_parser_on_random_documents():
    sys.path.insert(0, str(PERFBENCH_DIR))
    try:
        from workloads import DOC_SIZES, random_document
    finally:
        sys.path.remove(str(PERFBENCH_DIR))
    for seed in range(400):
        text = random_document(random.Random(seed), DOC_SIZES[seed % len(DOC_SIZES)], seed % 6 == 5)
        normalized = config.from_cover(normalize(config.parse(text).to_cover())).serialize()
        for document in (text, normalized):
            assert config.parse(document) == reference_parse(document), seed


POINTS, CURVES = ["p", "q", "x"], ["A", "B", "C"]
#: Names no document can write: a blank inside, a leading digit, a line break.
UNWRITABLE = {"a b", "1x", "E p", "q\nx"}


def now_and_then(usual, rare):
    """``usual`` nine draws in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda n: rare if n == 7 else usual)


@st.composite
def plane_cover_arguments(draw):
    """``plane_cover`` arguments, mostly valid, mostly named as a document
    can name them: points near earlier points, curves with multiplicities
    below their degree, branch data over their ids.  Now and then a point
    is near itself or a later point, a name repeats, a curve takes a point's
    name, a degree, multiplicity or branch key is out of range, or a point
    or curve has a name no document can write."""
    r = draw(st.integers(1, 4))
    points = draw(now_and_then(st.just(POINTS), st.just(["p", "q\nx", "E p"])))
    curves = draw(now_and_then(st.just(CURVES), st.just(["A", "a b", "1x"])))
    names = draw(st.lists(st.sampled_from(points), max_size=3, unique=True))
    names += draw(now_and_then(st.just([]), st.lists(st.sampled_from(points), max_size=1)))
    marked = []
    for n, name in enumerate(names):
        earlier = names[:n] or [None]
        parent = draw(st.none() | now_and_then(st.sampled_from(earlier), st.sampled_from(names)))
        marked.append((name, parent))
    components = []
    cids = draw(st.lists(st.sampled_from(curves), min_size=1, max_size=3, unique=True))
    cids += draw(now_and_then(st.just([]), st.sampled_from(names + curves).map(lambda n: [n])))
    for cid in cids:
        degree = draw(now_and_then(st.integers(1, 4), st.integers(-1, 5)))
        low = now_and_then(st.integers(1, max(1, degree - 1)), st.integers(0, 5))
        mults = draw(st.dictionaries(st.sampled_from(names or points), low, max_size=2))
        components.append((cid, degree, mults))
    width = draw(now_and_then(st.just(r), st.integers(1, 4)))
    keys = now_and_then(st.integers(1, 2**r - 1), st.integers(0, 2**width - 1))
    entries = st.lists(st.tuples(st.sampled_from(cids), st.integers(1, 3)), min_size=1, max_size=3)
    branch = draw(st.dictionaries(keys.map(lambda k: format(k, f"0{width}b")), entries, max_size=4))
    pencil = draw(st.none() | st.sampled_from(names or points))
    reducible = draw(st.lists(st.sampled_from(cids), max_size=1))
    return r, components, branch, marked, pencil, reducible


@settings(FUZZ, max_examples=300)
@given(plane_cover_arguments())
def test_every_plane_model_round_trips_through_its_document(args):
    # from_cover is the inverse of to_cover: whatever plane_cover accepts
    # parses back to an equal model, and it accepts no name a document
    # cannot write
    _, components, _, marked, pencil, _ = args
    names = {cid for cid, _, _ in components} | {name for name, _ in marked} | {pencil}
    if names & UNWRITABLE:
        with pytest.raises(CoverError, match="cannot be written in a document"):
            plane_cover(*args)
        return
    try:
        model = plane_cover(*args)
    except CoverError:
        return
    text = config.from_cover(model).serialize()
    assert config.parse(text).to_cover() == model, text
