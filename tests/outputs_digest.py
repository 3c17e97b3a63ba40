"""Print one SHA-256 line per CLI call over the "same outputs" set.

Each line is the digest of (exit code, stdout, stderr) of one in-process
``planecover.cli.main`` call, followed by a description of the call.  Two
checkouts give the same outputs exactly when their listings are equal, so a
change that must keep the outputs is checked against the recorded listing:

    python3 tests/outputs_digest.py | diff tests/golden/outputs_digest.txt -

The calls: the 12 fixtures under the six document commands; 400 seeded
random documents from ``perfbench/workloads.py`` (imported, not changed)
under the same six; ``census`` for r = 2..4 and max degree 1..7 in text and
tsv; ``invariants`` in text and tsv on line arrangements k = 4..16; and,
under the six document commands, seeded malformed documents: each fixture
and random document with one character replaced, dropped or inserted
(``mutant``), so ``error[config]`` and ``error[geometry]`` texts and
positions are pinned too.  A mutant drawn twice for one document is called
once, so every description is unique.  Last, under the six document
commands, a few hand-written documents whose branch elements span less than
the whole group (``NOT_TOTALLY_RAMIFIED``), so ``validate`` exit 5 and what
the other commands make of such a cover are pinned as well.  Then
``ARGUMENT_FORMS``: argument lists that argparse reads although they are
not ``--option value`` pairs (an abbreviation, ``--input=P``, a negative
value), and a subcommand's usage errors and help.  The top-level usage and
help are left out: their layout differs between Python versions.  Last,
under the six document commands, one fixed document of each adversarial
kind the fuzz tests draw (``ADVERSARIAL``): a number longer than
``config.MAX_DIGITS``, a name no document can write, a line through a chain
of 1,000 infinitely near points, two curves of degree 300 in one D_g, and a
byte that is not UTF-8, which reaches stdin as the lone surrogate a
``surrogateescape`` stream makes of it.

The script exits 1, after printing every line, when a call ended in an
uncaught exception (a traceback) rather than a result or ``error[code]``.
The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from planecover.cli import main  # noqa: E402
from planecover.config import MAX_DIGITS  # noqa: E402
from workloads import (  # noqa: E402
    BROKEN_EVERY,
    DOC_COMMANDS,
    DOC_SIZES,
    arrangement_document,
    random_document,
)

FIXTURE_DIR = ROOT / "tests" / "fixtures"
RANDOM_DOCUMENTS = 400
MUTANTS_PER_FIXTURE = 10
RANDOM_MUTANTS = 200
#: Replacement text of a local corruption ("" drops a character); the fuzz
#: tests corrupt documents with it too.
JUNK = ["", "=", "[", "]", "#", "*", ",", "\n", " ", "\x00", "é", "0"]

#: name -> a document that is not totally ramified: its branch elements span
#: a proper subgroup of (Z/2)^r
NOT_TOTALLY_RAMIFIED = {
    "two-lines-in-11": "[cover]\nr = 2\n[components]\nA = degree 1\nB = degree 1\n"
    "[branch]\n11 = A, B\n",
    "pencil-lines-and-conic-in-11": "[cover]\nr = 2\npencil = p\n[centers]\np = point\n"
    "[components]\nA = degree 1, mult(p) = 1\nB = degree 1, mult(p) = 1\nQ = degree 2\n"
    "[branch]\n11 = A, B, Q\n",
    "odd-line-in-11": "[cover]\nr = 2\n[components]\nA = degree 1\n[branch]\n11 = A\n",
    "three-lines-rank-2": "[cover]\nr = 3\n[components]\nA = degree 1\nB = degree 1\n"
    "C = degree 1\n[branch]\n100 = A\n010 = B\n110 = C\n",
    "four-lines-rank-3": "[cover]\nr = 4\n[components]\nA = degree 1\nB = degree 1\n"
    "C = degree 1\nD = degree 1\n[branch]\n1000 = A\n0100 = B\n0010 = C\n1110 = D\n",
    "empty-branch": "[cover]\nr = 1\n[components]\nA = degree 2\n[branch]\n",
}


#: argument lists, with ``P`` standing for a fixture path: forms argparse
#: accepts beyond ``--option value`` pairs, and a subcommand's usage errors
#: and help
ARGUMENT_FORMS = (
    "validate --inp P",
    "validate --input=P",
    "invariants --format tsv --input P",
    "census --max-degree 3 --r 2",
    "census --r -1 --max-degree 3",
    "validate",
    "census --r x --max-degree 3",
    "invariants --input P --format csv",
    "validate --help",
)


#: The adversarial documents' template: three lines, one through a marked
#: pencil point, with ``A``'s entry in D_01 of multiplicity k.
_TEMPLATE = (
    "[cover]\nr = {r}\npencil = {pencil}\n[centers]\n{point} = point\n[components]\n"
    "{curve} = degree {degree}, mult({point}) = {mult}\nB = degree 1\nC = degree 1\n"
    "[branch]\n01 = {curve}*{k}\n10 = B\n11 = C\n"
)
_FIELDS = {"r": "2", "pencil": "p", "point": "p", "curve": "A", "degree": "1", "mult": "1", "k": "1"}
_CHAIN = 1000

#: kind -> one fixed document of each kind of ``test_fuzz.ADVERSARIAL``, as
#: the text a ``surrogateescape`` stdin gives for its bytes
ADVERSARIAL = {
    "long number": _TEMPLATE.format(**{**_FIELDS, "degree": "7" * (MAX_DIGITS + 1)}),
    "unwritable name": _TEMPLATE.format(**{**_FIELDS, "curve": "A-1"}),
    "deep chain": "[cover]\nr = 2\n[centers]\np0 = point\n"
    + "".join(f"p{i} = near p{i - 1}\n" for i in range(1, _CHAIN))
    + "[components]\nA = degree 1"
    + "".join(f", mult(p{i}) = 1" for i in range(_CHAIN))
    + "\nB = degree 1\nC = degree 1\n[branch]\n01 = A\n10 = B\n11 = C\n",
    "high degree pair": "[cover]\nr = 1\n[centers]\np = point\n[components]\n"
    "A = degree 300\nB = degree 300\n[branch]\n1 = A, B\n",
    # the byte 0xff after the pencil point's name
    "not UTF-8": _TEMPLATE.format(**{**_FIELDS, "pencil": "p\udcff"}),
}


def mutant(text: str, rng: random.Random) -> tuple[str, str]:
    """``text`` with one character replaced, dropped or inserted, and a label.

    A ``digit`` mutant replaces a number's leading digit (a degree, a
    multiplicity or r) by one of 1..4, which turns many a document into a
    geometry error; the others use ``JUNK``.
    """
    kind = rng.choice(("replace", "drop", "insert", "digit"))
    if kind == "digit":
        at = rng.choice([n for n, c in enumerate(text) if c.isdigit() and text[n - 1] == " "])
        junk = rng.choice("1234")
    else:
        at = rng.randrange(len(text))
        junk = "" if kind == "drop" else rng.choice([j for j in JUNK if j])
    end = at if kind == "insert" else at + 1
    return text[:at] + junk + text[end:], f"{kind}@{at}{junk!r}"


def calls():
    """(description, argv, stdin text or None) for every call, in a fixed order."""
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        for command in DOC_COMMANDS:
            yield f"{path.stem} {command}", [command, "--input", str(path)], None
    for i in range(RANDOM_DOCUMENTS):
        size = DOC_SIZES[i % len(DOC_SIZES)]
        document = random_document(random.Random(i), size, i % BROKEN_EVERY == BROKEN_EVERY - 1)
        for command in DOC_COMMANDS:
            yield f"random{i} {command}", [command, "--input", "-"], document
    for r in (2, 3, 4):
        for d in range(1, 8):
            for fmt in ("text", "tsv"):
                argv = ["census", "--r", str(r), "--max-degree", str(d), "--format", fmt]
                yield f"census r={r} d={d} {fmt}", argv, None
    for k in range(4, 17):
        document = arrangement_document(k, random.Random(k))
        for fmt in ("text", "tsv"):
            yield f"arrangement k={k} {fmt}", ["invariants", "--input", "-", "--format", fmt], document
    malformed = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        rng = random.Random(f"mutant/{path.stem}")
        text = path.read_text(encoding="utf-8")
        malformed += [(path.stem, *mutant(text, rng)) for _ in range(MUTANTS_PER_FIXTURE)]
    for i in range(RANDOM_MUTANTS):
        size = DOC_SIZES[i % len(DOC_SIZES)]
        document = random_document(random.Random(f"mutant/{i}"), size, False)
        malformed.append((f"random{i}", *mutant(document, random.Random(i))))
    drawn = set()
    for source, document, label in malformed:
        if (source, label) in drawn:
            continue  # the same mutant drawn again
        drawn.add((source, label))
        for command in DOC_COMMANDS:
            yield f"{source} {label} {command}", [command, "--input", "-"], document
    for name, document in NOT_TOTALLY_RAMIFIED.items():
        for command in DOC_COMMANDS:
            yield f"{name} {command}", [command, "--input", "-"], document
    path = str(FIXTURE_DIR / "prop51.cfg")
    for form in ARGUMENT_FORMS:
        yield f"argv {form}", [token.replace("P", path) for token in form.split()], None
    for kind, document in ADVERSARIAL.items():
        for command in DOC_COMMANDS:
            yield f"adversarial {kind} {command}", [command, "--input", "-"], document


def run(argv, stdin):
    """(exit code, stdout, stderr, traceback text or None) of one call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    failure = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except Exception:
        code, failure = "traceback", traceback.format_exc()
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), failure


def main_digest() -> int:
    failures = 0
    for description, argv, stdin in calls():
        code, out, err, failure = run(argv, stdin)
        digest = hashlib.sha256(repr((code, out, err)).encode("utf-8")).hexdigest()
        print(f"{digest}  {description}")
        if failure is not None:
            failures += 1
            print(f"traceback in {description}:\n{failure}", file=sys.stderr)
    if failures:
        print(f"{failures} calls ended in a traceback", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
