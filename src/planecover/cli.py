"""Command line interface: validate, normalize, resolve, invariants,
classify, reduce and census over the line-oriented document format.

The six document commands are one table (``COMMANDS``): each runs the
stages parse -> normalize -> checked -> resolve (``STAGES``) up to the last
one it needs, once, and prints that stage's value.  ``parse`` reads the
document into its plane model.  ``checked`` is ``cover.check_cover``, parity
and then total ramification, so every command after ``normalize`` stops at
the first error ``validate`` reports; ``normalize`` checks neither.

Each command's options are declared once, in ``OPTIONS``.  ``main`` reads a
plain argument list (``_read_plain``) straight from that table and hands any
other list to argparse, which ``_parser`` builds from the same table; so
argparse alone prints usage errors and help."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import census as census_mod
from . import classify as classify_mod
from . import config
from . import invariants as invariants_mod
from .cover import CoverModel, check_cover
from .errors import ConfigError, CoverError
from .normalize import ResolveResult, normalize, resolve

EXIT_CODES = {
    "config": 2,
    "parity": 3,
    "inconsistency": 3,
    "domain": 4,
    "dimension": 4,
    "reference": 4,
    "geometry": 4,
    "precondition": 4,
    "no-match": 5,
    "reduction": 5,
    "non-termination": 6,
}


def _read_document(path: str) -> CoverModel:
    # utf-8-sig drops a leading byte-order mark, an artifact of the encoding
    try:
        if path == "-":
            # a surrogateescape stdin passes undecodable bytes on as lone surrogates
            text = sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8-sig")
        else:
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        # the bad byte's position as ``config.parse`` counts one: lines as
        # ``splitlines`` breaks them, columns in characters, no byte-order mark
        *lines, last = (exc.object[: exc.start].decode("utf-8-sig") + "?").splitlines()
        raise ConfigError(
            [(len(lines) + 1, len(last), f"input is not UTF-8 text: {exc.reason}")]
        ) from exc
    return config.parse(text)


#: The stages of a document command, in order: each maps the value the one
#: before it returned, starting from the ``--input`` path.
STAGES = {
    "parse": _read_document,
    "normalize": normalize,
    "checked": check_cover,
    "resolve": resolve,
}


def _print_validate(model: CoverModel, args) -> None:
    # the building data are L_chi = S_chi / 2, which satisfy all 4^r product
    # relations as soon as every S_chi is even
    print(f"totally_ramified = true\nparity = ok\nprod_relations = ok ({4**model.r} pairs)")


def _print_document(model: CoverModel, args) -> None:
    sys.stdout.write(config.write(model))


def _print_trail(result: ResolveResult, args) -> None:
    for record in result.trail:
        payload = {
            "round": record.round,
            "blown": list(record.blown),
            "diff": [
                {"element": g, "added": list(add), "removed": list(rem)}
                for g, add, rem in record.diff
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    print(json.dumps({"rounds": result.rounds, "smooth": True}, sort_keys=True))


def _print_invariants(result: ResolveResult, args) -> None:
    report = invariants_mod.invariant_report(result)
    if args.format == "tsv":
        print("chi\tk2\tbicanonical\tverdict")
        print(
            f"{report.chi}\t{report.k_squared}\t{report.bicanonical_pullback}\t"
            f"{report.rationality_verdict}"
        )
    else:
        print(report.serialize())
        print(f"resolution_rounds = {result.rounds}")


def _print_label(model: CoverModel, args) -> None:
    label = classify_mod.classify(model)
    print(label.serialize())
    for flag in label.flags:
        print(f"flag = {flag}")


def _print_reduced(model: CoverModel, args) -> None:
    reduced, moves = classify_mod.cremona_reduce(model)
    for i, move in enumerate(moves, start=1):
        print(f"# move {i}: {move.serialize()}")
    sys.stdout.write(config.write(reduced))


#: document command -> (the last stage it runs, what it prints of that
#: stage's value)
COMMANDS = {
    "validate": ("checked", _print_validate),
    "normalize": ("normalize", _print_document),
    "resolve": ("resolve", _print_trail),
    "invariants": ("resolve", _print_invariants),
    "classify": ("checked", _print_label),
    "reduce": ("checked", _print_reduced),
}

_INPUT = {"required": True, "help": "document path, or - for stdin"}
_FORMAT = {"choices": ("text", "tsv"), "default": "text"}
_INT = {"type": int, "required": True}

#: command -> option -> the keyword arguments of argparse's ``add_argument``;
#: the commands with a tabular output take ``--format``
OPTIONS = {
    **{name: {"--input": _INPUT} for name in COMMANDS},
    "invariants": {"--input": _INPUT, "--format": _FORMAT},
    "census": {"--r": _INT, "--max-degree": _INT, "--format": _FORMAT},
}


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` returns, for a plain ``argv``.

    Plain is a command followed by ``--option value`` pairs: each option of
    that command written in full and given at most once, every required one
    given, no value starting with ``-`` but the stdin path ``-``, and each
    value of the type and among the choices its option declares.  Any other
    list (an abbreviation, ``--input=x``, ``-h``, a usage error) gives None."""
    options = OPTIONS.get(argv[0]) if argv else None
    given = dict(zip(argv[1::2], argv[2::2]))
    if options is None or len(argv) != 2 * len(given) + 1 or not given.keys() <= options.keys():
        return None
    args = argparse.Namespace(command=argv[0])
    for option, spec in options.items():
        value = given.get(option, spec.get("default"))
        if value is None:
            return None  # a required option is missing
        if option in given:
            if value.startswith("-") and value != "-" or value not in spec.get("choices", [value]):
                return None
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
        setattr(args, option[2:].replace("-", "_"), value)
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``OPTIONS`` on the first argument list
    that is not plain and reused by every later one.

    argparse looks up ``sys.stdout`` and ``sys.stderr`` when it prints, so
    streams swapped between calls still receive usage errors and help."""
    parser = argparse.ArgumentParser(
        prog="planecover",
        description="exact engine for (Z/2)^r covers of the plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in OPTIONS.items():
        command = sub.add_parser(name)
        for option, spec in options.items():
            command.add_argument(option, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or _parser().parse_args(argv)
    try:
        if args.command == "census":
            table = census_mod.census(args.r, args.max_degree)
            sys.stdout.write(table.to_tsv() if args.format == "tsv" else table.to_text())
            return 0
        last, printer = COMMANDS[args.command]
        value = args.input
        for name, stage in STAGES.items():
            value = stage(value)
            if name == last:
                break
        printer(value, args)
        return 0
    except CoverError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, 1)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
