"""Command line interface: validate, normalize, resolve, invariants,
classify, reduce and census over the line-oriented document format."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import census as census_mod
from . import classify as classify_mod
from . import config
from . import invariants as invariants_mod
from .cover import check_parity, is_totally_ramified
from .errors import ConfigError, CoverError, MatchError
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


def _read_document(path: str) -> config.ConfigDocument:
    try:
        if path == "-":
            # a surrogateescape stdin passes undecodable bytes on as lone surrogates
            text = sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]
        line, col = before.count(b"\n") + 1, exc.start - before.rfind(b"\n")
        raise ConfigError([(line, col, f"input is not UTF-8 text: {exc.reason}")]) from exc
    return config.parse(text)


def _cmd_validate(doc: config.ConfigDocument) -> int:
    model = normalize(doc.to_cover())
    ramified = is_totally_ramified(model)
    lines = [f"totally_ramified = {str(ramified).lower()}"]
    if not ramified:
        print("\n".join(lines))
        raise MatchError("not totally ramified")
    # the building data are L_chi = S_chi / 2, which satisfy all 4^r product
    # relations as soon as every S_chi is even
    check_parity(model)
    lines.append("parity = ok")
    lines.append(f"prod_relations = ok ({4**model.r} pairs)")
    print("\n".join(lines))
    return 0


def _cmd_normalize(doc: config.ConfigDocument) -> int:
    model = normalize(doc.to_cover())
    sys.stdout.write(config.from_cover(model).serialize())
    return 0


def _resolved(doc: config.ConfigDocument) -> ResolveResult:
    """The document's model resolved; ParityError first when the branch data
    have no cover, as ``validate`` reports it."""
    model = doc.to_cover()
    check_parity(model)
    return resolve(model)


def _cmd_resolve(doc: config.ConfigDocument) -> int:
    result = _resolved(doc)
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
    return 0


def _cmd_invariants(doc: config.ConfigDocument, fmt: str) -> int:
    result = _resolved(doc)
    report = invariants_mod.invariant_report(result)
    if fmt == "tsv":
        print("chi\tk2\tbicanonical\tverdict")
        print(
            f"{report.chi}\t{report.k_squared}\t{report.bicanonical_pullback}\t"
            f"{report.rationality_verdict}"
        )
    else:
        print(report.serialize())
        print(f"resolution_rounds = {result.rounds}")
    return 0


def _cmd_classify(doc: config.ConfigDocument) -> int:
    label = classify_mod.classify(normalize(doc.to_cover()))
    print(label.serialize())
    for flag in label.flags:
        print(f"flag = {flag}")
    return 0


def _cmd_reduce(doc: config.ConfigDocument) -> int:
    reduced, moves = classify_mod.cremona_reduce(doc.to_cover())
    for i, move in enumerate(moves, start=1):
        print(f"# move {i}: {move.serialize()}")
    sys.stdout.write(config.from_cover(reduced).serialize())
    return 0


HANDLERS = {
    "validate": _cmd_validate,
    "normalize": _cmd_normalize,
    "resolve": _cmd_resolve,
    "invariants": _cmd_invariants,
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one.

    argparse looks up ``sys.stdout`` and ``sys.stderr`` when it prints, so
    streams swapped between calls still receive usage errors and help."""
    parser = argparse.ArgumentParser(
        prog="planecover",
        description="exact engine for (Z/2)^r covers of the plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in (*HANDLERS, "census")}
    for name in HANDLERS:
        commands[name].add_argument("--input", required=True, help="document path, or - for stdin")
    commands["census"].add_argument("--r", type=int, required=True)
    commands["census"].add_argument("--max-degree", type=int, required=True)
    # the two commands with a tabular output
    for name in ("invariants", "census"):
        commands[name].add_argument("--format", choices=("text", "tsv"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "census":
            table = census_mod.census(args.r, args.max_degree)
            sys.stdout.write(table.to_tsv() if args.format == "tsv" else table.to_text())
            return 0
        doc = _read_document(args.input)
        handler = HANDLERS[args.command]
        return handler(doc, args.format) if "format" in args else handler(doc)
    except CoverError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, 1)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
