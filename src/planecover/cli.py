"""Command line interface: validate, normalize, resolve, invariants,
classify, reduce and census over the line-oriented document format."""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from . import classify as classify_mod
from . import config
from . import invariants as invariants_mod
from .cover import check_prod_relations, derive_building_data, is_totally_ramified
from .errors import ConfigError, CoverError, MatchError
from .normalize import normalize, resolve

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


def _cmd_validate(doc: config.ConfigDocument, fmt: str) -> int:
    model = normalize(doc.to_cover())
    ramified = is_totally_ramified(model)
    lines = [f"totally_ramified = {str(ramified).lower()}"]
    if not ramified:
        print("\n".join(lines))
        raise MatchError("not totally ramified")
    building = derive_building_data(model)
    lines.append("parity = ok")
    report = check_prod_relations(model, building)
    lines.append(f"prod_relations = ok ({report.pairs_checked} pairs)")
    print("\n".join(lines))
    return 0


def _cmd_normalize(doc: config.ConfigDocument, fmt: str) -> int:
    model = normalize(doc.to_cover())
    sys.stdout.write(config.from_cover(model).serialize())
    return 0


def _cmd_resolve(doc: config.ConfigDocument, fmt: str) -> int:
    result = resolve(doc.to_cover())
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
    result = resolve(doc.to_cover())
    report = invariants_mod.invariant_report(result.cover)
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


def _cmd_classify(doc: config.ConfigDocument, fmt: str) -> int:
    label = classify_mod.classify(normalize(doc.to_cover()))
    print(label.serialize())
    for flag in label.flags:
        print(f"flag = {flag}")
    return 0


def _cmd_reduce(doc: config.ConfigDocument, fmt: str) -> int:
    reduced, moves = classify_mod.cremona_reduce(doc.to_cover())
    for i, move in enumerate(moves, start=1):
        print(f"# move {i}: {move.serialize()}")
    sys.stdout.write(config.from_cover(reduced).serialize())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="planecover",
        description="exact engine for (Z/2)^r covers of the plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "normalize", "resolve", "invariants", "classify", "reduce"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", required=True, help="document path, or - for stdin")
        cmd.add_argument("--format", choices=("text", "tsv"), default="text")
    cmd = sub.add_parser("census")
    cmd.add_argument("--r", type=int, required=True)
    cmd.add_argument("--max-degree", type=int, required=True)
    cmd.add_argument("--format", choices=("text", "tsv"), default="text")

    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "normalize": _cmd_normalize,
        "resolve": _cmd_resolve,
        "invariants": _cmd_invariants,
        "classify": _cmd_classify,
        "reduce": _cmd_reduce,
    }
    try:
        if args.command == "census":
            table = census_mod.census(args.r, args.max_degree)
            sys.stdout.write(table.to_tsv() if args.format == "tsv" else table.to_text())
            return 0
        doc = _read_document(args.input)
        return handlers[args.command](doc, args.format)
    except CoverError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, 1)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
