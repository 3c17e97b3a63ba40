"""Line-oriented configuration format for plane cover documents.

A document has four sections.  ``[cover]`` holds ``r`` and an optional
``pencil`` point; ``[centers]`` declares named points (``p = point``) and
infinitely near points (``y = near x``); ``[components]`` declares curves by
degree with optional per-point multiplicities and an optional ``reducible``
flag; ``[branch]`` assigns components (with ``*k`` multiplicities) to group
elements written as bit strings.

Reading is one pass over the lines, each clause read once.  All problems
are raised as one ConfigError, with line and column, in line order; a
missing ``r`` comes first, and a wrong-length branch key stands alone.  A
problem is kept with its line and key, and the key's column is looked up
only when the document is refused.  Names match ``cover.NAME``, the
pattern ``plane_cover`` checks too, and a number has at most
``MAX_DIGITS`` digits.

``parse`` returns the document's plane model, which ``cover.plane_cover``
builds from the lists it read.  There is one writer, ``write``, which gives
a plane model's document in canonical form straight from the model; the
document parses back to the same model.
"""

from __future__ import annotations

import re

from .errors import ConfigError, PreconditionError
from .cover import NAME, CoverModel, plane_cover

#: The most digits a number may have, so that it and the squares the
#: invariants make of it stay below 640 digits, the lowest limit Python's int
#: conversion can be set to (``PYTHONINTMAXSTRDIGITS``): under every setting a
#: longer number is a problem at its line, and a shorter one reads and prints.
MAX_DIGITS = 300
_SECTION = re.compile(r"^\[(?P<name>[a-z]+)\]$")
_MULT = re.compile(rf"^mult\((?P<point>[^)]*)\)\s*=\s*(?P<value>-?[0-9]{{1,{MAX_DIGITS}}})$")


def _topo_sorted(centers: list[tuple[str, str | None]]) -> list[tuple[str, str | None]]:
    """Centers, given in name order, by (depth below a plane point, name);
    the depths are found without recursion."""
    by_name = dict(centers)
    depth: dict[str | None, int] = {None: -1}
    for name in by_name:
        chain = []
        while name not in depth:
            chain.append(name)
            name = by_name[name]
        for link in reversed(chain):
            depth[link] = depth[name] + 1
            name = link
    return sorted(centers, key=lambda item: depth[item[0]])


def write(model: CoverModel) -> str:
    """The document of a plane configuration, in canonical form: the one
    writer.

    A model keeps its parts in canonical order: components by id, each
    curve's multiplicities by point, the D_g by element and each D_g's
    entries by id.  So only the centers are sorted here; the rest is written
    in the order the model holds it."""
    if model.surface.rank != 1:
        raise PreconditionError("only plane configurations can be written")
    lines = ["[cover]", f"r = {model.r}"]
    if model.pencil is not None:
        lines.append(f"pencil = {model.pencil}")
    lines.append("")
    lines.append("[centers]")
    for name, parent in _topo_sorted([(m.name, m.parent) for m in model.marked]):
        lines.append(f"{name} = point" if parent is None else f"{name} = near {parent}")
    lines.append("")
    lines.append("[components]")
    for comp in model.components:
        line = f"{comp.cid} = degree {comp.cls.degree}"
        for point, mult in comp.mults:
            line += f", mult({point}) = {mult}"
        lines.append(line if comp.irreducible else line + ", reducible")
    lines.append("")
    lines.append("[branch]")
    for g, entries in model.branch:
        entries = ", ".join([name if mult == 1 else f"{name}*{mult}" for name, mult in entries])
        lines.append(f"{g} = {entries}")
    return "\n".join(lines) + "\n"


def _is_number(text: str) -> bool:
    """At most ``MAX_DIGITS`` ASCII digits: ``str.isdigit`` also accepts
    superscripts, which ``int`` rejects."""
    return len(text) <= MAX_DIGITS and text.isascii() and text.isdigit()


def _cut(text: str) -> str:
    """A document value as a message echoes it: at most 80 characters, then
    ``...`` when the value is longer, so an overlong value keeps its
    message short."""
    return text if len(text) <= 80 else text[:80] + "..."


def parse(text: str) -> CoverModel:
    """The plane model of a document, its problems collected before giving up.

    A problem is recorded with its line and the key it is at (None for
    column 1); the key's column is found only when the document is refused.
    A document without problems is built by ``cover.plane_cover``, which
    checks its geometry."""
    problems: list[tuple[int, str | None, str]] = []
    r, pencil = 0, None
    centers: list[tuple[str, str | None]] = []
    components: list[tuple[str, int, dict[str, int]]] = []
    reducible: list[str] = []
    branch: dict[str, list[tuple[str, int]]] = {}
    section = None
    seen_names: set[str] = set()
    component_names: set[str] = set()
    center_names: set[str] = set()
    cover_keys: set[str] = set()
    # (line, key, problems so far) per branch key whose length is not r when
    # it is read; r is 0 until read, and [cover] may follow [branch], so the
    # length is checked after the last line
    wrong_length: list[tuple[int, str, int]] = []

    def err(lineno: int, key: str | None, message: str) -> None:
        problems.append((lineno, key, message))

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            m = _SECTION.match(line)
            if m:
                section = m.group("name")
                if section not in ("cover", "centers", "components", "branch"):
                    err(lineno, None, f"unknown section [{_cut(section)}]")
                    section = None
                continue
        if section is None:
            err(lineno, None, "content outside any section")
            continue
        # the key runs to the first "=", and neither it nor the line has
        # blanks at its ends; the blanks after "=" are not the value's
        key, eq, value = line.partition("=")
        key = key.rstrip()
        if not eq or len(key.split()) != 1:
            err(lineno, None, "expected 'key = value'")
            continue
        value = value.lstrip()

        if section == "components":
            if not NAME.fullmatch(key):
                err(lineno, key, f"invalid component name {_cut(key)!r}")
                continue
            if key in seen_names:
                err(lineno, key, f"duplicate name {_cut(key)!r}")
                continue
            degree, mults, irreducible = -1, {}, True
            ok = True
            # a repeated degree or mult(point) clause would overwrite the first
            has_degree, points = False, set()
            for part in value.split(","):
                part = part.strip()
                if part.startswith("degree"):
                    if has_degree:
                        err(lineno, key, f"duplicate degree clause for component {_cut(key)!r}")
                        continue
                    has_degree = True
                    rest = part[6:].strip()
                    if not _is_number(rest):
                        err(lineno, key, f"bad degree {_cut(rest)!r} for component {_cut(key)!r}")
                        ok = False
                    else:
                        degree = int(rest)
                        if degree < 1:
                            message = (
                                f"degree must be at least 1 for component {_cut(key)!r}, "
                                f"got {_cut(rest)}"
                            )
                            err(lineno, key, message)
                            ok = False
                elif mm := _MULT.match(part):
                    point, mult = mm.groups()
                    if point in points:
                        clause = _cut(f"mult({point})")
                        err(lineno, key, f"duplicate {clause} clause for component {_cut(key)!r}")
                        continue
                    points.add(point)
                    mult = int(mult)
                    if point not in center_names:
                        err(lineno, key, f"multiplicity at undeclared center {_cut(point)!r}")
                        ok = False
                    elif mult < 1:
                        err(lineno, key, f"multiplicity must be at least 1, got {_cut(str(mult))}")
                        ok = False
                    else:
                        mults[point] = mult
                elif part == "reducible":
                    irreducible = False
                else:
                    err(lineno, key, f"cannot parse component clause {_cut(part)!r}")
                    ok = False
            if degree < 0:
                err(lineno, key, f"component {_cut(key)!r} is missing its degree")
                ok = False
            if ok:
                components.append((key, degree, mults))
                if not irreducible:
                    reducible.append(key)
                seen_names.add(key)
                component_names.add(key)

        elif section == "branch":
            if key.strip("01"):
                err(lineno, key, f"non-binary group element {_cut(key)!r}")
                continue
            if len(key) != r:
                wrong_length.append((lineno, key, len(problems)))
            if "1" not in key:
                err(lineno, key, "branch data are indexed by nonzero group elements")
                continue
            if key in branch:
                err(lineno, key, f"duplicate branch element {_cut(key)!r}")
                continue
            entries = []
            for part in value.split(","):
                part = part.strip()
                if not part:
                    continue
                name, mult = part, 1
                if "*" in part:
                    name, _, mult_text = part.partition("*")
                    name, mult_text = name.strip(), mult_text.strip()
                    mult = int(mult_text) if _is_number(mult_text) else 0
                    if mult < 1:
                        err(lineno, key, f"bad multiplicity in branch entry {_cut(part)!r}")
                        continue
                if name not in component_names:
                    err(lineno, key, f"branch references undeclared component {_cut(name)!r}")
                    continue
                entries.append((name, mult))
            if entries:
                branch[key] = entries

        elif section == "centers":
            if not NAME.fullmatch(key):
                err(lineno, key, f"invalid center name {_cut(key)!r}")
                continue
            if key in seen_names:
                err(lineno, key, f"duplicate name {_cut(key)!r}")
                continue
            if value == "point":
                parent = None
            elif value.startswith("near "):
                parent = value[5:].strip()
                if parent not in center_names:
                    err(lineno, key, f"unknown parent center {_cut(parent)!r}")
                    continue
            else:
                err(lineno, key, f"center must be 'point' or 'near <center>', got {_cut(value)!r}")
                continue
            centers.append((key, parent))
            seen_names.add(key)
            center_names.add(key)

        elif key in cover_keys:
            err(lineno, key, f"duplicate [cover] key {_cut(key)!r}")
        elif key == "r":
            cover_keys.add(key)
            if not _is_number(value) or not 1 <= int(value) <= 4:
                err(lineno, key, f"r must be an integer between 1 and 4, got {_cut(value)!r}")
            else:
                r = int(value)
        elif key == "pencil":
            cover_keys.add(key)
            pencil = value
        else:
            err(lineno, key, f"unknown [cover] key {_cut(key)!r}")

    # a key of the wrong length reports only that, as if its line stopped there
    for lineno, key, start in reversed(wrong_length):
        if r and len(key) != r:
            end = start
            while end < len(problems) and problems[end][0] == lineno:
                end += 1
            message = f"group element {_cut(key)!r} has length {len(key)}, expected {r}"
            problems[start:end] = [(lineno, key, message)]
    if "r" not in cover_keys:
        problems.insert(0, (1, None, "missing required key 'r' in [cover]"))
    if pencil is not None and pencil not in center_names:
        problems.append((1, None, f"pencil point {_cut(pencil)!r} is not a declared center"))
    if problems:
        # the key is the first run of its characters on the line
        raise ConfigError(
            [(n, 1 if key is None else lines[n - 1].index(key) + 1, message)
             for n, key, message in problems]
        )
    return plane_cover(r, components, branch, marked=centers, pencil=pencil, reducible=reducible)
