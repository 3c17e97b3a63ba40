"""Line-oriented configuration format for plane cover documents.

A document has four sections.  ``[cover]`` holds ``r`` and an optional
``pencil`` point; ``[centers]`` declares named points (``p = point``) and
infinitely near points (``y = near x``); ``[components]`` declares curves by
degree with optional per-point multiplicities and an optional ``reducible``
flag; ``[branch]`` assigns components (with ``*k`` multiplicities) to group
elements written as bit strings.

Reading is one pass over the lines, each clause read once.  All problems
are raised as one ConfigError, with line and column, in line order; a
missing ``r`` comes first, and a wrong-length branch key stands alone.
Names match ``cover.NAME``, the pattern ``plane_cover`` checks too, and a
number has at most ``MAX_DIGITS`` digits.

The serializer emits a canonical form that parses back to the same
document, byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import cover as cover_mod
from .errors import ConfigError
from .cover import NAME, CoverModel

#: The most digits a number may have, so that it and the squares the
#: invariants make of it stay below 640 digits, the lowest limit Python's int
#: conversion can be set to (``PYTHONINTMAXSTRDIGITS``): under every setting a
#: longer number is a problem at its line, and a shorter one reads and prints.
MAX_DIGITS = 300
_SECTION = re.compile(r"^\[(?P<name>[a-z]+)\]$")
_KEYVAL = re.compile(r"^(?P<key>[^=\s]+)\s*=\s*(?P<value>.*)$")
_MULT = re.compile(rf"^mult\((?P<point>[^)]*)\)\s*=\s*(?P<value>-?[0-9]{{1,{MAX_DIGITS}}})$")


@dataclass
class ComponentSpec:
    name: str
    degree: int
    mults: dict[str, int] = field(default_factory=dict)
    irreducible: bool = True


@dataclass
class ConfigDocument:
    r: int
    pencil: str | None = None
    centers: list[tuple[str, str | None]] = field(default_factory=list)
    components: list[ComponentSpec] = field(default_factory=list)
    branch: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    def to_cover(self) -> CoverModel:
        return cover_mod.plane_cover(
            self.r,
            [(c.name, c.degree, c.mults) for c in self.components],
            self.branch,
            marked=self.centers,
            pencil=self.pencil,
            reducible=[c.name for c in self.components if not c.irreducible],
        )

    def serialize(self) -> str:
        lines = ["[cover]", f"r = {self.r}"]
        if self.pencil is not None:
            lines.append(f"pencil = {self.pencil}")
        lines.append("")
        lines.append("[centers]")
        for name, parent in _topo_sorted(self.centers):
            lines.append(f"{name} = point" if parent is None else f"{name} = near {parent}")
        lines.append("")
        lines.append("[components]")
        for comp in sorted(self.components, key=lambda c: c.name):
            parts = [f"degree {comp.degree}"]
            parts += [f"mult({point}) = {mult}" for point, mult in sorted(comp.mults.items())]
            if not comp.irreducible:
                parts.append("reducible")
            lines.append(f"{comp.name} = " + ", ".join(parts))
        lines.append("")
        lines.append("[branch]")
        for key in sorted(self.branch):
            entries = ", ".join(
                [name if mult == 1 else f"{name}*{mult}" for name, mult in sorted(self.branch[key])]
            )
            lines.append(f"{key} = {entries}")
        return "\n".join(lines) + "\n"


def _topo_sorted(centers: list[tuple[str, str | None]]) -> list[tuple[str, str | None]]:
    """Centers by (depth below a plane point, name), found without recursion."""
    by_name = dict(centers)
    depth: dict[str | None, int] = {None: -1}
    for name, _ in centers:
        chain = []
        while name not in depth and len(chain) <= len(by_name):
            chain.append(name)
            name = by_name.get(name)
        for link in reversed(chain):
            depth[link] = depth.get(name, -1) + 1
            name = link
    return sorted(centers, key=lambda item: (depth[item[0]], item[0]))


def from_cover(model: CoverModel) -> ConfigDocument:
    """Document form of a plane configuration (inverse of ``to_cover``)."""
    if model.surface.rank != 1:
        raise ConfigError([(1, 1, "only plane configurations can be serialized")])
    doc = ConfigDocument(r=model.r, pencil=model.pencil)
    doc.centers = [(m.name, m.parent) for m in model.marked]
    doc.components = [
        ComponentSpec(c.cid, c.cls.degree, dict(c.mults), c.irreducible)
        for c in model.components
    ]
    doc.branch = {str(g): list(entries) for g, entries in model.branch}
    return doc


def _is_number(text: str) -> bool:
    """At most ``MAX_DIGITS`` ASCII digits: ``str.isdigit`` also accepts
    superscripts, which ``int`` rejects."""
    return len(text) <= MAX_DIGITS and text.isascii() and text.isdigit()


def _cut(text: str) -> str:
    """A document value as a message echoes it: at most 80 characters, then
    ``...`` when the value is longer, so an overlong value keeps its
    message short."""
    return text if len(text) <= 80 else text[:80] + "..."


def parse(text: str) -> ConfigDocument:
    """Parse a document, collecting positioned errors before giving up."""
    problems: list[tuple[int, int, str]] = []
    doc = ConfigDocument(r=0)
    section = None
    seen_names: set[str] = set()
    component_names: set[str] = set()
    center_names: set[str] = set()
    cover_keys: set[str] = set()
    # (line, column, key, problems so far) per branch key whose length is not
    # r when it is read; r is 0 until read, and [cover] may follow [branch],
    # so the length is checked after the last line
    wrong_length: list[tuple[int, int, str, int]] = []

    def err(lineno: int, col: int, message: str) -> None:
        problems.append((lineno, col, message))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            m = _SECTION.match(line)
            if m:
                section = m.group("name")
                if section not in ("cover", "centers", "components", "branch"):
                    err(lineno, 1, f"unknown section [{_cut(section)}]")
                    section = None
                continue
        if section is None:
            err(lineno, 1, "content outside any section")
            continue
        kv = _KEYVAL.match(line)
        if not kv:
            err(lineno, 1, "expected 'key = value'")
            continue
        # the line is stripped and the pattern eats the blanks around "="
        key, value = kv.groups()
        col = raw.index(key) + 1

        if section == "cover":
            if key in cover_keys:
                err(lineno, col, f"duplicate [cover] key {_cut(key)!r}")
            elif key == "r":
                cover_keys.add(key)
                if not _is_number(value) or not 1 <= int(value) <= 4:
                    err(lineno, col, f"r must be an integer between 1 and 4, got {_cut(value)!r}")
                else:
                    doc.r = int(value)
            elif key == "pencil":
                cover_keys.add(key)
                doc.pencil = value
            else:
                err(lineno, col, f"unknown [cover] key {_cut(key)!r}")

        elif section == "centers":
            if not NAME.fullmatch(key):
                err(lineno, col, f"invalid center name {_cut(key)!r}")
                continue
            if key in seen_names:
                err(lineno, col, f"duplicate name {_cut(key)!r}")
                continue
            if value == "point":
                parent = None
            elif value.startswith("near "):
                parent = value[5:].strip()
                if parent not in center_names:
                    err(lineno, col, f"unknown parent center {_cut(parent)!r}")
                    continue
            else:
                err(lineno, col, f"center must be 'point' or 'near <center>', got {_cut(value)!r}")
                continue
            doc.centers.append((key, parent))
            seen_names.add(key)
            center_names.add(key)

        elif section == "components":
            if not NAME.fullmatch(key):
                err(lineno, col, f"invalid component name {_cut(key)!r}")
                continue
            if key in seen_names:
                err(lineno, col, f"duplicate name {_cut(key)!r}")
                continue
            degree, mults, irreducible = -1, {}, True
            ok = True
            # a repeated degree or mult(point) clause would overwrite the first
            clauses: set[str] = set()
            for part in value.split(","):
                part = part.strip()
                if part.startswith("degree"):
                    if "degree" in clauses:
                        err(lineno, col, f"duplicate degree clause for component {_cut(key)!r}")
                        continue
                    clauses.add("degree")
                    rest = part[6:].strip()
                    if not _is_number(rest):
                        err(lineno, col, f"bad degree {_cut(rest)!r} for component {_cut(key)!r}")
                        ok = False
                    else:
                        degree = int(rest)
                        if degree < 1:
                            message = (
                                f"degree must be at least 1 for component {_cut(key)!r}, "
                                f"got {_cut(rest)}"
                            )
                            err(lineno, col, message)
                            ok = False
                elif part == "reducible":
                    irreducible = False
                elif mm := _MULT.match(part):
                    point, mult = mm.groups()
                    clause = f"mult({point})"
                    if clause in clauses:
                        message = f"duplicate {_cut(clause)} clause for component {_cut(key)!r}"
                        err(lineno, col, message)
                        continue
                    clauses.add(clause)
                    mult = int(mult)
                    if point not in center_names:
                        err(lineno, col, f"multiplicity at undeclared center {_cut(point)!r}")
                        ok = False
                    elif mult < 1:
                        err(lineno, col, f"multiplicity must be at least 1, got {_cut(str(mult))}")
                        ok = False
                    else:
                        mults[point] = mult
                else:
                    err(lineno, col, f"cannot parse component clause {_cut(part)!r}")
                    ok = False
            if degree < 0:
                err(lineno, col, f"component {_cut(key)!r} is missing its degree")
                ok = False
            if ok:
                doc.components.append(ComponentSpec(key, degree, mults, irreducible))
                seen_names.add(key)
                component_names.add(key)

        elif section == "branch":
            if key.strip("01"):
                err(lineno, col, f"non-binary group element {_cut(key)!r}")
                continue
            if len(key) != doc.r:
                wrong_length.append((lineno, col, key, len(problems)))
            if "1" not in key:
                err(lineno, col, "branch data are indexed by nonzero group elements")
                continue
            if key in doc.branch:
                err(lineno, col, f"duplicate branch element {_cut(key)!r}")
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
                        err(lineno, col, f"bad multiplicity in branch entry {_cut(part)!r}")
                        continue
                if name not in component_names:
                    err(lineno, col, f"branch references undeclared component {_cut(name)!r}")
                    continue
                entries.append((name, mult))
            if entries:
                doc.branch[key] = entries

    # a key of the wrong length reports only that, as if its line stopped there
    for lineno, col, key, start in reversed(wrong_length):
        if doc.r and len(key) != doc.r:
            end = start
            while end < len(problems) and problems[end][0] == lineno:
                end += 1
            problems[start:end] = [
                (lineno, col, f"group element {_cut(key)!r} has length {len(key)}, "
                 f"expected {doc.r}")
            ]
    if "r" not in cover_keys:
        problems.insert(0, (1, 1, "missing required key 'r' in [cover]"))
    if doc.pencil is not None and doc.pencil not in center_names:
        problems.append((1, 1, f"pencil point {_cut(doc.pencil)!r} is not a declared center"))
    if problems:
        raise ConfigError(problems)
    return doc
