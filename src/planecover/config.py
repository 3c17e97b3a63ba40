"""Line-oriented configuration format for plane cover documents.

A document has four sections.  ``[cover]`` holds ``r`` and an optional
``pencil`` point; ``[centers]`` declares named points (``p = point``) and
infinitely near points (``y = near x``); ``[components]`` declares curves by
degree with optional per-point multiplicities and an optional ``reducible``
flag; ``[branch]`` assigns components (with ``*k`` multiplicities) to group
elements written as bit strings.

The serializer emits a canonical form that parses back to the same
document, byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import cover as cover_mod
from .errors import ConfigError
from .cover import CoverModel

_SECTION = re.compile(r"^\[(?P<name>[a-z]+)\]$")
_KEYVAL = re.compile(r"^(?P<key>[^=\s]+)\s*=\s*(?P<value>.*)$")
_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_']*$")
_MULT = re.compile(r"^mult\((?P<point>[^)]*)\)\s*=\s*(?P<value>-?[0-9]+)$")


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
            parts.extend(
                f"mult({point}) = {mult}" for point, mult in sorted(comp.mults.items())
            )
            if not comp.irreducible:
                parts.append("reducible")
            lines.append(f"{comp.name} = " + ", ".join(parts))
        lines.append("")
        lines.append("[branch]")
        for key in sorted(self.branch):
            entries = ", ".join(
                name if mult == 1 else f"{name}*{mult}"
                for name, mult in sorted(self.branch[key])
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
    for comp in model.components:
        doc.components.append(
            ComponentSpec(comp.cid, comp.cls.degree, dict(comp.mults), comp.irreducible)
        )
    for g, entries in model.branch:
        doc.branch[str(g)] = [(cid, k) for cid, k in entries]
    return doc


def _is_number(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts superscripts, which ``int`` rejects."""
    return text.isascii() and text.isdigit()


def _strip_comment(line: str) -> str:
    if "#" in line:
        return line[: line.index("#")]
    return line


def parse(text: str) -> ConfigDocument:
    """Parse a document, collecting positioned errors before giving up."""
    problems: list[tuple[int, int, str]] = []
    doc = ConfigDocument(r=0)
    section = None
    seen_names: set[str] = set()
    component_names: set[str] = set()
    center_names: set[str] = set()
    cover_keys: set[str] = set()

    def err(lineno: int, col: int, message: str) -> None:
        problems.append((lineno, col, message))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            section = m.group("name")
            if section not in ("cover", "centers", "components", "branch"):
                err(lineno, 1, f"unknown section [{section}]")
                section = None
            continue
        if section is None:
            err(lineno, 1, "content outside any section")
            continue
        kv = _KEYVAL.match(line)
        if not kv:
            err(lineno, 1, "expected 'key = value'")
            continue
        key, value = kv.group("key"), kv.group("value").strip()
        col = raw.index(key) + 1

        if section == "cover":
            if key in cover_keys:
                err(lineno, col, f"duplicate [cover] key {key!r}")
            elif key == "r":
                cover_keys.add(key)
                if not _is_number(value) or not 1 <= int(value) <= 4:
                    err(lineno, col, f"r must be an integer between 1 and 4, got {value!r}")
                else:
                    doc.r = int(value)
            elif key == "pencil":
                cover_keys.add(key)
                doc.pencil = value
            else:
                err(lineno, col, f"unknown [cover] key {key!r}")

        elif section == "centers":
            if not _NAME.match(key):
                err(lineno, col, f"invalid center name {key!r}")
                continue
            if key in seen_names:
                err(lineno, col, f"duplicate name {key!r}")
                continue
            if value == "point":
                parent = None
            elif value.startswith("near "):
                parent = value[5:].strip()
                if parent not in center_names:
                    err(lineno, col, f"unknown parent center {parent!r}")
                    continue
            else:
                err(lineno, col, f"center must be 'point' or 'near <center>', got {value!r}")
                continue
            doc.centers.append((key, parent))
            seen_names.add(key)
            center_names.add(key)

        elif section == "components":
            if not _NAME.match(key):
                err(lineno, col, f"invalid component name {key!r}")
                continue
            if key in seen_names:
                err(lineno, col, f"duplicate name {key!r}")
                continue
            spec = ComponentSpec(key, degree=-1)
            ok = True
            clauses: set[str] = set()
            for part in [p.strip() for p in value.split(",")]:
                # a repeated degree or mult(point) clause would overwrite the first
                mm = _MULT.match(part)
                clause = mm and f"mult({mm.group('point')})"
                if part.startswith("degree"):
                    clause = "degree"
                if clause in clauses:
                    err(lineno, col, f"duplicate {clause} clause for component {key!r}")
                    continue
                if clause:
                    clauses.add(clause)
                if part.startswith("degree"):
                    rest = part[len("degree") :].strip()
                    if not _is_number(rest):
                        err(lineno, col, f"bad degree {rest!r} for component {key!r}")
                        ok = False
                    else:
                        spec.degree = int(rest)
                elif part == "reducible":
                    spec.irreducible = False
                elif mm:
                    point, mult = mm.group("point"), int(mm.group("value"))
                    if point not in center_names:
                        err(lineno, col, f"multiplicity at undeclared center {point!r}")
                        ok = False
                    elif mult < 1:
                        err(lineno, col, f"multiplicity must be at least 1, got {mult}")
                        ok = False
                    else:
                        spec.mults[point] = mult
                else:
                    err(lineno, col, f"cannot parse component clause {part!r}")
                    ok = False
            if spec.degree < 0:
                err(lineno, col, f"component {key!r} is missing its degree")
                ok = False
            if ok:
                doc.components.append(spec)
                seen_names.add(key)
                component_names.add(key)

        elif section == "branch":
            if any(c not in "01" for c in key):
                err(lineno, col, f"non-binary group element {key!r}")
                continue
            if doc.r and len(key) != doc.r:
                err(lineno, col, f"group element {key!r} has length {len(key)}, expected {doc.r}")
                continue
            if set(key) == {"0"}:
                err(lineno, col, "branch data are indexed by nonzero group elements")
                continue
            if key in doc.branch:
                err(lineno, col, f"duplicate branch element {key!r}")
                continue
            entries = []
            for part in [p.strip() for p in value.split(",") if p.strip()]:
                name, star, mult_text = part.partition("*")
                name = name.strip()
                mult = 1
                if star:
                    if not _is_number(mult_text.strip()) or int(mult_text) < 1:
                        err(lineno, col, f"bad multiplicity in branch entry {part!r}")
                        continue
                    mult = int(mult_text)
                if name not in component_names:
                    err(lineno, col, f"branch references undeclared component {name!r}")
                    continue
                entries.append((name, mult))
            if entries:
                doc.branch[key] = entries

    if "r" not in cover_keys:
        problems.insert(0, (1, 1, "missing required key 'r' in [cover]"))
    if doc.pencil is not None and doc.pencil not in center_names:
        problems.append((1, 1, f"pencil point {doc.pencil!r} is not a declared center"))
    if problems:
        raise ConfigError(problems)
    return doc
