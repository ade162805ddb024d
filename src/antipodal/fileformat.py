"""Line-oriented structure files.

The grammar is one directive per line; ``#`` starts a comment and blank lines
are ignored:

    elg 1
    delta D
    K K                  (optional, with an optional ``variant`` line)
    variant V            (odd-non-bipartite | even-bipartite | unrestricted)
    vertex NAME
    edge NAME NAME LABEL
    mate NAME NAME       (one line per map entry; mates of an expansion
                          appear in both directions)
    mark NAME INDEX BITS
    f NAME NAME BIT

A file parses to exactly one structure (marked when ``mate``/``mark`` lines
are present), an optional class descriptor, and an optional pair function.
The writer emits a canonical ordering, so write(read(text)) reproduces a
canonically written file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .completion import ParityFunction
from .errors import FormatError
from .membership import ClassDescriptor, Variant
from .structures import EdgeLabelledGraph
from .valuations import GammaLStructure, ValuationFunction

FORMAT_VERSION = "1"


@dataclass
class StructureFile:
    """One parsed file: the structure plus optional descriptor and pair function."""

    structure: EdgeLabelledGraph | GammaLStructure
    descriptor: ClassDescriptor | None = None
    parity: ParityFunction | None = None

    @property
    def graph(self) -> EdgeLabelledGraph:
        s = self.structure
        return s.base if isinstance(s, GammaLStructure) else s


def read_structure_text(text: str) -> StructureFile:
    header_seen = False
    delta = None
    k_value = None
    variant = None
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    mates: list[tuple[str, str]] = []
    marks: list[tuple[str, int, ValuationFunction]] = []
    parity_entries: list[tuple[str, str, int]] = []

    def fail(lineno, message):
        raise FormatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if not header_seen:
            if keyword != "elg" or args != [FORMAT_VERSION]:
                fail(lineno, f"expected 'elg {FORMAT_VERSION}' header, got {line!r}")
            header_seen = True
            continue
        if keyword == "delta":
            if delta is not None or len(args) != 1 or not args[0].isdigit():
                fail(lineno, "expected a single 'delta D' line with integer D")
            delta = int(args[0])
        elif keyword == "K":
            if k_value is not None or len(args) != 1 or not args[0].isdigit():
                fail(lineno, "expected a single 'K K' line with integer K")
            k_value = int(args[0])
        elif keyword == "variant":
            if variant is not None or len(args) != 1:
                fail(lineno, "expected a single 'variant V' line")
            try:
                variant = Variant(args[0])
            except ValueError:
                fail(lineno, f"unknown variant {args[0]!r}")
        elif keyword == "vertex":
            if len(args) != 1:
                fail(lineno, "expected 'vertex NAME'")
            vertices.append(args[0])
        elif keyword == "edge":
            if len(args) != 3 or not args[2].isdigit():
                fail(lineno, "expected 'edge NAME NAME LABEL'")
            edges.append((args[0], args[1], int(args[2])))
        elif keyword == "mate":
            if len(args) != 2:
                fail(lineno, "expected 'mate NAME NAME'")
            mates.append((args[0], args[1]))
        elif keyword == "mark":
            if len(args) != 3:
                fail(lineno, "expected 'mark NAME INDEX BITS'")
            if not args[1].isdigit():
                fail(lineno, "mark index must be an integer")
            try:
                chi = ValuationFunction.from_string(args[2])
            except Exception:
                fail(lineno, f"bad valuation string {args[2]!r}")
            marks.append((args[0], int(args[1]), chi))
        elif keyword == "f":
            if len(args) != 3 or args[2] not in ("0", "1"):
                fail(lineno, "expected 'f NAME NAME BIT'")
            if args[0] not in vertices or args[1] not in vertices:
                fail(lineno, "f lines must reference declared vertices")
            parity_entries.append((args[0], args[1], int(args[2])))
        else:
            fail(lineno, f"unknown directive {keyword!r}")
    if not header_seen:
        raise FormatError("missing 'elg 1' header")
    if delta is None:
        raise FormatError("missing 'delta' line")
    try:
        base = EdgeLabelledGraph(vertices, delta, edges)
        structure: EdgeLabelledGraph | GammaLStructure = base
        if mates or marks:
            structure = GammaLStructure(base, mates, marks)
        descriptor = None
        if k_value is not None:
            descriptor = ClassDescriptor(delta, k_value, variant)
        elif variant is not None:
            raise FormatError("a 'variant' line needs a 'K' line")
        parity = ParityFunction(parity_entries) if parity_entries else None
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(str(exc)) from exc
    return StructureFile(structure, descriptor, parity)


def read_structure_file(path) -> StructureFile:
    with open(path, "r", encoding="utf-8") as handle:
        return read_structure_text(handle.read())


def write_structure_text(parsed: StructureFile) -> str:
    """Canonical text of ``parsed``; refuses vertices the reader cannot load.

    A vertex is written as one token, so it must be a non-empty string
    without whitespace or ``#``; anything else raises :class:`FormatError`
    instead of producing a file that reads back differently or not at all.
    """
    lines = [f"elg {FORMAT_VERSION}"]
    structure = parsed.structure
    base = parsed.graph
    for v in base.vertices:
        if not isinstance(v, str) or not v or "#" in v or any(c.isspace() for c in v):
            raise FormatError(
                f"vertex {v!r} cannot be written: names are non-empty strings "
                "without whitespace or '#'")
    lines.append(f"delta {base.delta}")
    if parsed.descriptor is not None:
        lines.append(f"K {parsed.descriptor.K}")
        lines.append(f"variant {parsed.descriptor.variant.value}")
    for v in base.vertices:
        lines.append(f"vertex {v}")
    for u, v, label in base.edges():
        lines.append(f"edge {u} {v} {label}")
    if isinstance(structure, GammaLStructure):
        for u, v in structure.mate_pairs():
            lines.append(f"mate {u} {v}")
        for v in base.vertices:
            mark = structure.mark(v)
            if mark is not None:
                lines.append(f"mark {v} {mark[0]} {mark[1]}")
    if parsed.parity is not None:
        for u, v in base.pairs():
            if parsed.parity.defined(u, v):
                lines.append(f"f {u} {v} {parsed.parity.value(u, v)}")
    return "\n".join(lines) + "\n"


def write_structure_file(path, parsed: StructureFile) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_structure_text(parsed))
