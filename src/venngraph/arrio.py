"""The ARR text format and line-oriented certificate blocks.

Grammar::

    arrangement <V>
    v <id> <n0>.<s0> <n1>.<s1> <n2>.<s2> <n3>.<s3>
    coord <id> <x> <y>          # optional: one per vertex, for all or none
    outer <vertex>.<slot>       # optional, rendering hint only

One ``v`` line per vertex, ids 0..V-1, listing the twin of each of the
vertex's four darts counterclockwise as ``vertex.slot``.  ``#`` starts a
comment; blank lines are ignored.  Twin references must reciprocate:
if dart (a, i) names (b, j) then (b, j) must name (a, i).

Writing is canonical (vertices ascending, slots in order, coords after
the rotation lines), so ``write(parse(write(g))) == write(g)``.
"""

from __future__ import annotations

from typing import Sequence

from .connectivity import CutCertificate, PathCertificate
from .maps import PlaneGraph


class ArrSyntaxError(ValueError):
    """Malformed ARR text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ArrSemanticError(ValueError):
    """Well-formed text describing an impossible arrangement."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_dart(token: str, vertex_count: int, line: int) -> int:
    # str.isdecimal accepts exactly the characters of the regex class \d
    v, dot, s = token.partition(".")
    if not (dot and v.isdecimal() and s.isdecimal()):
        raise ArrSyntaxError(line, f"expected vertex.slot, got {token!r}")
    v, s = int(v), int(s)
    if v >= vertex_count:
        raise ArrSemanticError(line, f"vertex {v} out of range 0..{vertex_count - 1}")
    if s >= 4:
        raise ArrSemanticError(line, f"slot {s} out of range 0..3")
    return 4 * v + s


def parse_arr(text: str) -> PlaneGraph:
    """Parse ARR text into a graph; errors carry line numbers."""
    vertex_count: int | None = None
    # dart -> twin and dart -> line, filled per 'v' line: nothing of size
    # O(V) is allocated before the rotation lines are known to exist
    refs: dict[int, int] = {}
    ref_line: dict[int, int] = {}
    seen_vertex: set[int] = set()
    coords: dict[int, tuple[float, float]] = {}
    outer: int | None = None
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if vertex_count is None:
            if tokens[0] != "arrangement" or len(tokens) != 2 or not tokens[1].isdigit():
                raise ArrSyntaxError(lineno, "expected header 'arrangement <V>'")
            vertex_count = int(tokens[1])
            if vertex_count < 1:
                raise ArrSemanticError(lineno, "vertex count must be positive")
            continue
        if tokens[0] == "v":
            if len(tokens) != 6 or not tokens[1].isdigit():
                raise ArrSyntaxError(lineno, "expected 'v <id> <t0> <t1> <t2> <t3>'")
            vid = int(tokens[1])
            if vid >= vertex_count:
                raise ArrSemanticError(lineno, f"vertex {vid} out of range")
            if vid in seen_vertex:
                raise ArrSemanticError(lineno, f"vertex {vid} defined twice")
            seen_vertex.add(vid)
            for s, token in enumerate(tokens[2:]):
                d = 4 * vid + s
                refs[d] = _parse_dart(token, vertex_count, lineno)
                ref_line[d] = lineno
        elif tokens[0] == "coord":
            if len(tokens) != 4 or not tokens[1].isdigit():
                raise ArrSyntaxError(lineno, "expected 'coord <id> <x> <y>'")
            vid = int(tokens[1])
            if vid >= vertex_count:
                raise ArrSemanticError(lineno, f"vertex {vid} out of range")
            if vid in coords:
                raise ArrSemanticError(lineno, f"vertex {vid} has two coordinates")
            try:
                coords[vid] = (float(tokens[2]), float(tokens[3]))
            except ValueError:
                raise ArrSyntaxError(lineno, "coordinates must be numbers") from None
        elif tokens[0] == "outer":
            if len(tokens) != 2:
                raise ArrSyntaxError(lineno, "expected 'outer <vertex>.<slot>'")
            outer = _parse_dart(tokens[1], vertex_count, lineno)
        else:
            raise ArrSyntaxError(lineno, f"unknown directive {tokens[0]!r}")
    if vertex_count is None:
        raise ArrSyntaxError(last_line or 1, "missing 'arrangement' header")
    if len(seen_vertex) < vertex_count:
        missing = next(x for x in range(vertex_count) if x not in seen_vertex)
        raise ArrSyntaxError(
            last_line, f"truncated: no rotation line for vertex {missing}"
        )
    if coords and len(coords) < vertex_count:
        missing = next(x for x in range(vertex_count) if x not in coords)
        raise ArrSemanticError(
            last_line, f"no coordinates for vertex {missing}; give all or none"
        )
    twin = [refs[d] for d in range(4 * vertex_count)]
    for d, t in enumerate(twin):
        if twin[t] != d:
            raise ArrSemanticError(
                ref_line[d],
                f"twin mismatch: dart {d >> 2}.{d & 3} names {t >> 2}.{t & 3}, "
                f"which names {twin[t] >> 2}.{twin[t] & 3}",
            )
    return PlaneGraph(vertex_count, twin, coords=coords or None, outer_dart=outer)


def write_arr(g: PlaneGraph) -> str:
    """Canonical ARR text for a graph."""
    lines = [f"arrangement {g.vertex_count}"]
    refs = [f"{t >> 2}.{t & 3}" for t in map(g.twin, range(g.dart_count))]
    for v in range(g.vertex_count):
        lines.append(f"v {v} " + " ".join(refs[4 * v:4 * v + 4]))
    if g.coords:
        for v in sorted(g.coords):
            x, y = g.coords[v]
            lines.append(f"coord {v} {x!r} {y!r}")
    if g.outer_dart is not None:
        lines.append(f"outer {g.outer_dart >> 2}.{g.outer_dart & 3}")
    return "\n".join(lines) + "\n"


def format_path_certificate(
    cert: PathCertificate, names: Sequence[str] | None = None
) -> str:
    """One 'path:' line per disjoint path.  A compact certificate is
    expanded a path at a time and keeps no expansion.  ``names[v]`` is
    ``str(v)``, built once by a caller that prints many certificates."""
    name = str if names is None else names.__getitem__
    return "".join(
        "path: " + " ".join(map(name, path)) + "\n" for path in cert.iter_paths()
    )


def format_cut_certificate(cert: CutCertificate) -> str:
    return "cut: " + " ".join(str(v) for v in sorted(cert.cut)) + "\n"
