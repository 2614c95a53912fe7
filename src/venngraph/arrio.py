"""The ARR text format and line-oriented certificate blocks.

Grammar::

    arrangement <V>
    v <id> <n0>.<s0> <n1>.<s1> <n2>.<s2> <n3>.<s3>
    coord <id> <x> <y>          # optional: checked, then ignored
    outer <vertex>.<slot>       # optional, at most once: rendering hint only

One ``v`` line per vertex, ids 0..V-1, listing the twin of each of the
vertex's four darts counterclockwise as ``vertex.slot``.  ``#`` starts a
comment; blank lines are ignored.  Twin references must reciprocate:
if dart (a, i) names (b, j) then (b, j) must name (a, i).

``coord`` lines are accepted for files written by older versions: each
must name a vertex once with finite numbers, for all vertices or none,
and is then dropped, since a map holds no coordinates.  Writing is
canonical (vertices ascending, slots in order, the ``outer`` hint
last), so ``write(parse(write(g))) == write(g)``.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import isfinite
from typing import Iterable

from .connectivity import CutCertificate, NotAVertexError, PathCertificate, Piece, Segment
from .maps import CurveIndex, NonInvolutiveTwinError, PlaneGraph, SelfTwinError


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


def _parse_darts(tokens: list[str], vertex_count: int, line: int) -> list[int]:
    """The darts named by ``vertex.slot`` tokens, in order."""
    darts = []
    for token in tokens:
        # str.isdecimal accepts exactly the characters of the regex class \d
        v, dot, s = token.partition(".")
        if not (dot and v.isdecimal() and s.isdecimal()):
            raise ArrSyntaxError(line, f"expected vertex.slot, got {token!r}")
        v, s = int(v), int(s)
        if v >= vertex_count:
            raise ArrSemanticError(line, f"vertex {v} out of range 0..{vertex_count - 1}")
        if s >= 4:
            raise ArrSemanticError(line, f"slot {s} out of range 0..3")
        darts.append(4 * v + s)
    return darts


def parse_arr(text: str) -> PlaneGraph:
    """Parse ARR text into a graph; errors carry line numbers."""
    vertex_count: int | None = None
    # the twins of each 'v' line in line order, and per vertex where its
    # four start and its line: nothing of size O(V) is allocated before
    # the rotation lines are known to exist, and no object per line outlives it
    refs: list[int] = []
    row_at: dict[int, int] = {}
    row_line: dict[int, int] = {}
    coords: set[int] = set()  # the vertices with a coord line, checked and dropped
    outer: int | None = None
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        directive = tokens[0]
        if vertex_count is None:
            if directive != "arrangement" or len(tokens) != 2 or not tokens[1].isdecimal():
                raise ArrSyntaxError(lineno, "expected header 'arrangement <V>'")
            vertex_count = int(tokens[1])
            if vertex_count < 1:
                raise ArrSemanticError(lineno, "vertex count must be positive")
            continue
        if directive == "v":
            if len(tokens) != 6 or not tokens[1].isdecimal():
                raise ArrSyntaxError(lineno, "expected 'v <id> <t0> <t1> <t2> <t3>'")
            vid = int(tokens[1])
            if vid >= vertex_count:
                raise ArrSemanticError(lineno, f"vertex {vid} out of range")
            if vid in row_at:
                raise ArrSemanticError(lineno, f"vertex {vid} defined twice")
            row_at[vid] = len(refs)
            refs += _parse_darts(tokens[2:], vertex_count, lineno)
            row_line[vid] = lineno
        elif directive == "coord":
            if len(tokens) != 4 or not tokens[1].isdecimal():
                raise ArrSyntaxError(lineno, "expected 'coord <id> <x> <y>'")
            vid = int(tokens[1])
            if vid >= vertex_count:
                raise ArrSemanticError(lineno, f"vertex {vid} out of range")
            if vid in coords:
                raise ArrSemanticError(lineno, f"vertex {vid} has two coordinates")
            try:
                x, y = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise ArrSyntaxError(lineno, "coordinates must be numbers") from None
            if not (isfinite(x) and isfinite(y)):
                raise ArrSyntaxError(lineno, "coordinates must be finite numbers")
            coords.add(vid)
        elif directive == "outer":
            if len(tokens) != 2:
                raise ArrSyntaxError(lineno, "expected 'outer <vertex>.<slot>'")
            if outer is not None:
                raise ArrSemanticError(lineno, "outer hint given twice")
            (outer,) = _parse_darts(tokens[1:], vertex_count, lineno)
        else:
            raise ArrSyntaxError(lineno, f"unknown directive {directive!r}")
    if vertex_count is None:
        raise ArrSyntaxError(last_line or 1, "missing 'arrangement' header")
    if len(row_at) < vertex_count:
        missing = next(x for x in range(vertex_count) if x not in row_at)
        raise ArrSyntaxError(
            last_line, f"truncated: no rotation line for vertex {missing}"
        )
    if coords and len(coords) < vertex_count:
        missing = next(x for x in range(vertex_count) if x not in coords)
        raise ArrSemanticError(
            last_line, f"no coordinates for vertex {missing}; give all or none"
        )
    twin = list(chain.from_iterable(
        refs[i:i + 4] for i in map(row_at.__getitem__, range(vertex_count))))
    try:
        return PlaneGraph(vertex_count, twin, outer_dart=outer)
    except (SelfTwinError, NonInvolutiveTwinError) as exc:
        # the constructor names the first dart that fails its twin test
        d = exc.dart
        t = twin[d]
        if t == d:
            message = f"dart {d >> 2}.{d & 3} names itself"
        else:
            message = (f"twin mismatch: dart {d >> 2}.{d & 3} names {t >> 2}.{t & 3}, "
                       f"which names {twin[t] >> 2}.{twin[t] & 3}")
        raise ArrSemanticError(row_line[d >> 2], message) from None


def write_arr(g: PlaneGraph) -> str:
    """Canonical ARR text for a graph."""
    lines = [f"arrangement {g.vertex_count}"]
    refs = iter([f"{t >> 2}.{t & 3}" for t in g._twin])
    lines += [f"v {v} {a} {b} {c} {d}"
              for v, a, b, c, d in zip(range(g.vertex_count), refs, refs, refs, refs)]
    if g.outer_dart is not None:
        lines.append(f"outer {g.outer_dart >> 2}.{g.outer_dart & 3}")
    return "\n".join(lines) + "\n"


class PathNames:
    """Vertex names for printing the paths of one graph's certificates.

    ``vertex[v]`` is ``str(v)`` for v in 0..V-1 only, so a run or a
    curve through any other number raises :class:`NotAVertexError` rather
    than printing the name it would alias.  A curve :class:`Segment`
    prints as one slice of its curve's names joined in its direction, or
    two slices when it wraps round the curve; each curve is joined once
    per direction, the first time a segment on it is printed.  A segment
    with no index or outside it, or with a step other than 1 or -1,
    raises :class:`ValueError` instead (:meth:`Segment.cycle`).
    """

    def __init__(self, g: PlaneGraph):
        self.vertex = {v: str(v) for v in range(g.vertex_count)}
        self._index: CurveIndex | None = None
        self._joined: dict[tuple[int, bool], tuple[str, list[int]]] = {}

    def _names(self, run: Iterable[int]) -> list[str]:
        try:
            return list(map(self.vertex.__getitem__, run))
        except KeyError as e:
            raise NotAVertexError(f"path vertex {e.args[0]} is not a vertex") from None

    def _curve(self, index: CurveIndex, c: int, forward: bool) -> tuple[str, list[int]]:
        """Curve c's names joined in curve order or against it, and where
        the name of each place in that order starts; the list ends one
        past the joined text."""
        if index is not self._index:
            self._index, self._joined = index, {}
        key = (c, forward)
        if key not in self._joined:
            cycle = index.curve_vertices[c]
            names = self._names(cycle if forward else reversed(cycle))
            starts = list(accumulate((len(name) + 1 for name in names), initial=0))
            self._joined[key] = (" ".join(names), starts)
        return self._joined[key]

    def path(self, index: CurveIndex | None, pieces: tuple[Piece, ...]) -> str:
        """The names of one compact path, space-separated, the same as
        those of its vertex tuple: a piece that starts where the one
        before it ended leaves that vertex out."""
        parts: list[str] = []
        last = None
        for piece in pieces:
            if type(piece) is Segment:
                cycle = piece.cycle(index)
                c, start, end, step = piece
                length = len(cycle)
                first, last_before = cycle[start], last
                last = cycle[end]
                joined, starts = self._curve(index, c, step == 1)
                a, b = (start, end) if step == 1 else (length - 1 - start, length - 1 - end)
                if first == last_before:
                    if a == b:
                        continue
                    a = (a + 1) % length
                stop = starts[b + 1] - 1
                parts.append(joined[starts[a]:stop] if a <= b
                             else joined[starts[a]:] + " " + joined[:stop])
                continue
            run = piece[1:] if piece and piece[0] == last else piece
            if run:
                parts.append(" ".join(self._names(run)))
                last = run[-1]
        return " ".join(parts)


def format_path_certificate(cert: PathCertificate, names: PathNames) -> str:
    """One 'path:' line per disjoint path, named by the graph's
    :class:`PathNames`, built once by a caller that prints many
    certificates; a compact certificate is printed without keeping any
    expansion."""
    return "".join("path: " + names.path(cert.index, path) + "\n" for path in cert.pieces)


def format_cut_certificate(cert: CutCertificate) -> str:
    return "cut: " + " ".join(str(v) for v in sorted(cert.cut)) + "\n"
