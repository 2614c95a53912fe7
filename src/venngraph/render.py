"""Straight-line SVG drawings of arrangements, on an exact integer grid.

The map is drawn by :func:`grid_layout`.  Each edge that shares both
ends with another edge gets a degree-2 midpoint, which keeps the faces
and their ids, and then every face, the outer one included, gets a
centre vertex joined to its corners.  When the map is connected and
plane and no face repeats a vertex or is a loop, that centre
triangulation is a simple plane triangulation, so it has a canonical
ordering (de Fraysseix, Pach and Pollack, "How to draw a planar graph
on a grid", 1990), and the shift method with Chrobak and Payne's
relative offsets ("A linear-time algorithm for drawing a planar graph
on a grid", 1995) places it on a (2N - 4) x (N - 2) grid of ints in
linear time, N being the number of vertices, midpoints and faces.  A
map that is not connected or not plane raises the error every verb
raises for that; a face that is no simple cycle is refused by name.
Nothing is assumed of the drawing itself: every triangle is checked
with exact integer cross products, and vertex connectivity is computed
only to explain a drawing that fails that check.

Every edge becomes one ``<path>`` element coloured by its curve, bent
at its midpoint if it has one, so the number of path elements equals
the edge count.  Optional overlays add one ``hamilton``-classed element
per cycle edge, one ``cert``-classed polyline per certified path, both
verified first and following the drawn edges, and one ``region-label``
text per face: its membership vector, venn_check's label XOR the outer
face's.  An inner face is labelled at its centre, which the check
proves inside it; the outer face, the one the map's ``outer`` hint
names, at the middle of the bottom margin, below every corner.  Between
two vertices joined by parallel edges, a cycle edge takes the first of
them and the i-th step of the certified paths the i-th, so paths along
distinct parallel edges are drawn apart.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import eq
from typing import Sequence

from .connectivity import PathCertificate, verify_certificate, vertex_connectivity
from .hamilton import verify_cycle
from .maps import DisconnectedError, MapError, NotPlaneError, PlaneGraph, RotationMap
from .validate import venn_check

_PALETTE = [
    "#c0392b", "#27ae60", "#2980b9", "#8e44ad", "#d35400",
    "#16a085", "#7f8c8d", "#c2185b", "#6d4c41", "#2c3e50",
]

# a vertex's place in the canonical ordering's removal, below
_INTERIOR, _CONTOUR, _REMOVED, _NEW = 0, 1, 2, 3


class LayoutUnavailableError(MapError):
    """The grid layout cannot draw a connected plane map."""


def _split_edges(g: RotationMap) -> list[int]:
    """The first dart of every edge that shares both end vertices with
    another edge, ascending; none when ``adjacency_sets`` shows every
    vertex with as many neighbours as darts."""
    if all(map(eq, map(len, g.adjacency_sets), g._degrees)):
        return []
    vertex_of, twin = g._vertex_of, g._twin
    edges = g.edges()
    ends = [frozenset((vertex_of[d], vertex_of[twin[d]])) for d in edges]
    count = Counter(ends)
    return [d for d, key in zip(edges, ends) if count[key] > 1]


def _with_midpoints(g: RotationMap, split: Sequence[int]) -> RotationMap:
    """g with a degree-2 vertex n + i, n being g's vertex count, inside
    the edge of dart ``split[i]``.  Its darts D + 2i and D + 2i + 1, D
    being g's dart count, point back to the ends of that dart and its
    twin.  Every other dart keeps its number, so each face keeps its
    smallest dart and its id."""
    size = g.dart_count
    twin = [*g._twin, *repeat(0, 2 * len(split))]
    for i, d in enumerate(split):
        a, t = size + 2 * i, twin[d]
        twin[d], twin[a], twin[t], twin[a + 1] = a, d, a + 1, t
    return RotationMap((*g._degrees, *repeat(2, len(split))), twin)


def _refusal(m: RotationMap) -> str | None:
    """The face of the connected plane map ``m`` that is not a simple
    cycle of three or more corners, named, or None when there is none."""
    vertex_of = m._vertex_of
    for f, boundary in enumerate(m.faces):
        if len(boundary) < 3 or len(set(map(vertex_of.__getitem__, boundary))) < len(boundary):
            return f"face {f} is not a simple cycle of 3 or more corners"
    return None


def _centre_triangulation(m: RotationMap) -> tuple[list[int], list[int], list[int]]:
    """Dart tables ``(head, nxt, back)`` of ``m`` with a centre vertex
    ``n + f`` in every face f, joined to f's corners.

    Dart d < D is m's own.  Dart D + b runs from b's vertex to the
    centre of b's face, just before b in rotation; dart 2D + b is its
    reverse, from that centre to b's vertex.  ``head[t]`` is the vertex
    dart t points to, ``nxt[t]`` the next dart counterclockwise round
    t's own vertex, and ``back[t]`` the reverse of t.  The centre's
    rotation is its face's boundary backwards, and the triangle of dart
    d is d's tail, d's head and the centre of d's face, in that order.
    """
    n, twin, vertex_of, offsets = m.vertex_count, m._twin, m._vertex_of, m._offsets
    size = len(twin)
    rot = list(range(1, size + 1))  # the next dart counterclockwise in m
    rot_back = list(range(-1, size - 1))
    for base, end in zip(offsets, offsets[1:]):
        rot[end - 1] = base
        rot_back[base] = end - 1
    # the boundary dart before b: the twin of the dart before b in rotation
    face_prev = map(twin.__getitem__, rot_back)
    head = [*map(vertex_of.__getitem__, twin), *[n + f for f in m.face_of], *vertex_of]
    nxt = [*[size + d for d in rot], *range(size), *[2 * size + b for b in face_prev]]
    back = [*twin, *range(2 * size, 3 * size), *range(size, 2 * size)]
    return head, nxt, back


def _canonical_order(
    head: list[int], nxt: list[int], back: list[int], e: int, size: int
) -> tuple[list[int], list[list[int]]]:
    """A canonical ordering of a simple plane triangulation on ``size``
    vertices whose outer face is the triangle of dart e: e's tail v1,
    e's head v2 and a top vertex.  Tables as in
    :func:`_centre_triangulation`.

    Vertices come off the top one at a time, so the ordering is built
    backwards.  The contour runs from v1 over the top of what is left
    to v2; a contour vertex other than v1 and v2 may come off when it
    has no chord, that is no edge to a contour vertex beside which it
    does not sit.  Its neighbours below it, read counterclockwise from
    its left contour neighbour to its right one, replace it on the
    contour.  Free vertices wait on a stack, so the ordering is
    deterministic; a vertex that gained a chord since it was pushed is
    skipped when popped.

    Returns ``(picked, rows)``: the vertices in the order they came off,
    the top first, and for each the contour beneath it, left to right.
    """
    v2 = head[e]
    to_top = nxt[back[e]]
    top = head[to_top]
    to_v1 = nxt[back[to_top]]
    v1 = head[to_v1]
    state = [_INTERIOR] * size
    chords = [0] * size
    left = [0] * size
    right = [0] * size
    to_left = [0] * size  # a contour vertex's dart to its left neighbour
    state[v1] = state[v2] = state[top] = _CONTOUR
    # a phantom chord each keeps v1 and v2 off the stack
    chords[v1] = chords[v2] = 1
    left[top], right[top], to_left[top] = v1, v2, to_v1
    right[v1] = left[v2] = top
    stack = [top]
    picked: list[int] = []
    rows: list[list[int]] = []
    for _ in range(size - 2):
        while stack:
            v = stack.pop()
            if state[v] == _CONTOUR and not chords[v]:
                break
        else:
            raise LayoutUnavailableError(
                "no contour vertex is free; the centre triangulation has no canonical ordering")
        state[v] = _REMOVED
        wp, wq = left[v], right[v]
        row = [wp]
        t = to_left[v]
        w = wp
        while w != wq:
            # below v and round to wq; v has a removed or contour
            # neighbour, so the walk ends within one turn
            t = nxt[t]
            prev, w = w, head[t]
            if w != wq and state[w] != _INTERIOR:
                raise LayoutUnavailableError(f"vertex {v} is not a contour ear")
            row.append(w)
            right[prev] = w
            left[w] = prev
            to_left[w] = nxt[back[t]]
        picked.append(v)
        rows.append(row)
        if len(row) == 2:  # the chord wp wq is now a contour edge
            for w in row:
                chords[w] -= 1
                if not chords[w]:
                    stack.append(w)
            continue
        new = row[1:-1]
        for w in new:
            state[w] = _NEW
        for w in new:
            lw, rw = left[w], right[w]
            t0 = t = to_left[w]
            count = 0
            while True:
                u = head[t]
                s = state[u]
                if s & 1 and u != lw and u != rw:  # a chord to the contour
                    count += 1
                    if s == _CONTOUR:
                        chords[u] += 1
                t = nxt[t]
                if t == t0:
                    break
            chords[w] = count
        for w in new:
            state[w] = _CONTOUR
            if not chords[w]:
                stack.append(w)
    return picked, rows


def _shift(
    size: int, picked: list[int], rows: list[list[int]], v1: int, v2: int
) -> tuple[list[int], list[int]]:
    """Grid positions ``(xs, ys)`` of a canonical ordering, placed by the
    shift method: v1 at (0, 0), v2 at (2 size - 4, 0).

    Each vertex goes where the line of slope 1 from its leftmost lower
    neighbour meets the line of slope -1 from its rightmost one, after
    everything from the second lower neighbour on moves right by one
    and everything from the last on by one more.  An x is held relative
    to its parent in a tree whose right spine is the contour, so a move
    costs O(1); the covered vertices hang off the new vertex.
    """
    dx = [0] * size
    ys = [0] * size
    below = [-1] * size  # tree children: first covered vertex ...
    after = [-1] * size  # ... and next along the contour
    v3 = picked[-1]
    dx[v3] = dx[v2] = ys[v3] = 1
    after[v1], after[v3] = v3, v2
    for v, row in zip(picked[-2::-1], rows[-2::-1]):
        wp, w1, wq = row[0], row[1], row[-1]
        dx[w1] += 1
        dx[wq] += 1
        span = 0  # x(wq) - x(wp)
        for w in row[1:]:
            span += dx[w]
        yp, yq = ys[wp], ys[wq]
        x = (span + yq - yp) // 2  # exact: contour edges have slope 1 or -1
        dx[v] = x
        ys[v] = (span + yp + yq) // 2
        dx[wq] = span - x
        after[wp], after[v] = v, wq
        if len(row) > 2:
            dx[w1] -= x
            below[v] = w1
            after[row[-2]] = -1
    xs = [0] * size
    stack = [v1]
    for _ in range(size + 1):
        if not stack:
            break
        p = stack.pop()
        for c in (below[p], after[p]):
            if c >= 0:
                xs[c] = xs[p] + dx[c]
                stack.append(c)
    else:
        raise LayoutUnavailableError("the shift tree has a cycle")
    return xs, ys


def _flat_or_folded_face(
    m: RotationMap, outer: int, xs: list[int], ys: list[int]
) -> int | None:
    """The face of the first triangle of the centre triangulation that is
    drawn flat or turned the wrong way, or None when there is none.

    The triangle of dart d is d's tail, d's head and the centre of d's
    face.  Every one must turn clockwise, and the outer triangle, that
    of dart ``outer``, counterclockwise, by exact integer cross products.
    """
    n, vertex_of = m.vertex_count, m._vertex_of
    for d, (t, f) in enumerate(zip(m._twin, m.face_of)):
        a, b, c = vertex_of[d], vertex_of[t], n + f
        ax, ay = xs[a], ys[a]
        turn = (xs[b] - ax) * (ys[c] - ay) - (ys[b] - ay) * (xs[c] - ax)
        if (turn if d == outer else -turn) <= 0:
            return f
    return None


def grid_layout(g: PlaneGraph) -> dict[int, tuple[int, int]]:
    """An exact straight-line drawing of ``g`` on an integer grid, in
    which every face is star-shaped from a point inside it.  With n
    vertices and k edges that share both ends with another edge
    (:func:`_split_edges`), vertex v is at key v, the midpoint bending
    the i-th of those edges at key n + i, and the centre of each inner
    face f at key n + k + f.  The outer face alone has no key.

    Raises :class:`DisconnectedError` or :class:`NotPlaneError` when
    ``g`` is not connected or not plane, and :class:`LayoutUnavailableError`
    naming the first face that, midpoints included
    (:func:`_with_midpoints`), is not a simple cycle of three or more
    corners: one that repeats a vertex or is a loop.  Those are exactly
    the maps whose centre triangulation (:func:`_centre_triangulation`)
    is a simple plane triangulation, with N = n + k + F vertices.  The
    outer face is the stored hint when present, otherwise the face with
    the longest boundary (lowest id on ties), and its first dart, from
    v1 to v2, is the base of the canonical ordering
    (:func:`_canonical_order`) that :func:`_shift` places on the
    (2N - 4) x (N - 2) grid.

    The drawing is then checked, not assumed (:func:`_flat_or_folded_face`):
    every triangle turns clockwise and the outer triangle v1 v2 c, c the
    outer face's centre, counterclockwise.  That proves the drawing
    plane by a degree argument: the clockwise triangles glue into a disc
    whose boundary is the outer triangle drawn once round, so a point
    off the edges is covered by as many triangles as that triangle
    winds round it, once inside and never outside.  Dropping the
    centres then leaves every face star-shaped from its centre, and the
    centre of an inner face, ringed by its own triangles, strictly
    inside it; the outer face's centre lies above the drawing.  A
    triangulation with a canonical ordering always passes, so a failure
    here is a bug; it raises :class:`LayoutUnavailableError` too,
    naming the face and the graph's vertex connectivity, computed only
    then.
    """
    if not g.is_connected:
        raise DisconnectedError("the grid layout needs a connected map")
    if not g.is_planar:
        raise NotPlaneError("the grid layout needs a plane map")
    split = _split_edges(g)
    m = _with_midpoints(g, split) if split else g
    reason = _refusal(m)
    if reason is not None:
        raise LayoutUnavailableError(reason)
    faces = m.faces
    if g.outer_dart is not None:
        outer = m.face_of[g.outer_dart]
    else:
        outer = max(range(len(faces)), key=lambda f: len(faces[f]))
    e = m.face_first[outer]
    size = m.vertex_count + len(faces)
    head, nxt, back = _centre_triangulation(m)
    picked, rows = _canonical_order(head, nxt, back, e, size)
    xs, ys = _shift(size, picked, rows, m._vertex_of[e], head[e])
    face = _flat_or_folded_face(m, e, xs, ys)
    if face is not None:
        raise LayoutUnavailableError(
            f"grid layout draws face {face} flat or folded; "
            f"connectivity is {vertex_connectivity(g)[0]}")
    top = m.vertex_count + outer
    return {v: (xs[v], ys[v]) for v in range(size) if v != top}


def barycentric_layout(g: PlaneGraph) -> dict[int, tuple[float, float]]:
    """:func:`grid_layout` with each integer coordinate given as the
    float equal to it.

    The name dates from the averaging layout this replaced and is kept
    for its callers: ``perfbench/spans.py`` times the layout under it.
    """
    return {v: (float(x), float(y)) for v, (x, y) in grid_layout(g).items()}


def _viewport(points: Sequence[tuple[float, float]], size: float, margin: float):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0) or 1.0
    scale = (size - 2 * margin) / span

    def to_screen(p: tuple[float, float]) -> tuple[float, float]:
        return margin + (p[0] - x0) * scale, size - margin - (p[1] - y0) * scale

    return to_screen


def render_svg(
    g: PlaneGraph,
    labels: bool = False,
    hamilton: Sequence[int] | None = None,
    cert: PathCertificate | None = None,
    size: int = 760,
) -> str:
    """An SVG 1.1 document for the arrangement, drawn by :func:`grid_layout`.

    ``hamilton`` overlays a vertex cycle; ``cert`` overlays the paths of a
    :class:`~venngraph.connectivity.PathCertificate`, such as the
    ``certificate`` of :func:`~venngraph.connectivity.proof_paths`;
    ``labels`` writes each region's membership vector in binary, placed
    as the module docstring says.  An overlay that ``verify_cycle`` or
    ``verify_certificate`` rejects on g raises :class:`ValueError`.
    """
    if hamilton is not None and not verify_cycle(g, hamilton):
        raise ValueError("the hamilton overlay is not a Hamilton cycle of the map")
    if cert is not None and not verify_certificate(g, cert):
        raise ValueError("the cert overlay fails verification on the map")
    pos = barycentric_layout(g)
    n = g.vertex_count
    split = _split_edges(g)
    corners = n + len(split)
    to_screen = _viewport([pos[v] for v in range(corners)], size, margin=40)
    vertex_of, twin = g._vertex_of, g._twin
    bend = dict(zip(split, range(n, corners)))
    # the midpoints of the parallel edges that join two vertices, in
    # edge order, shared by both orders of the two
    via: dict[tuple[int, int], list[int]] = {}
    for d in split:
        a, b = vertex_of[d], vertex_of[twin[d]]
        via[b, a] = via.setdefault((a, b), [])
        via[a, b].append(bend[d])

    def drawn(a: int, b: int, i: int = 0) -> list[tuple[float, float]]:
        """The screen points of the i-th drawn edge from a to b, ends
        included, counting round when a and b have fewer edges."""
        mids = via.get((a, b))
        route = (a, b) if mids is None else (a, mids[i % len(mids)], b)
        return [to_screen(pos[v]) for v in route]

    curve_of = g.curve_of
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    for d in g.edges():
        x1, y1 = to_screen(pos[vertex_of[d]])
        x2, y2 = to_screen(pos[vertex_of[twin[d]]])
        mid = bend.get(d)
        bent = "" if mid is None else "{:.2f} {:.2f} L ".format(*to_screen(pos[mid]))
        color = _PALETTE[curve_of[d] % len(_PALETTE)]
        out.append(
            f'<path class="edge curve-{curve_of[d]}" '
            f'd="M {x1:.2f} {y1:.2f} L {bent}{x2:.2f} {y2:.2f}" '
            f'stroke="{color}" stroke-width="2" fill="none"/>'
        )
    if hamilton is not None:
        order = list(hamilton)
        style = 'stroke="#f1c40f" stroke-width="5" stroke-opacity="0.55"'
        for a, b in zip(order, order[1:] + order[:1]):
            points = drawn(a, b)
            if len(points) == 2:
                (x1, y1), (x2, y2) = points
                out.append(f'<line class="hamilton" x1="{x1:.2f}" y1="{y1:.2f}" '
                           f'x2="{x2:.2f}" y2="{y2:.2f}" {style}/>')
            else:
                pts = " ".join("{:.2f},{:.2f}".format(*p) for p in points)
                out.append(f'<polyline class="hamilton" points="{pts}" fill="none" {style}/>')
    if cert is not None:
        # the i-th step between two vertices, over all the paths, takes
        # the i-th of their edges, so paths along parallel edges part
        taken: Counter[tuple[int, int]] = Counter()
        for i, path in enumerate(cert.iter_paths()):
            points = [to_screen(pos[path[0]])]
            for a, b in zip(path, path[1:]):
                key = (a, b) if a < b else (b, a)
                points += drawn(a, b, taken[key])[1:]
                taken[key] += 1
            pts = " ".join("{:.2f},{:.2f}".format(*p) for p in points)
            out.append(
                f'<polyline class="cert cert-path-{i}" points="{pts}" '
                f'fill="none" stroke="#111111" stroke-width="4" '
                f'stroke-opacity="0.5" stroke-dasharray="{3 + 3 * i} 4"/>'
            )
    for v in range(n):
        x, y = to_screen(pos[v])
        out.append(
            f'<circle class="vertex" cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
            f'fill="#222222"/>'
        )
        out.append(
            f'<text class="vertex-id" x="{x + 5:.2f}" y="{y - 5:.2f}" '
            f'font-size="10" font-family="sans-serif">{v}</text>'
        )
    if labels:
        report = venn_check(g)
        width = max(report.curve_count, 1)
        anchors = [pos.get(corners + f) for f in range(len(g.face_first))]
        outer_label = report.labels[anchors.index(None)]
        # the outer label's baseline: in the bottom margin, below the
        # lowest corner and so below every straight segment
        for f, at in enumerate(anchors):
            cx, cy = (size / 2, size - 24) if at is None else to_screen(at)
            text = format(report.labels[f] ^ outer_label, f"0{width}b")
            out.append(
                f'<text class="region-label" x="{cx:.2f}" y="{cy:.2f}" '
                f'font-size="11" font-family="monospace" '
                f'text-anchor="middle">{text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
