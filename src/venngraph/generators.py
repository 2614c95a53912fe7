"""Reference arrangements: the 3-circle diagram, iterated extensions, weaves.

All generators are deterministic; repeated calls return dart-identical
graphs.  Geometry is used only in :func:`from_circles`, to order the
crossings along each circle and round each crossing, and to name the
unbounded region by the map's ``outer`` hint; the emitted map keeps no
coordinates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

from .maps import PlaneGraph

_EPS = 1e-9

Circle = tuple[float, float, float]

# gen_venn(12) has 4094 crossings and takes about 0.15 s; the extension is
# linear, so each further curve doubles time and memory.
MAX_VENN_CURVES = 12


def _circle_pair_points(a: Circle, b: Circle) -> list[tuple[float, float]]:
    """Transverse intersection points of two circles (0 or 2 of them)."""
    ax, ay, ar = a
    bx, by, br = b
    dx, dy = bx - ax, by - ay
    d = math.hypot(dx, dy)
    if d < _EPS:
        raise ValueError("concentric circles are not in general position")
    if abs(d - (ar + br)) < _EPS or abs(d - abs(ar - br)) < _EPS:
        raise ValueError("tangent circles are not in general position")
    if d > ar + br or d < abs(ar - br):
        return []
    # foot of the radical axis on the center line, then the half-chord
    t = (d * d + ar * ar - br * br) / (2 * d)
    h = math.sqrt(ar * ar - t * t)
    mx, my = ax + t * dx / d, ay + t * dy / d
    ox, oy = -dy / d * h, dx / d * h
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


def from_circles(circles: Sequence[Circle]) -> PlaneGraph:
    """Build the crossing map of a family of circles in general position.

    Every circle must cross at least one other circle (an isolated circle
    has no darts and cannot be represented).  Tangencies, concentric pairs
    and near-coincident crossing points are rejected.  Vertices are the
    crossings of circle pairs i < j in order, each pair's two points
    sorted, and ``outer_dart`` names the unbounded region.
    """
    points: list[tuple[float, float]] = []
    on_circle: dict[int, list[int]] = defaultdict(list)
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            inter = _circle_pair_points(circles[i], circles[j])
            if not inter:
                continue
            for p in sorted(inter):
                vid = len(points)
                points.append(p)
                on_circle[i].append(vid)
                on_circle[j].append(vid)
    if not points:
        raise ValueError("no crossings: nothing to build")
    for c in range(len(circles)):
        if not on_circle[c]:
            raise ValueError(f"circle {c} crosses nothing; not representable")
    # sweep by x: a pair closer than 1e-6 is also closer than 1e-6 in x
    swept = sorted(points)
    for i, p in enumerate(swept):
        for j in range(i + 1, len(swept)):
            q = swept[j]
            if q[0] - p[0] >= 1e-6:
                break
            if math.dist(p, q) < 1e-6:
                raise ValueError("coincident crossings; not in general position")

    def ccw_tangent(c: int, vid: int) -> tuple[float, float]:
        cx, cy, _ = circles[c]
        px, py = points[vid]
        rx, ry = px - cx, py - cy
        return -ry, rx

    # slot layout per vertex: the four edge-end directions sorted ccw
    slot_of: dict[tuple[int, int, int], int] = {}  # (vertex, circle, sense)
    circles_at: dict[int, list[int]] = defaultdict(list)
    for c, vids in on_circle.items():
        for vid in vids:
            circles_at[vid].append(c)
    for vid, cs in circles_at.items():
        dirs = []
        for c in cs:
            tx, ty = ccw_tangent(c, vid)
            dirs.append((math.atan2(ty, tx), c, +1))
            dirs.append((math.atan2(-ty, -tx), c, -1))
        dirs.sort()
        for s, (_, c, sense) in enumerate(dirs):
            slot_of[(vid, c, sense)] = s

    # the unbounded region touches the circle that reaches furthest left
    # at its leftmost point, angle pi, on the arc from its last crossing by
    # angle to its first; the region lies right of that arc's
    # counterclockwise dart, in the face ``face_of`` gives the dart
    left = min(range(len(circles)), key=lambda c: circles[c][0] - circles[c][2])
    twin = [-1] * (4 * len(points))
    for c, vids in on_circle.items():
        cx, cy, _ = circles[c]
        ring = sorted(
            vids, key=lambda vid: math.atan2(points[vid][1] - cy, points[vid][0] - cx)
        )
        for idx, v in enumerate(ring):
            w = ring[(idx + 1) % len(ring)]
            dv = 4 * v + slot_of[(v, c, +1)]
            dw = 4 * w + slot_of[(w, c, -1)]
            twin[dv] = dw
            twin[dw] = dv
        if c == left:
            outer = dv  # leaves the last crossing in the ring
    return PlaneGraph(len(points), twin, outer_dart=outer)


def gen_venn3() -> PlaneGraph:
    """Three unit circles centered on a unit-side equilateral triangle.

    The classic 3-circle diagram: 6 crossings, 12 edges, 8 regions.
    """
    return from_circles(
        [
            (0.0, 0.0, 1.0),
            (1.0, 0.0, 1.0),
            (0.5, math.sqrt(3.0) / 2.0, 1.0),
        ]
    )


def gen_venn(n: int) -> PlaneGraph:
    """The 3-circle diagram extended n-3 times by a new curve.

    Every intermediate step is re-validated by the extension itself, so a
    failure anywhere in the chain surfaces immediately.  The result has
    2^n - 2 crossings, so n is capped at :data:`MAX_VENN_CURVES`.
    """
    if n < 3:
        raise ValueError("need at least three curves")
    if n > MAX_VENN_CURVES:
        raise ValueError(
            f"{n} curves would need {2**n - 2} crossings; "
            f"at most {MAX_VENN_CURVES} curves are generated"
        )
    from .dual import winkler_extend

    g = gen_venn3()
    for _ in range(n - 3):
        g = winkler_extend(g)
    return g


def gen_weave(k: int) -> PlaneGraph:
    """Two closed curves weaving across each other at 2k crossings.

    Crossings 0..2k-1 sit on a ring; each consecutive pair is joined by a
    parallel edge from each curve, bounding a lens.  Lenses alternate sides
    of the ring, which is what the alternating rotation phase below encodes.
    The result is connected and in general position but violates unique
    face incidence: each big ring face meets each curve k times.
    """
    if k < 2:
        raise ValueError("need at least 2 crossings per half (k >= 2)")
    n = 2 * k

    # slot layout at crossing i (phase alternates with parity):
    #   even i: 0 = A forward, 1 = B forward, 2 = A back, 3 = B back
    #   odd  i: 0 = B forward, 1 = A forward, 2 = B back, 3 = A back
    def a_fwd(i: int) -> int:
        return 4 * i + (0 if i % 2 == 0 else 1)

    def a_bwd(i: int) -> int:
        return 4 * i + (2 if i % 2 == 0 else 3)

    def b_fwd(i: int) -> int:
        return 4 * i + (1 if i % 2 == 0 else 0)

    def b_bwd(i: int) -> int:
        return 4 * i + (3 if i % 2 == 0 else 2)

    twin = [-1] * (4 * n)
    for i in range(n):
        j = (i + 1) % n
        twin[a_fwd(i)] = a_bwd(j)
        twin[a_bwd(j)] = a_fwd(i)
        twin[b_fwd(i)] = b_bwd(j)
        twin[b_bwd(j)] = b_fwd(i)
    return PlaneGraph(n, twin)
