"""Reference arrangements: the 3-circle diagram, iterated extensions, weaves.

All generators are deterministic; repeated calls return dart-identical
graphs.  A generated map is built in two steps.  The first gives each
curve its crossings: :func:`_crossing_rings` is the one place geometry is
used, to order the crossings along each circle and round each crossing;
``from_circles`` also reads it to name the unbounded region by the map's
``outer`` hint.  The second, :func:`_thread`, joins each curve's
crossings in curve order into a twin table; ``gen_weave`` hands it its
two curves directly.  ``gen_venn(n >= 4)`` does not: ``winkler_extend``
copies the twin table and patches four entries per new crossing
(ROADMAP item 20 says why).  The emitted map keeps no coordinates.
"""

from __future__ import annotations

import math
from typing import Sequence

from .maps import PlaneGraph

_EPS = 1e-9

Circle = tuple[float, float, float]

# gen_venn(12) has 4094 crossings and takes about 0.03 s (CPython 3.11, one
# core of a shared 2-vCPU machine); the extension is linear, so each
# further curve doubles time and memory.
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


def _crossing_rings(
    circles: Sequence[Circle],
) -> tuple[list[tuple[float, float]], list[list[tuple[float, int, int]]]]:
    """The crossings of circle pairs i < j in order, each pair's two points
    sorted, and each circle's ring: per crossing on it, in crossing order,
    (angle round the centre, dart leaving counterclockwise, dart leaving
    clockwise).

    A dart's slot is the rank of its direction among the four at the
    crossing.  Each circle's two directions there are opposite, so the two
    circles' directions interleave: the smaller of their lower angles ranks
    0, the other circle's lower angle 1, and each higher angle two places
    after its circle's lower one.
    """
    points: list[tuple[float, float]] = []
    rings: list[list[tuple[float, int, int]]] = [[] for _ in circles]
    for i, (ax, ay, _) in enumerate(circles):
        for j in range(i + 1, len(circles)):
            bx, by, _ = circles[j]
            for p in sorted(_circle_pair_points(circles[i], circles[j])):
                d = 4 * len(points)  # the crossing's slot-0 dart
                points.append(p)
                ux, uy = p[0] - ax, p[1] - ay
                wx, wy = p[0] - bx, p[1] - by
                # each circle's tangent directions, counterclockwise first
                a_ccw, a_cw = math.atan2(ux, -uy), math.atan2(-ux, uy)
                b_ccw, b_cw = math.atan2(wx, -wy), math.atan2(-wx, wy)
                a_low = 0 if min(a_ccw, a_cw) <= min(b_ccw, b_cw) else 1
                a = d + (a_low if a_ccw < a_cw else a_low + 2)
                b = d + (1 - a_low if b_ccw < b_cw else 3 - a_low)
                rings[i].append((math.atan2(uy, ux), a, a ^ 2))
                rings[j].append((math.atan2(wy, wx), b, b ^ 2))
    return points, rings


def _thread(
    vertex_count: int, rings: Sequence[Sequence[tuple[int, int]]], outer_dart: int | None = None
) -> PlaneGraph:
    """The map whose curves are ``rings``: each ring lists one curve's
    crossings in curve order as (forward dart, backward dart), and each
    forward dart meets the backward dart of the next crossing."""
    twin = [-1] * (4 * vertex_count)
    for ring in rings:
        for (fwd, _), (_, bwd) in zip(ring, ring[1:] + ring[:1]):
            twin[fwd] = bwd
            twin[bwd] = fwd
    return PlaneGraph(vertex_count, twin, outer_dart=outer_dart)


def from_circles(circles: Sequence[Circle]) -> PlaneGraph:
    """Build the crossing map of a family of circles in general position.

    Every circle must cross at least one other circle (an isolated circle
    has no darts and cannot be represented).  Non-finite circles, radii
    that are not positive, tangencies, concentric pairs and near-coincident
    crossing points are rejected.  Vertices are the crossings of circle
    pairs i < j in order, each pair's two points sorted, and
    ``outer_dart`` names the unbounded region.
    """
    for c, (x, y, r) in enumerate(circles):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(r) and r > 0):
            raise ValueError(f"circle {c} is not a finite circle of positive radius")
    points, rings = _crossing_rings(circles)
    if not points:
        raise ValueError("no crossings: nothing to build")
    for c, ring in enumerate(rings):
        if not ring:
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
    rings = [[(ccw, cw) for _, ccw, cw in sorted(ring)] for ring in rings]
    # the unbounded region touches the circle that reaches furthest left
    # at its leftmost point, angle pi, on the arc from its last crossing by
    # angle to its first; the region lies right of that arc's
    # counterclockwise dart, in the face ``face_of`` gives the dart
    left = min(range(len(circles)), key=lambda c: circles[c][0] - circles[c][2])
    return _thread(len(points), rings, outer_dart=rings[left][-1][0])


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
    # crossing i holds curve A at slots p and p + 2 and curve B at the
    # other two, with p = i % 2 on A and 1 - i % 2 on B, forward first
    return _thread(
        2 * k,
        [[(4 * i + (i + c) % 2, 4 * i + 2 + (i + c) % 2) for i in range(2 * k)] for c in (0, 1)],
    )
