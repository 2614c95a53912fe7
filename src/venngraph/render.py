"""Straight-line SVG drawings of arrangements.

Geometry comes from stored coordinates when present; otherwise interior
vertices are placed at the average of their neighbours with one face fixed
as a convex polygon, solved by sparse conjugate gradients.  Tutte's
theorem makes that averaging layout a straight-line embedding whenever
the graph is 3-connected, but nothing is assumed: the drawing is checked
face by face after the solve (:func:`barycentric_layout`), and vertex
connectivity is computed only to explain a drawing that fails.

Every edge becomes one ``<path>`` element coloured by its curve, so the
number of path elements in the output equals the edge count.  Optional
overlays add one ``hamilton``-classed element per cycle edge and one
``cert``-classed polyline per certified path.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .connectivity import ProofPathsResult, vertex_connectivity
from .maps import MapError, PlaneGraph
from .validate import venn_check

_PALETTE = [
    "#c0392b", "#27ae60", "#2980b9", "#8e44ad", "#d35400",
    "#16a085", "#7f8c8d", "#c2185b", "#6d4c41", "#2c3e50",
]

_SOLVE_TOLERANCE = 1e-9

# A fan triangle whose signed area is not beyond this counts as flat.  A
# cross product of points in the unit disk is off by about 1e-15 at most;
# the smallest face of gen_venn(12) has area 1.8e-10.
_AREA_TOLERANCE = 1e-14


class LayoutUnavailableError(MapError):
    """No coordinates, and the averaging layout is not a plane drawing."""


def _solve(nbr: np.ndarray, diag: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for ``A x = b``, where
    ``(A x)[i] = 4 x[i] - sum(x[nbr[:, i]])``; the four rows of ``nbr``
    name each vertex's neighbours, fixed ones as the sentinel ``len(b)``,
    which reads as 0.  A is the interior block of a graph Laplacian,
    symmetric and positive definite when every interior vertex reaches a
    fixed one, and ``diag`` is its diagonal.  Both coordinates ride in
    one complex vector: conjugate gradients on the block-diagonal real
    system of twice the size."""
    m = len(b)
    ext = np.zeros(m + 1, dtype=complex)

    def apply(x: np.ndarray) -> np.ndarray:
        ext[:m] = x
        return 4.0 * x - ext[nbr].sum(axis=0)

    # stop once |r| <= 1e-4 _SOLVE_TOLERANCE, read off the preconditioned
    # norm: |r|^2 <= max(diag) (r, r / diag)
    x = np.zeros(m, dtype=complex)
    r = b.copy()
    with np.errstate(all="ignore"):
        stop = (1e-4 * _SOLVE_TOLERANCE) ** 2 / diag.max()
        z = r / diag
        p = z
        rz = np.vdot(r, z).real
        for _ in range(4 * m + 100):
            if not rz > stop:
                break
            q = apply(p)
            alpha = rz / np.vdot(p, q).real
            x += alpha * p
            r -= alpha * q
            z = r / diag
            rz, previous = np.vdot(r, z).real, rz
            p = z + (rz / previous) * p
        residual = np.abs(apply(x) - b).max()
    if not residual <= _SOLVE_TOLERANCE:
        raise LayoutUnavailableError(f"layout solve residual {residual:g}")
    return x


def _folded_face(g: PlaneGraph, outer_id: int, z: np.ndarray) -> int | None:
    """The first inner face whose drawing is not a proper polygon turned
    against the outer ring, or None when every one is.

    Each inner face is cut into the fan of triangles from its first
    vertex, and every triangle must have signed area below
    ``-_AREA_TOLERANCE`` (NaN fails).  A face with fewer than three
    corners has no area and fails.
    """
    tri = []
    for f, boundary in enumerate(g.faces):
        if f == outer_id:
            continue
        if len(boundary) < 3:
            return f
        first = boundary[0] >> 2
        tri.extend((f, first, d >> 2, e >> 2)
                   for d, e in zip(boundary[1:-1], boundary[2:]))
    if not tri:
        return None
    fid, a, b, c = np.array(tri).T
    area = 0.5 * (np.conj(z[b] - z[a]) * (z[c] - z[a])).imag
    bad = ~(-area > _AREA_TOLERANCE)
    return int(fid[bad.argmax()]) if bad.any() else None


def barycentric_layout(g: PlaneGraph) -> dict[int, tuple[float, float]]:
    """Fix one face on a circle, average everything else into place, and
    certify that the result is a plane drawing.

    The outer face is the stored hint when present, otherwise the face
    with the longest boundary (lowest id on ties).  Its boundary goes
    counterclockwise round the unit circle, and every other vertex sits
    at the average of its neighbours, solved by :func:`_solve` to within
    ``_SOLVE_TOLERANCE``.  Tutte (1963) proves that this is a convex
    embedding when the graph is 3-connected, but no premise is checked
    before solving: the output is checked instead.  Every inner face is
    cut into the fan of triangles from its first vertex, and every
    triangle must be turned clockwise, against the outer orbit, with
    area beyond ``_AREA_TOLERANCE``.  That proves the drawing plane by a
    degree argument: the inner faces glue into a surface whose boundary,
    the outer orbit reversed, is drawn as a convex polygon winding once
    clockwise, so a point off the edges is covered by the clockwise
    triangles as often as that polygon winds round it, once inside and
    never outside.  Hence no two faces overlap and no edges cross.

    Raises :class:`LayoutUnavailableError` when the outer boundary is
    not simple, the solve misses its tolerance, or a face fails the
    check; that last message names the face and, on two or more
    vertices, the graph's vertex connectivity, computed only then.
    """
    faces = g.faces
    if g.outer_dart is not None:
        outer = g.face_of[g.outer_dart]
    else:
        outer = max(range(len(faces)), key=lambda f: len(faces[f]))
    ring = [g.dart_vertex(d) for d in faces[outer]]
    if len(set(ring)) != len(ring):
        raise LayoutUnavailableError("chosen outer face boundary is not simple")

    n = g.vertex_count
    z = np.zeros(n, dtype=complex)
    for i, v in enumerate(ring):
        angle = 2 * math.pi * i / len(ring)
        z[v] = complex(math.cos(angle), math.sin(angle))
    interior = np.setdiff1d(np.arange(n), ring)
    if len(interior):
        twin = np.array([g.twin(d) for d in range(g.dart_count)])
        around = np.ascontiguousarray((twin.reshape(n, 4)[interior] >> 2).T)
        index = np.full(n, len(interior))
        index[interior] = np.arange(len(interior))
        diag = 4.0 - (around == interior).sum(axis=0)
        z[interior] = _solve(index[around], diag, z[around].sum(axis=0))
    face = _folded_face(g, outer, z)
    if face is not None:
        message = f"averaging layout draws face {face} flat or folded"
        if n >= 2:  # connectivity is defined from two vertices on
            message += f"; connectivity is {vertex_connectivity(g)[0]}"
        raise LayoutUnavailableError(message)
    return {v: (float(p.real), float(p.imag)) for v, p in enumerate(z)}


def _viewport(
    pos: Mapping[int, tuple[float, float]], size: float, margin: float
):
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
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
    cert: ProofPathsResult | None = None,
    size: int = 760,
) -> str:
    """An SVG 1.1 document for the arrangement.

    ``hamilton`` overlays a vertex cycle; ``cert`` overlays four certified
    paths; ``labels`` writes each region's membership vector in binary at
    the face centroid.  A map that is not plane raises
    :class:`LayoutUnavailableError`, with stored coordinates or without.
    """
    if g.coords and not g.is_planar:
        raise LayoutUnavailableError("the map is not plane, so no coordinates draw it")
    pos = g.coords if g.coords else barycentric_layout(g)
    to_screen = _viewport(pos, size, margin=40)
    curve_of = g.curve_of
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    for d in g.edges():
        a, b = g.edge_endpoints(d)
        x1, y1 = to_screen(pos[a])
        x2, y2 = to_screen(pos[b])
        color = _PALETTE[curve_of[d] % len(_PALETTE)]
        out.append(
            f'<path class="edge curve-{curve_of[d]}" '
            f'd="M {x1:.2f} {y1:.2f} L {x2:.2f} {y2:.2f}" '
            f'stroke="{color}" stroke-width="2" fill="none"/>'
        )
    if hamilton is not None:
        order = list(hamilton)
        for i, a in enumerate(order):
            b = order[(i + 1) % len(order)]
            x1, y1 = to_screen(pos[a])
            x2, y2 = to_screen(pos[b])
            out.append(
                f'<line class="hamilton" x1="{x1:.2f}" y1="{y1:.2f}" '
                f'x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="#f1c40f" stroke-width="5" stroke-opacity="0.55"/>'
            )
    if cert is not None:
        for i, path in enumerate(cert.paths):
            pts = " ".join(
                "{:.2f},{:.2f}".format(*to_screen(pos[v])) for v in path
            )
            out.append(
                f'<polyline class="cert cert-path-{i}" points="{pts}" '
                f'fill="none" stroke="#111111" stroke-width="4" '
                f'stroke-opacity="0.5" stroke-dasharray="{3 + 3 * i} 4"/>'
            )
    for v in range(g.vertex_count):
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
        for f, boundary in enumerate(g.faces):
            verts = {g.dart_vertex(d) for d in boundary}
            cx = sum(to_screen(pos[v])[0] for v in verts) / len(verts)
            cy = sum(to_screen(pos[v])[1] for v in verts) / len(verts)
            text = format(report.labels[f], f"0{width}b")
            out.append(
                f'<text class="region-label" x="{cx:.2f}" y="{cy:.2f}" '
                f'font-size="11" font-family="monospace" '
                f'text-anchor="middle">{text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
