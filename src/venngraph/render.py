"""Straight-line SVG drawings of arrangements.

Geometry comes from stored coordinates when present; otherwise interior
vertices are placed at the average of their neighbours with one face fixed
as a convex polygon.  That averaging layout is a straight-line embedding
whenever the graph is 3-connected, which the connectivity module checks
before solving.

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


class LayoutUnavailableError(MapError):
    """No coordinates and the graph is too weakly connected to place."""


def barycentric_layout(g: PlaneGraph) -> dict[int, tuple[float, float]]:
    """Fix one face on a circle, average everything else into place.

    The outer face is the stored hint when present, otherwise the face
    with the longest boundary (lowest id on ties).
    """
    kappa, _ = vertex_connectivity(g)
    if kappa < 3:
        raise LayoutUnavailableError(
            f"averaging layout needs a 3-connected graph, connectivity is {kappa}"
        )
    if g.outer_dart is not None:
        outer = g.faces[g.face_of[g.outer_dart]]
    else:
        outer = max(g.faces, key=lambda f: (f.degree, -f.id))
    ring = [g.dart_vertex(d) for d in outer.boundary]
    if len(set(ring)) != len(ring):
        raise LayoutUnavailableError("chosen outer face boundary is not simple")

    n = g.vertex_count
    pos = {}
    for i, v in enumerate(ring):
        angle = 2 * math.pi * i / len(ring)
        pos[v] = (math.cos(angle), math.sin(angle))
    interior = [v for v in range(n) if v not in pos]
    if interior:
        index = {v: i for i, v in enumerate(interior)}
        a = np.zeros((len(interior), len(interior)))
        b = np.zeros((len(interior), 2))
        for v in interior:
            i = index[v]
            a[i, i] = g.degree(v)
            for d in g.darts_of(v):
                w = g.dart_vertex(g.twin(d))
                if w in index:
                    a[i, index[w]] -= 1.0
                else:
                    b[i, 0] += pos[w][0]
                    b[i, 1] += pos[w][1]
        sol = np.linalg.solve(a, b)
        residual = np.abs(a @ sol - b).max()
        if residual > _SOLVE_TOLERANCE:
            raise LayoutUnavailableError(f"layout solve residual {residual:g}")
        for v in interior:
            pos[v] = (float(sol[index[v], 0]), float(sol[index[v], 1]))
    return pos


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
    the face centroid.
    """
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
        for face in g.faces:
            verts = {g.dart_vertex(d) for d in face.boundary}
            cx = sum(to_screen(pos[v])[0] for v in verts) / len(verts)
            cy = sum(to_screen(pos[v])[1] for v in verts) / len(verts)
            text = format(report.labels[face.id], f"0{width}b")
            out.append(
                f'<text class="region-label" x="{cx:.2f}" y="{cy:.2f}" '
                f'font-size="11" font-family="monospace" '
                f'text-anchor="middle">{text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
