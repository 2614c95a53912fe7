from __future__ import annotations

import re

import numpy as np
import pytest

from venngraph import render
from venngraph.connectivity import proof_paths
from venngraph.generators import gen_venn
from venngraph.hamilton import find_hamilton
from venngraph.maps import PlaneGraph
from venngraph.render import (
    LayoutUnavailableError,
    barycentric_layout,
    render_svg,
)

from test_connectivity import circle_vgraphs


def without_coords(g: PlaneGraph) -> PlaneGraph:
    return PlaneGraph(g.vertex_count, g._twin)


def outer_ring(g: PlaneGraph) -> list[int]:
    outer = max(g.faces, key=len)  # the first longest: lowest id on ties
    return [d >> 2 for d in outer]


def dense_layout(g: PlaneGraph) -> dict[int, tuple[float, float]]:
    """The averaging layout by one dense solve, ring as in the renderer."""
    ring = outer_ring(g)
    pos = {v: (np.cos(2 * np.pi * i / len(ring)), np.sin(2 * np.pi * i / len(ring)))
           for i, v in enumerate(ring)}
    interior = [v for v in range(g.vertex_count) if v not in pos]
    index = {v: i for i, v in enumerate(interior)}
    a = np.zeros((len(interior), len(interior)))
    b = np.zeros((len(interior), 2))
    for v in interior:
        a[index[v], index[v]] = 4.0
        for d in g.darts_of(v):
            w = g.twin(d) >> 2
            if w in index:
                a[index[v], index[w]] -= 1.0
            else:
                b[index[v]] += pos[w]
    sol = np.linalg.solve(a, b)
    return {**pos, **{v: tuple(sol[index[v]]) for v in interior}}


def folded_face_after(monkeypatch, g: PlaneGraph, mutate) -> int:
    """Lay g out with ``mutate`` applied to the solved interior positions
    (a dict vertex -> complex, changed in place); the face the layout
    check names."""
    ring = set(outer_ring(g))
    interior = [v for v in range(g.vertex_count) if v not in ring]
    solve = render._solve

    def mutated(*args):
        x = solve(*args)
        at = dict(zip(interior, x))
        mutate(at)
        return np.array([at[v] for v in interior])

    monkeypatch.setattr(render, "_solve", mutated)
    with pytest.raises(LayoutUnavailableError, match="connectivity is 4") as err:
        barycentric_layout(g)
    return int(re.search(r"face (\d+) flat or folded", str(err.value)).group(1))


def face_vertices(g: PlaneGraph, face: int) -> set[int]:
    return {d >> 2 for d in g.faces[face]}


class TestRenderSvg:
    def test_one_path_element_per_edge(self, venn3):
        svg = render_svg(venn3)
        assert svg.count("<path") == venn3.edge_count
        assert svg.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in svg

    def test_three_curves_three_colours(self, venn3):
        svg = render_svg(venn3)
        strokes = set(re.findall(r'class="edge curve-\d+" [^>]*stroke="(#\w+)"', svg))
        assert len(strokes) == 3

    def test_labels_cover_every_region(self, venn3):
        svg = render_svg(venn3, labels=True)
        labels = re.findall(r'class="region-label"[^>]*>([01]+)</text>', svg)
        assert len(labels) == len(venn3.faces)
        assert sorted(labels) == sorted(format(i, "03b") for i in range(8))

    def test_hamilton_overlay_edge_count(self, venn4):
        cycle = find_hamilton(venn4)
        svg = render_svg(venn4, hamilton=cycle.order)
        assert svg.count('class="hamilton"') == venn4.vertex_count

    def test_paths_overlay(self, venn4):
        u, z, v = venn4.distance2_pairs()[0]
        cert = proof_paths(venn4, u, z, v)
        svg = render_svg(venn4, cert=cert)
        assert svg.count('class="cert cert-path-') == 4

    def test_weave_without_coordinates_has_no_layout(self, weaves):
        with pytest.raises(LayoutUnavailableError):
            render_svg(weaves[3])

    def test_stored_coordinates_never_draw_a_map_that_is_not_plane(self):
        # four parallel edges, met in the same rotation at both ends
        g = PlaneGraph(2, [4, 5, 6, 7, 0, 1, 2, 3], coords={0: (0.0, 0.0), 1: (1.0, 0.0)})
        assert not g.is_planar
        with pytest.raises(LayoutUnavailableError, match="not plane"):
            render_svg(g)
        eight = PlaneGraph(1, [1, 0, 3, 2], coords={0: (0.0, 0.0)})
        assert eight.is_planar and render_svg(eight).count("<path") == 2


class TestBarycentricLayout:
    def test_positions_average_neighbours(self, venn4):
        pos = barycentric_layout(venn4)
        ring = set(outer_ring(venn4))
        for v in range(venn4.vertex_count):
            if v in ring:
                continue
            nx = ny = 0.0
            for d in venn4.darts_of(v):
                w = venn4.dart_vertex(venn4.twin(d))
                nx += pos[w][0]
                ny += pos[w][1]
            assert abs(pos[v][0] - nx / 4) < 1e-9
            assert abs(pos[v][1] - ny / 4) < 1e-9

    def test_extended_diagram_renders_without_coords(self, venn5):
        assert venn5.coords is None
        svg = render_svg(venn5)
        assert svg.count("<path") == venn5.edge_count

    def test_layout_needs_three_connected(self, weaves):
        with pytest.raises(LayoutUnavailableError):
            barycentric_layout(weaves[2])


class TestDrawingCertificate:
    def test_accepts_vgraph_layouts(self, venn_family):
        corpus = [*(gen_venn(n) for n in range(4, 11)),
                  *venn_family["graphs"].values(), *circle_vgraphs()]
        for g in corpus:
            pos = barycentric_layout(without_coords(g))
            assert len(pos) == g.vertex_count

    def test_matches_a_dense_solve(self):
        for n in range(4, 10):
            g = gen_venn(n)
            pos, want = barycentric_layout(g), dense_layout(g)
            assert max(abs(pos[v][i] - want[v][i])
                       for v in range(g.vertex_count) for i in (0, 1)) < 1e-9

    def test_swapped_vertices_are_rejected(self, monkeypatch):
        g = gen_venn(6)
        ring = set(outer_ring(g))
        interior = [x for x in range(g.vertex_count) if x not in ring]
        u, v = interior[0], interior[-1]

        def swap(at):
            at[u], at[v] = at[v], at[u]

        face = folded_face_after(monkeypatch, g, swap)
        assert face_vertices(g, face) & {u, v}

    def test_vertex_moved_onto_a_neighbour_is_rejected(self, monkeypatch):
        g = gen_venn(6)
        ring = set(outer_ring(g))
        v = next(x for x in range(g.vertex_count) if x not in ring)
        w = next(g.twin(d) >> 2 for d in g.darts_of(v) if g.twin(d) >> 2 not in ring)

        def collapse(at):
            at[v] = at[w]

        face = folded_face_after(monkeypatch, g, collapse)
        assert face_vertices(g, face) >= {v, w}

    def test_vertex_reflected_across_an_edge_is_rejected(self, monkeypatch):
        g = gen_venn(6)
        ring = set(outer_ring(g))
        # a triangular face with a vertex v off the ring: reflect v across
        # the face's opposite edge p q
        v, p, q = next(
            (tri[i], tri[i - 1], tri[i - 2])
            for tri in ([d >> 2 for d in f] for f in g.faces if len(f) == 3)
            for i in range(3) if tri[i] not in ring and tri[i - 1] not in ring
            and tri[i - 2] not in ring
        )

        def reflect(at):
            e = (at[q] - at[p]) / abs(at[q] - at[p])
            at[v] = at[p] + e * e * np.conj(at[v] - at[p])

        face = folded_face_after(monkeypatch, g, reflect)
        assert v in face_vertices(g, face)

    def test_disconnected_graph_has_no_layout(self, venn3):
        n = venn3.vertex_count
        twin = list(venn3._twin) + [t + 4 * n for t in venn3._twin]
        with pytest.raises(LayoutUnavailableError, match="connectivity is 0"):
            barycentric_layout(PlaneGraph(2 * n, twin))

    def test_vgraphs_render_without_connectivity(self, monkeypatch, venn_family):
        def forbidden(g):
            raise AssertionError("render computed connectivity")

        monkeypatch.setattr("venngraph.render.vertex_connectivity", forbidden)
        for g in (*venn_family["graphs"].values(), gen_venn(8)):
            assert render_svg(g).count("<path") == g.edge_count
