from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from venngraph import render
from venngraph.connectivity import proof_paths
from venngraph.generators import from_circles, gen_venn, gen_weave
from venngraph.hamilton import find_hamilton
from venngraph.maps import PlaneGraph
from venngraph.render import (
    LayoutUnavailableError,
    barycentric_layout,
    grid_layout,
    render_svg,
)

from test_connectivity import circle_vgraphs


def without_coords(g: PlaneGraph) -> PlaneGraph:
    return PlaneGraph(g.vertex_count, g._twin)


def meets_preconditions(g: PlaneGraph) -> bool:
    """The grid layout's four preconditions, read off the map directly."""
    return (g.is_connected and g.is_planar
            and all(len(f) >= 3 and len({d >> 2 for d in f}) == len(f) for f in g.faces)
            and all(len({g.twin(d) >> 2 for d in g.darts_of(v)}) == 4
                    for v in range(g.vertex_count)))


def folded_face_after(monkeypatch, g: PlaneGraph, mutate) -> int:
    """Lay g out with ``mutate(xs, ys)`` applied to the shifted integer
    positions (lists over the centre triangulation's vertices, changed in
    place); the face the exact check names."""
    shift = render._shift

    def mutated(*args):
        xs, ys = shift(*args)
        mutate(xs, ys)
        return xs, ys

    monkeypatch.setattr(render, "_shift", mutated)
    with pytest.raises(LayoutUnavailableError, match="connectivity is 4") as err:
        grid_layout(g)
    return int(re.search(r"face (\d+) flat or folded", str(err.value)).group(1))


def face_vertices(g: PlaneGraph, face: int) -> set[int]:
    return {d >> 2 for d in g.faces[face]}


def parallel_arcs() -> PlaneGraph:
    """Circle 0 crosses only circle 1, so its two arcs join the same two
    vertices; two more circles cut each arc of circle 1 so that every
    face is a simple cycle of three or more corners."""
    return without_coords(from_circles([
        (0.0, 0.0, 1.0), (0.0, -10.0, 10.0),
        (-0.1, 0.05, 0.3), (0.1, 0.05, 0.3),
        (9.9, -10.2, 0.5), (9.9, -9.8, 0.5),
    ]))


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
    def test_extended_diagram_renders_without_coords(self, venn5):
        assert venn5.coords is None
        svg = render_svg(venn5)
        assert svg.count("<path") == venn5.edge_count

    def test_layout_needs_three_connected(self, weaves):
        with pytest.raises(LayoutUnavailableError):
            barycentric_layout(weaves[2])

    def test_floats_equal_the_integer_grid(self, venn4):
        pos = barycentric_layout(venn4)
        assert pos == grid_layout(venn4)
        assert all(type(c) is float for p in pos.values() for c in p)


class TestGridLayout:
    def test_integer_grid_of_the_stated_size(self):
        for n in range(3, 9):
            g = without_coords(gen_venn(n))
            pos = grid_layout(g)
            size = g.vertex_count + len(g.faces)
            assert sorted(pos) == list(range(g.vertex_count))
            assert all(type(c) is int for p in pos.values() for c in p)
            assert all(0 <= x <= 2 * size - 4 and 0 <= y <= size - 2 for x, y in pos.values())

    def test_two_calls_give_identical_grids(self, venn6):
        assert grid_layout(venn6) == grid_layout(PlaneGraph(venn6.vertex_count, venn6._twin))

    def test_every_face_of_venn5_works_as_the_outer_face(self, venn5):
        for boundary in venn5.faces:
            hinted = PlaneGraph(venn5.vertex_count, venn5._twin, outer_dart=boundary[-1])
            assert len(grid_layout(hinted)) == venn5.vertex_count

    def test_draws_exactly_the_circle_families_that_meet_its_preconditions(self):
        rng = random.Random(20)
        drawn = refused = 0
        while drawn + refused < 150:
            circles = [(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.5, 2.0))
                       for _ in range(rng.randint(2, 6))]
            try:
                g = from_circles(circles)
            except ValueError:
                continue  # tangent, concentric, isolated or coincident
            if not g.is_connected:
                continue
            g = without_coords(g)
            try:
                grid_layout(g)
            except LayoutUnavailableError:
                assert not meets_preconditions(g)
                refused += 1
            else:
                assert meets_preconditions(g)
                drawn += 1
        assert drawn and refused

    @pytest.mark.parametrize("g, reason", [
        (PlaneGraph(2, [4, 5, 6, 7, 0, 1, 2, 3]), "the map is not plane"),
        (gen_weave(3), r"face \d+ is not a simple cycle of 3 or more corners"),
        (parallel_arcs(), "parallel edges join vertices 0 and 1"),
    ], ids=["not-plane", "weave", "parallel-edges"])
    def test_refusal_names_the_failed_precondition(self, g, reason):
        with pytest.raises(LayoutUnavailableError, match=reason):
            grid_layout(g)


    def test_region_labels_sit_inside_their_faces(self):
        # by exact ray casting; the corners' centroid, the anchor for
        # stored coordinates, falls outside many of these faces
        def inside(point, poly):
            x, y = map(Fraction, point)
            crossings = 0
            for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
                if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * Fraction(x2 - x1, y2 - y1):
                    crossings += 1
            return crossings % 2 == 1

        centroid_outside = 0
        for n in range(3, 8):
            g = without_coords(gen_venn(n))
            pos = grid_layout(g)
            for boundary in g.faces:
                poly = [pos[d >> 2] for d in boundary]
                assert inside(render._inside(poly), poly)
                centroid = (Fraction(sum(p[0] for p in poly), len(poly)),
                            Fraction(sum(p[1] for p in poly), len(poly)))
                centroid_outside += not inside(centroid, poly)
        assert centroid_outside > 0

class TestDrawingCertificate:
    def test_accepts_vgraph_layouts(self, venn_family):
        corpus = [*(gen_venn(n) for n in range(4, 11)),
                  *venn_family["graphs"].values(), *circle_vgraphs()]
        for g in corpus:
            pos = barycentric_layout(without_coords(g))
            assert len(pos) == g.vertex_count

    def test_swapped_vertices_are_rejected(self, monkeypatch):
        g = gen_venn(6)
        u, v = 0, g.vertex_count - 1

        def swap(xs, ys):
            xs[u], xs[v] = xs[v], xs[u]
            ys[u], ys[v] = ys[v], ys[u]

        face = folded_face_after(monkeypatch, g, swap)
        assert face_vertices(g, face) & {u, v}

    def test_vertex_moved_onto_a_neighbour_is_rejected(self, monkeypatch):
        g = gen_venn(6)
        v = 7
        w = g.twin(4 * v) >> 2

        def collapse(xs, ys):
            xs[v], ys[v] = xs[w], ys[w]

        face = folded_face_after(monkeypatch, g, collapse)
        assert v in face_vertices(g, face)

    def test_flattened_drawing_is_rejected(self, monkeypatch):
        # every triangle flat and none turned the wrong way
        g = gen_venn(5)

        def flatten(xs, ys):
            ys[:] = [0] * len(ys)

        assert 0 <= folded_face_after(monkeypatch, g, flatten) < len(g.faces)

    def test_vertex_reflected_across_an_edge_is_rejected(self, monkeypatch):
        g = gen_venn(6)
        # a triangular face v p q: reflect v across the line p q, exactly,
        # on the grid scaled by |q - p|^2
        v, p, q = next([d >> 2 for d in f] for f in g.faces if len(f) == 3)

        def reflect(xs, ys):
            ax, ay = xs[q] - xs[p], ys[q] - ys[p]
            wx, wy = xs[v] - xs[p], ys[v] - ys[p]
            scale, dot = ax * ax + ay * ay, wx * ax + wy * ay
            rx, ry = 2 * dot * ax - scale * wx, 2 * dot * ay - scale * wy
            xs[:] = [scale * x for x in xs]
            ys[:] = [scale * y for y in ys]
            xs[v], ys[v] = xs[p] + rx, ys[p] + ry

        face = folded_face_after(monkeypatch, g, reflect)
        assert v in face_vertices(g, face)

    def test_disconnected_graph_has_no_layout(self, venn3):
        n = venn3.vertex_count
        twin = list(venn3._twin) + [t + 4 * n for t in venn3._twin]
        with pytest.raises(LayoutUnavailableError, match="the map is not connected"):
            barycentric_layout(PlaneGraph(2 * n, twin))

    def test_vgraphs_render_without_connectivity(self, monkeypatch, venn_family):
        def forbidden(g):
            raise AssertionError("render computed connectivity")

        monkeypatch.setattr("venngraph.render.vertex_connectivity", forbidden)
        for g in (*venn_family["graphs"].values(), gen_venn(8)):
            assert render_svg(g).count("<path") == g.edge_count
