from __future__ import annotations

import hashlib
import math
import random
import re

import pytest

from venngraph import render
from venngraph.arrio import parse_arr, write_arr
from venngraph.connectivity import PathCertificate, max_disjoint_paths, proof_paths
from venngraph.generators import from_circles, gen_venn, gen_venn3, gen_weave
from venngraph.hamilton import find_hamilton
from venngraph.maps import DisconnectedError, MapError, NotPlaneError, PlaneGraph
from venngraph.render import (
    LayoutUnavailableError,
    barycentric_layout,
    grid_layout,
    render_svg,
)
from venngraph.validate import venn_check

from conftest import (
    VENN3_CIRCLES,
    crossing_points,
    figure_eight,
    random_circle_lists,
    with_coord_lines,
)
from test_connectivity import KAPPA4_NON_V, circle_vgraphs


def meets_preconditions(g: PlaneGraph) -> bool:
    """The grid layout's three preconditions, read off the map directly:
    connected, plane, and every face a cycle of two or more edges that
    meets no vertex twice."""
    return (g.is_connected and g.is_planar
            and all(len(f) >= 2 and len({d >> 2 for d in f}) == len(f) for f in g.faces))


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


def drawn_regions(
    g: PlaneGraph,
) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]], list[int]]:
    """The corner polygon of each face of g, the point of its region
    label and the label, read back from g's labelled SVG, where the
    labels come in face order.  A face's corners are its vertices and
    the bends of its edges, read off the edge paths, which come in the
    order of ``g.edges()`` and run from each edge's first dart.
    Coordinates are printed to 0.01 px and read as integers in those
    units; the huge canvas keeps that rounding far below the grid
    drawing's thinnest corners."""
    svg = render_svg(g, labels=True, size=10 ** 7)

    def units(x: str, y: str) -> tuple[int, int]:
        return int(x.replace(".", "")), int(y.replace(".", ""))

    corners = [units(*xy) for xy in
               re.findall(r'<circle class="vertex" cx="([\d.]+)" cy="([\d.]+)"', svg)]
    paths = [[units(*xy) for xy in re.findall(r"([\d.]+) ([\d.]+)", d)]
             for d in re.findall(r'<path class="edge[^"]*" d="([^"]*)"', svg)]
    labels = re.findall(
        r'<text class="region-label" x="([\d.]+)" y="([\d.]+)"[^>]*>([01]+)</text>', svg)
    report = venn_check(g)
    assert len(corners) == g.vertex_count
    assert len(paths) == g.edge_count
    bends = {}
    for e, path in zip(g.edges(), paths):
        a, b = g.edge_endpoints(e)
        assert path[0] == corners[a] and path[-1] == corners[b] and len(path) <= 3
        bends[e] = path[1:-1]
    assert all(len(text) == report.curve_count for _, _, text in labels)
    # rooted at one face: venn_check's labels, each XOR the same offset
    rooted = [int(text, 2) for _, _, text in labels]
    assert len({r ^ label for r, label in zip(rooted, report.labels)}) == 1
    polygons = [[p for d in boundary for p in (corners[d >> 2], *bends[g.edge_of(d)])]
                for boundary in g.faces]
    return polygons, [units(x, y) for x, y, _ in labels], rooted


def labels_in_their_faces(g: PlaneGraph) -> int:
    """Ray-cast every region label of g's drawing against every face
    polygon: each inner label lies in its own face's polygon and the
    outer one's, which is the largest and holds the whole drawing, and
    the outer label in none.  Returns the outer face."""
    polygons, points, labels = drawn_regions(g)
    outer = max(range(len(polygons)), key=lambda f: area2(polygons[f]))
    assert labels[outer] == 0
    for f, point in enumerate(points):
        held = {h for h, poly in enumerate(polygons) if holds(poly, point)}
        assert held == (set() if f == outer else {f, outer}), f
    return outer


def drawn_edges(svg: str) -> tuple[set[tuple[str, ...]], set[str]]:
    """The point sequences of the edge paths, each either way round, and
    the vertex corners, as the SVG prints them."""
    corners = {f"{x},{y}" for x, y in
               re.findall(r'<circle class="vertex" cx="([\d.]+)" cy="([\d.]+)"', svg)}
    edges = set()
    for d in re.findall(r'<path class="edge[^"]*" d="M ([^"]*)"', svg):
        points = tuple(p.replace(" ", ",") for p in d.split(" L "))
        edges |= {points, points[::-1]}
    return edges, corners


def overlay_points(svg: str, kind: str) -> list[list[str]]:
    """The points of each overlay element whose class starts with
    ``kind``, as the SVG prints them."""
    out = []
    for element in re.findall(rf'<(?:line|polyline) class="{kind}[^>]*>', svg):
        points = re.search(r'points="([^"]*)"', element)
        if points:
            out.append(points.group(1).split())
        else:
            xy = dict(re.findall(r'([xy][12])="([\d.]+)"', element))
            out.append([f"{xy['x1']},{xy['y1']}", f"{xy['x2']},{xy['y2']}"])
    return out


def follows(points: list[str], edges: set[tuple[str, ...]], corners: set[str]) -> bool:
    """Whether a polyline runs along drawn edges only: cut at its vertex
    corners, each piece is one edge path."""
    cuts = [i for i, p in enumerate(points) if p in corners]
    return (cuts[0] == 0 and cuts[-1] == len(points) - 1
            and all(tuple(points[i:j + 1]) in edges for i, j in zip(cuts, cuts[1:])))


def region_labels(svg: str) -> list[str]:
    """The region-label texts of an SVG, in face order."""
    return re.findall(r'class="region-label"[^>]*>([01]+)</text>', svg)


def area2(poly: list[tuple[int, int]]) -> int:
    """Twice the unsigned area of a polygon, exactly."""
    return abs(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1])))


def holds(poly: list[tuple[int, int]], point: tuple[int, int]) -> bool:
    """Whether the point is inside the polygon, by exact ray casting."""
    x, y = point
    crossings = 0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if (y1 > y) != (y2 > y):
            # the ray to the right meets the edge when the point is left of it
            crossings += ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) > 0) == (y2 > y1)
    return crossings % 2 == 1


def old_text(g: PlaneGraph, circles, mirror: bool = False, hinted: bool = True) -> str:
    """The ARR text of g, built from ``circles``, with the coord lines of
    its crossings that older versions wrote: each y negated when
    ``mirror``, and without the ``outer`` line unless ``hinted``."""
    text = write_arr(g)
    if not hinted:
        text = "".join(line for line in text.splitlines(True) if not line.startswith("outer "))
    points = [(x, -y if mirror else y) for x, y in crossing_points(circles)]
    return with_coord_lines(text, points)


def parallel_arcs() -> PlaneGraph:
    """Circle 0 crosses only circle 1, so its two arcs join the same two
    vertices; two more circles cut each arc of circle 1 so that every
    face is a simple cycle of three or more corners."""
    return from_circles([
        (0.0, 0.0, 1.0), (0.0, -10.0, 10.0),
        (-0.1, 0.05, 0.3), (0.1, 0.05, 0.3),
        (9.9, -10.2, 0.5), (9.9, -9.8, 0.5),
    ])


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
        labels = region_labels(svg)
        assert len(labels) == len(venn3.faces)
        assert sorted(labels) == sorted(format(i, "03b") for i in range(8))
        # labels are membership vectors: the three crossings within unit
        # distance of the circles' common centre are the corners of the
        # region inside all three circles, the other three those of the
        # region outside them all
        # crossings recomputed from the circles, within unit distance of
        # their common centre, are the corners of the region inside all
        # three circles, the other three those of the region outside them all
        points = crossing_points(VENN3_CIRCLES)
        near = {v for v, (x, y) in enumerate(points)
                if math.hypot(x - 0.5, y - math.sqrt(3) / 6) < 1}
        corners = [{d >> 2 for d in boundary} for boundary in venn3.faces]
        assert labels[corners.index(near)] == "111"
        assert labels[corners.index(set(range(len(points))) - near)] == "000"

    @pytest.mark.parametrize("text", [
        old_text(gen_venn3(), VENN3_CIRCLES),
        old_text(from_circles(KAPPA4_NON_V), KAPPA4_NON_V),
        old_text(from_circles(KAPPA4_NON_V), KAPPA4_NON_V, mirror=True, hinted=False),
        old_text(from_circles(KAPPA4_NON_V), KAPPA4_NON_V, mirror=True),
    ], ids=["venn3", "kappa4", "kappa4-mirrored", "kappa4-mirrored-hinted"])
    def test_stored_coordinates_put_the_outer_label_outside_the_drawing(self, text):
        # coord lines are dropped, mirrored or not, so these maps get the
        # grid drawing, with the hinted face outside when there is a hint
        g = parse_arr(text)
        outer = labels_in_their_faces(g)
        if g.outer_dart is not None:
            assert outer == g.face_of[g.outer_dart]

    def test_hamilton_overlay_edge_count(self, venn4):
        cycle = find_hamilton(venn4)
        svg = render_svg(venn4, hamilton=cycle.order)
        assert svg.count('class="hamilton"') == venn4.vertex_count

    def test_paths_overlay(self, venn4):
        u, z, v = venn4.distance2_pairs()[0]
        svg = render_svg(venn4, cert=proof_paths(venn4, u, z, v).certificate)
        assert svg.count('class="cert cert-path-') == 4

    @pytest.mark.parametrize("overlay", [
        # layout points from n on are face centres, not vertices of the map
        lambda n: {"hamilton": [0, n + 3, 1]},
        lambda n: {"hamilton": [0, 999]},
        lambda n: {"cert": PathCertificate(0, 1, (((0, n + 2, 1),),))},
    ], ids=["cycle-through-a-face-centre", "cycle-off-the-map", "unverified-cert"])
    def test_unverified_overlays_are_refused(self, overlay):
        g = gen_venn3()
        with pytest.raises(ValueError, match="overlay"):
            render_svg(g, **overlay(g.vertex_count))

    def test_weave_draws_every_lens(self, weaves):
        # every edge of a weave has a parallel partner and bends at its
        # midpoint, so each lens is drawn with area round its label
        for g in weaves.values():
            labels_in_their_faces(g)

    def test_stored_coordinates_never_draw_a_map_that_is_not_plane(self):
        # four parallel edges, met in the same rotation at both ends; the
        # coord lines are dropped and the grid layout refuses the map
        g = parse_arr("arrangement 2\nv 0 1.0 1.1 1.2 1.3\nv 1 0.0 0.1 0.2 0.3\n"
                      "coord 0 0.0 0.0\ncoord 1 1.0 0.0\n")
        assert not g.is_planar
        with pytest.raises(NotPlaneError, match="needs a plane map"):
            render_svg(g)
        eight = parse_arr("arrangement 1\nv 0 0.1 0.0 0.3 0.2\ncoord 0 0.0 0.0\n")
        assert eight.is_planar
        with pytest.raises(LayoutUnavailableError, match="not a simple cycle"):
            render_svg(eight)

    def test_overlays_follow_the_drawn_edges(self):
        # a cycle edge or path step between two vertices joined by a bent
        # edge runs through that edge's midpoint
        g = parallel_arcs()
        _, cert, _ = max_disjoint_paths(g, 0, 1)
        svg = render_svg(g, hamilton=find_hamilton(g).order, cert=cert)
        edges, corners = drawn_edges(svg)
        ham, paths = overlay_points(svg, "hamilton"), overlay_points(svg, "cert")
        assert len(ham) == g.vertex_count and len(paths) == 4
        assert all(follows(points, edges, corners) for points in ham + paths)
        # two of the paths are the arcs of circle 0, from vertex 0 to 1,
        # and two are the parallel edges between them, each drawn apart
        assert sorted(map(len, paths)) == [3, 3, 5, 5]
        direct = [points for points in paths if len(points) == 3]
        assert direct[0] != direct[1]
        weave = gen_weave(3)
        svg = render_svg(weave, hamilton=find_hamilton(weave).order)
        edges, corners = drawn_edges(svg)
        ham = overlay_points(svg, "hamilton")
        # the weave's cycle is its ring, whose edges all bend
        assert len(ham) == 6
        assert all(len(points) == 3 and follows(points, edges, corners) for points in ham)

    def test_drawings_are_pinned(self):
        # the bytes of every drawing, or of its refusal, in one digest
        corpus = [*map(gen_venn, range(3, 8)), *map(gen_weave, range(2, 5)),
                  *(g for _, g in random_circle_lists(random.Random(7), 100))]
        digest = hashlib.sha256()
        for g in corpus:
            for labels in (False, True):
                try:
                    text = render_svg(g, labels=labels)
                except MapError as e:
                    text = f"{type(e).__name__}: {e}"
                digest.update(text.encode())
        assert digest.hexdigest() == (
            "6c8189354d4800079e3af6c0b8d28df6c5f86fa3e0db5bdf8c790ec1f400ee3d")


class TestBarycentricLayout:
    def test_extended_diagram_renders_without_coords(self, venn5):
        svg = render_svg(venn5)
        assert svg.count("<path") == venn5.edge_count

    def test_figure_eight_has_no_layout(self):
        # its loop faces stay loops: they have no parallel partner
        with pytest.raises(LayoutUnavailableError, match="not a simple cycle"):
            barycentric_layout(figure_eight())

    def test_is_the_integer_grid(self):
        # the old name of the layout, kept as an alias
        assert barycentric_layout is grid_layout


class TestGridLayout:
    def test_integer_grid_of_the_stated_size(self):
        for g in (*map(gen_venn, range(3, 9)), gen_weave(3), parallel_arcs()):
            pos = grid_layout(g)
            ends = [frozenset(g.edge_endpoints(d)) for d in g.edges()]
            bent = sum(ends.count(e) > 1 for e in ends)
            size = g.vertex_count + bent + len(g.faces)
            # every vertex, every midpoint, and the centre of every face
            # but the outer one
            assert len(pos) == size - 1
            assert set(range(g.vertex_count + bent)) <= set(pos) <= set(range(size))
            assert all(type(c) is int for p in pos.values() for c in p)
            assert all(0 <= x <= 2 * size - 4 and 0 <= y <= size - 2 for x, y in pos.values())

    def test_two_calls_give_identical_grids(self, venn6):
        assert grid_layout(venn6) == grid_layout(PlaneGraph(venn6.vertex_count, venn6._twin))

    def test_every_face_of_venn5_works_as_the_outer_face(self, venn5):
        size = venn5.vertex_count + len(venn5.faces)
        for f, boundary in enumerate(venn5.faces):
            hinted = PlaneGraph(venn5.vertex_count, venn5._twin, outer_dart=boundary[-1])
            assert set(range(size)) - set(grid_layout(hinted)) == {venn5.vertex_count + f}
            labels = region_labels(render_svg(hinted, labels=True))
            assert labels[f] == "00000" and len(set(labels)) == 32

    def test_draws_exactly_the_circle_families_that_meet_its_preconditions(self):
        # every connected family draws, parallel edges and two-edge faces
        # included, with one path per edge, each label in its own region
        # and the hinted face outside; the families in pieces are refused
        drawn = refused = 0
        for _, g in random_circle_lists(random.Random(7), 600):
            try:
                outer = labels_in_their_faces(g)
            except DisconnectedError:
                assert not meets_preconditions(g)
                refused += 1
            else:
                assert meets_preconditions(g)
                assert outer == g.face_of[g.outer_dart]
                drawn += 1
        assert (drawn, refused) == (595, 5)

    @pytest.mark.parametrize("g, error, reason", [
        (PlaneGraph(2, [4, 5, 6, 7, 0, 1, 2, 3]), NotPlaneError,
         "the grid layout needs a plane map"),
        (gen_weave(3), None, None),
        (parallel_arcs(), None, None),
        (figure_eight(), LayoutUnavailableError,
         r"face \d+ is not a simple cycle of 3 or more corners"),
    ], ids=["not-plane", "weave", "parallel-edges", "figure-eight"])
    def test_refusal_names_the_failed_precondition(self, g, error, reason):
        if error is None:
            # parallel edges bend at midpoints, so a weave's two-edge
            # faces draw too
            assert len(grid_layout(g)) > g.vertex_count
            return
        with pytest.raises(error, match=reason):
            grid_layout(g)

    def test_region_labels_sit_inside_their_faces(self):
        for g in (*(gen_venn(n) for n in range(3, 9)), from_circles(KAPPA4_NON_V)):
            labels_in_their_faces(g)


class TestDrawingCertificate:
    def test_accepts_vgraph_layouts(self, venn_family):
        corpus = [*(gen_venn(n) for n in range(4, 11)),
                  *venn_family["graphs"].values(), *circle_vgraphs()]
        for g in corpus:
            pos = barycentric_layout(g)
            assert len(pos) == g.vertex_count + len(g.faces) - 1

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
        with pytest.raises(DisconnectedError, match="needs a connected map"):
            barycentric_layout(PlaneGraph(2 * n, twin))

    def test_vgraphs_render_without_connectivity(self, monkeypatch, venn_family):
        def forbidden(g):
            raise AssertionError("render computed connectivity")

        monkeypatch.setattr("venngraph.render.vertex_connectivity", forbidden)
        for g in (*venn_family["graphs"].values(), gen_venn(8)):
            assert render_svg(g).count("<path") == g.edge_count
