from __future__ import annotations

import random
from collections import Counter, deque

import pytest

from venngraph.maps import (
    BadSlotError,
    MapError,
    NonInvolutiveTwinError,
    PlaneGraph,
    RotationMap,
    SelfTwinError,
)
from venngraph.arrio import parse_arr, write_arr
from venngraph.generators import gen_venn3, gen_weave

from conftest import figure_eight
from test_arrio import random_plane_graph


def random_rotation_map(rng: random.Random, pieces: int) -> RotationMap:
    """The disjoint union of ``pieces`` random rotation systems of 1..5
    vertices of degree 1..4, each with its darts paired at random; a
    piece is often planar and often not, and may itself be disconnected."""
    degrees: list[int] = []
    twin: list[int] = []
    for _ in range(pieces):
        ds = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        if sum(ds) % 2:
            ds[0] += 1
        base = len(twin)
        darts = list(range(base, base + sum(ds)))
        rng.shuffle(darts)
        twin.extend([0] * sum(ds))
        for a, b in zip(darts[0::2], darts[1::2]):
            twin[a], twin[b] = b, a
        degrees.extend(ds)
    return RotationMap(degrees, twin)


def component_genera(g: RotationMap) -> list[int]:
    """Oracle: the genus of every component, from its own V - E + F,
    with components found by union-find over the edges."""
    root = list(range(g.vertex_count))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for d in g.edges():
        a, b = g.edge_endpoints(d)
        root[find(a)] = find(b)
    v = Counter(find(x) for x in range(g.vertex_count))
    e = Counter(find(g.dart_vertex(d)) for d in g.edges())
    f = Counter(find(g.dart_vertex(boundary[0])) for boundary in g.faces)
    return [(2 - (v[r] - e[r] + f[r])) // 2 for r in v]


def assert_orbits_of(succ, orbits, orbit_of) -> None:
    """Each orbit follows ``succ`` from its smallest element round to
    itself, orbits come in order of those elements, and ``orbit_of``
    names each element's orbit."""
    assert [o[0] for o in orbits] == sorted(min(o) for o in orbits)
    for oid, orbit in enumerate(orbits):
        for i, d in enumerate(orbit):
            assert orbit_of[d] == oid
            assert succ(d) == orbit[(i + 1) % len(orbit)]
    assert sorted(d for o in orbits for d in o) == list(range(len(orbit_of)))


def bfs_distances(g, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.adjacency_sets[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class TestBuild:
    def test_venn3_counts_against_euler(self, venn3):
        assert venn3.vertex_count == 6
        assert venn3.edge_count == 12
        # independent oracle: count face orbits, check the Euler identity
        f = len(venn3.faces)
        assert venn3.vertex_count - venn3.edge_count + f == 2
        assert f == 8

    def test_self_twin_rejected(self):
        twin = list(gen_weave(2)._twin)
        twin[0] = 0
        with pytest.raises(SelfTwinError):
            PlaneGraph(4, twin)

    def test_non_involutive_rejected(self):
        twin = list(gen_weave(2)._twin)
        a, b = twin[0], twin[1]
        twin[0], twin[1] = b, a  # break reciprocity without self-twins
        with pytest.raises(NonInvolutiveTwinError):
            PlaneGraph(4, twin)

    def test_out_of_range_rejected(self):
        twin = list(gen_weave(2)._twin)
        twin[0] = 99
        with pytest.raises(BadSlotError):
            PlaneGraph(4, twin)

    def test_two_disjoint_components_build_but_flag(self):
        w = gen_weave(2)
        n = w.vertex_count
        twin = list(w._twin) + [t + 4 * n for t in w._twin]
        g = PlaneGraph(2 * n, twin)
        assert not g.is_connected
        assert len(g.components) == 2
        assert g.is_planar  # both components are genus zero
        # beside a one-vertex torus map instead, the Euler sum is 2 + 0,
        # where two plane components would give 4
        g = PlaneGraph(n + 1, list(w._twin) + [t + 4 * n for t in (2, 3, 0, 1)])
        assert len(g.components) == 2 and g.euler_characteristic == 2
        assert not g.is_planar

    def test_coords_and_outer_validation(self):
        w = gen_weave(2)
        with pytest.raises(BadSlotError):
            PlaneGraph(4, w._twin, coords={9: (0.0, 0.0)})
        with pytest.raises(BadSlotError):
            PlaneGraph(4, w._twin, outer_dart=16)
        with pytest.raises(MapError, match="vertex 1"):
            PlaneGraph(4, w._twin, coords={0: (0.0, 0.0), 2: (1.0, 0.0)})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinates_are_refused(self, bad):
        w = gen_weave(2)
        coords = {v: (float(v), 0.0) for v in range(4)}
        coords[2] = (0.0, bad)
        with pytest.raises(MapError, match="coordinates of vertex 2 are not finite"):
            PlaneGraph(4, w._twin, coords=coords)
        coords[2] = ("east", 0.0)
        with pytest.raises(MapError, match="coordinates must be pairs of numbers"):
            PlaneGraph(4, w._twin, coords=coords)

    def test_coordinates_are_stored_as_python_floats(self):
        w = gen_weave(2)
        g = PlaneGraph(4, w._twin, coords={v: (v, True) for v in range(4)})
        assert g.coords == {v: (float(v), 1.0) for v in range(4)}
        assert all(type(c) is float for xy in g.coords.values() for c in xy)

    def test_coordinate_keys_are_int_vertex_ids(self):
        # 0.0 would be written as "coord 0.0 ...", which parse_arr refuses
        g = gen_venn3()
        rest = {v: xy for v, xy in g.coords.items() if v > 1}
        with pytest.raises(MapError, match="coordinate key 0.0 is not an int vertex id"):
            PlaneGraph(g.vertex_count, g._twin,
                       coords={0.0: g.coords[0], 1: g.coords[1], **rest})
        shown = PlaneGraph(g.vertex_count, g._twin,
                           coords={0: g.coords[0], True: g.coords[1], **rest})
        assert [type(v) for v in shown.coords] == [int] * g.vertex_count
        assert "coord 1 " in write_arr(shown)
        assert parse_arr(write_arr(shown)).coords == g.coords


class TestPlanarity:
    def test_is_planar_agrees_with_per_component_euler(self):
        rng = random.Random(20261018)
        kinds = Counter()
        for _ in range(1500):
            g = random_rotation_map(rng, rng.randint(1, 4))
            genera = component_genera(g)
            assert all(x >= 0 for x in genera)
            assert g.is_planar == (max(genera) == 0)
            assert len(g.components) == len(genera)
            kinds[len(genera) > 1, min(genera) == 0, max(genera) > 0] += 1
        mixed = kinds[True, True, True]
        planar_split = kinds[True, True, False]
        single_torus = kinds[False, False, True]
        assert mixed > 100 and planar_split > 100 and single_torus > 100


class TestPermutationAlgebra:
    def test_face_and_curve_orbits_follow_their_permutations(self):
        rng = random.Random(1815)
        for _ in range(300):
            m = random_rotation_map(rng, rng.randint(1, 3))
            assert_orbits_of(lambda d: m.rot(m.twin(d)), m.faces, m.face_of)
            g = random_plane_graph(rng)
            assert_orbits_of(lambda d: g.rot(g.twin(d)), g.faces, g.face_of)
            assert_orbits_of(g.curve_next, *g.curve_orbit_data)

    def test_twin_is_fixed_point_free_involution(self, venn3, weaves):
        for g in [venn3, *weaves.values()]:
            for d in range(g.dart_count):
                assert g.twin(d) != d
                assert g.twin(g.twin(d)) == d

    def test_rot_order_four(self, venn3):
        for d in range(venn3.dart_count):
            e = d
            for _ in range(4):
                e = venn3.rot(e)
            assert e == d

    def test_face_orbits_partition_darts(self, venn4, weaves):
        for g in [venn4, *weaves.values()]:
            seen = []
            for boundary in g.faces:
                seen.extend(boundary)
            assert sorted(seen) == list(range(g.dart_count))

    def test_curve_orbits_partition_darts(self, venn4, weaves):
        for g in [venn4, *weaves.values()]:
            orbits, orbit_of = g.curve_orbit_data
            seen = [d for orbit in orbits for d in orbit]
            assert sorted(seen) == list(range(g.dart_count))
            assert all(orbit_of[d] >= 0 for d in range(g.dart_count))


class TestCounts:
    def test_four_regular_identities(self, venn_family, weaves):
        for g in [*venn_family["graphs"].values(), *weaves.values()]:
            assert g.edge_count == 2 * g.vertex_count
            assert len(g.faces) == g.vertex_count + 2
            assert g.euler_characteristic == 2

    def test_boundary_and_curve_length_sums(self, venn4, weaves):
        for g in [venn4, *weaves.values()]:
            assert sum(map(len, g.faces)) == 2 * g.edge_count
            assert sum(map(len, g.curves)) == g.edge_count

    def test_every_edge_on_exactly_one_curve(self, venn4):
        by_curve = {}
        for c, darts in enumerate(venn4.curves):
            for d in darts:
                e = venn4.edge_of(d)
                assert by_curve.setdefault(e, c) == c
        assert len(by_curve) == venn4.edge_count

    def test_venn_family_size_formula(self, venn_family):
        for n, g in venn_family["graphs"].items():
            assert g.vertex_count == 2**n - 2
            assert len(g.faces) == 2**n


class TestCurves:
    def test_venn3_three_squares(self, venn3):
        assert list(map(len, venn3.curves)) == [4, 4, 4]
        for darts in venn3.curves:
            assert len({d >> 2 for d in darts}) == 4

    def test_weave3_two_hexagons(self, weaves):
        assert list(map(len, weaves[3].curves)) == [6, 6]

    def test_figure_eight_rejected(self):
        from venngraph.maps import SelfCrossingCurveError

        # curve ids and orbits exist on every map; only curve_index raises
        g = figure_eight()
        assert g.curve_of == (0, 0, 0, 0)
        assert g.self_crossings == (0,)
        assert g.curves == ((0, 3),)  # the orbit of twin ^ 2 from dart 0
        with pytest.raises(SelfCrossingCurveError, match="vertex 0;"):
            g.curve_index

    def test_distinct_curves_at_each_vertex(self, venn4):
        for v in range(venn4.vertex_count):
            a, b = venn4.vertex_curves(v)
            assert a != b


class TestDistanceTwo:
    def test_witness_is_adjacent_to_both(self, venn3):
        adj = venn3.adjacency_sets
        for u, z, v in venn3.distance2_pairs():
            assert z in adj[u] and z in adj[v]
            assert v not in adj[u]

    def test_every_distance_two_pair_appears(self, venn3):
        pairs = {(u, v) for u, z, v in venn3.distance2_pairs()}
        for u in range(venn3.vertex_count):
            dist = bfs_distances(venn3, u)
            for v in range(u + 1, venn3.vertex_count):
                assert ((u, v) in pairs) == (dist[v] == 2)

    def test_venn4_count_matches_bfs_oracle(self, venn4):
        pairs = {(u, v) for u, z, v in venn4.distance2_pairs()}
        expected = set()
        for u in range(venn4.vertex_count):
            dist = bfs_distances(venn4, u)
            for v, dv in dist.items():
                if dv == 2 and u < v:
                    expected.add((u, v))
        assert pairs == expected
