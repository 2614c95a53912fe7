from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import pytest

from venngraph import connectivity
from venngraph.connectivity import (
    NotDistanceTwoError,
    NotVGraphError,
    PathCertificate,
    SameVertexError,
    VacuousCertificationError,
    certify_distance_two,
    max_disjoint_paths,
    proof_paths,
    verify_certificate,
    verify_cut,
    vertex_connectivity,
)
from venngraph.dual import dual
from venngraph.maps import PlaneGraph

from conftest import complete_rotation_map, three_cliques
from test_arrio import random_plane_graph


def connected_without(g, blocked):
    alive = [v for v in range(g.vertex_count) if v not in blocked]
    if not alive:
        return True
    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        x = queue.popleft()
        for y in g.adjacency_sets[x]:
            if y not in blocked and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(alive)


def min_separator_size(g, u, v):
    """Exhaustive oracle: smallest vertex set whose removal parts u from v."""
    others = [x for x in range(g.vertex_count) if x not in (u, v)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            blocked = set(cut)
            seen = {u}
            queue = deque([u])
            while queue:
                x = queue.popleft()
                for y in g.adjacency_sets[x]:
                    if y not in blocked and y not in seen:
                        seen.add(y)
                        queue.append(y)
            if v not in seen:
                return size
    raise AssertionError("adjacent vertices cannot be separated")


class TestMaxDisjointPaths:
    def test_venn3_nonadjacent_pair_is_four(self, venn3):
        adj = venn3.adjacency_sets
        for u in range(venn3.vertex_count):
            for v in range(u + 1, venn3.vertex_count):
                if v in adj[u]:
                    continue
                k, cert, cut = max_disjoint_paths(venn3, u, v)
                assert k == 4
                assert verify_certificate(venn3, cert)
                assert cut is not None and len(cut.cut) == 4
                assert verify_cut(venn3, cut)

    def test_weave_antipodal_pair_is_two(self, weaves):
        w = weaves[3]
        k, cert, cut = max_disjoint_paths(w, 0, 3)
        assert k == 2
        assert verify_certificate(w, cert)
        assert len(cut.cut) == 2

    def test_capped_by_degree(self, venn4):
        for u in range(venn4.vertex_count):
            for v in range(u + 1, venn4.vertex_count):
                k, _, _ = max_disjoint_paths(venn4, u, v)
                assert 1 <= k <= 4

    def test_same_vertex_rejected(self, venn3):
        with pytest.raises(SameVertexError):
            max_disjoint_paths(venn3, 2, 2)

    def test_adjacent_pair_counts_parallel_edges(self, weaves):
        # consecutive weave crossings share two parallel edges; the ring
        # detour through the two far crossings adds exactly one more path
        k, cert, cut = max_disjoint_paths(weaves[2], 0, 1)
        assert cut is None
        assert verify_certificate(weaves[2], cert)
        assert k == 3
        assert sum(1 for p in cert.paths if p == (0, 1)) == 2

    def test_matches_exhaustive_separator_oracle(self, venn3, weaves, lens):
        for g in (venn3, weaves[2], weaves[3], lens):
            adj = g.adjacency_sets
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    if v in adj[u]:
                        continue
                    k, _, cut = max_disjoint_paths(g, u, v)
                    assert k == min_separator_size(g, u, v)
                    assert len(cut.cut) == k


class TestVertexConnectivity:
    def test_venn3_is_four(self, venn3):
        kappa, cut = vertex_connectivity(venn3)
        assert kappa == 4
        assert cut is not None and len(cut.cut) == 4

    def test_weave_is_two_with_witness(self, weaves):
        kappa, cut = vertex_connectivity(weaves[4])
        assert kappa == 2
        assert len(cut.cut) == 2
        assert not connected_without(weaves[4], cut.cut)

    def test_venn5_is_four(self, venn5):
        assert vertex_connectivity(venn5)[0] == 4

    def test_disconnected_reports_components(self, weaves):
        w = weaves[2]
        twin = list(w._twin) + [t + 16 for t in w._twin]
        g = PlaneGraph(8, twin)
        kappa, cut = vertex_connectivity(g)
        assert kappa == 0
        assert cut.cut == frozenset()
        assert cut.sides == (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))

    def test_complete_graph_has_no_cut(self):
        kappa, cut = vertex_connectivity(complete_rotation_map(5))
        assert kappa == 4
        assert cut is None

    def test_matches_exhaustive_oracle(self, venn3, weaves, flower, lens):
        rng = random.Random(2024)
        maps = []
        while len(maps) < 30:
            g = random_plane_graph(rng)
            if g.vertex_count <= 12 and g.is_connected:
                maps.append(g)
        corpus = [venn3, *weaves.values(), flower, lens, dual(venn3),
                  complete_rotation_map(5), three_cliques(), *maps]
        for g in corpus:
            adj = g.adjacency_sets
            n = g.vertex_count
            sizes = [
                min_separator_size(g, u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if v not in adj[u]
            ]
            kappa, cut = vertex_connectivity(g)
            assert kappa == min(sizes, default=n - 1)
            if sizes:
                assert len(cut.cut) == kappa
                assert verify_cut(g, cut)
            else:
                assert cut is None

    def test_one_flow_network_per_call(self, monkeypatch, venn5, flower):
        built = []

        class CountingNet(connectivity._FlowNet):
            def __init__(self, g):
                built.append(g)
                super().__init__(g)

        monkeypatch.setattr(connectivity, "_FlowNet", CountingNet)
        vertex_connectivity(venn5)
        assert len(built) == 1
        certify_distance_two(flower, 3)
        assert len(built) == 2


class TestProofPaths:
    def test_case1_shape_on_venn3(self, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        result = proof_paths(venn3, u, z, v)
        assert result.case == 1
        assert not result.used_fallback
        assert (u, z, v) in result.paths
        a, b = result.roles["a"], result.roles["b"]
        assert len({u, v, a, b}) == 4
        # one path crosses each far neighbour of z
        crossed = {x for p in result.paths for x in p[1:-1]}
        assert {a, b} <= crossed

    def test_case2_appears_on_venn4(self, venn4):
        cases = set()
        for u, z, v in venn4.distance2_pairs():
            result = proof_paths(venn4, u, z, v, validated=True)
            cases.add(result.case)
            assert not result.used_fallback
            assert verify_certificate(
                venn4, PathCertificate(u, v, result.paths)
            )
        assert cases == {1, 2}

    def test_case2_path_structure(self, venn5):
        curve_of = venn5.curve_of
        for u, z, v in venn5.distance2_pairs():
            result = proof_paths(venn5, u, z, v, validated=True)
            if result.case != 2:
                continue
            a, b = result.roles["a"], result.roles["b"]
            path_a, path_b, path_c, path_d = result.paths
            assert path_d == (u, z, v)
            # the two perimeter paths stay inside the faces around z and
            # pass through the far neighbours as prescribed
            assert a in path_b and b in path_b
            assert not (set(path_a[1:-1]) & set(path_b[1:-1]))
            # the curve-switching path stays on the two curves through z
            on_curves = {
                x
                for x in range(venn5.vertex_count)
                if set(venn5.vertex_curves(x))
                & {curve_of[venn5.dart(z, 0)], curve_of[venn5.dart(z, 1)]}
            }
            assert set(path_c) <= on_curves
            assert not {a, b, z} & set(path_c)

    def test_roles_distinct_everywhere(self, venn_family):
        for g in venn_family["graphs"].values():
            for u, z, v in g.distance2_pairs():
                result = proof_paths(g, u, z, v, validated=True)
                a, b = result.roles["a"], result.roles["b"]
                assert len({u, v, a, b}) == 4

    def test_agrees_with_flow_count(self, venn4):
        for u, z, v in venn4.distance2_pairs():
            result = proof_paths(venn4, u, z, v, validated=True)
            k, _, _ = max_disjoint_paths(venn4, u, v)
            assert len(result.paths) == 4 == k

    def test_preconditions(self, venn3, weaves):
        u, z, v = venn3.distance2_pairs()[0]
        with pytest.raises(NotDistanceTwoError):
            proof_paths(venn3, u, z, next(iter(venn3.adjacency_sets[u])))
        with pytest.raises(NotDistanceTwoError):
            proof_paths(venn3, u, u, v)
        with pytest.raises(NotVGraphError):
            wu, wz, wv = weaves[3].distance2_pairs()[0]
            proof_paths(weaves[3], wu, wz, wv)


class TestDistanceTwoCertification:
    def test_venn4_certified_at_four(self, venn4):
        result = certify_distance_two(venn4, 4)
        assert result.certified
        assert result.fallback_count == 0
        for u, z, v, cert in result.certificates:
            assert cert.k == 4
            assert verify_certificate(venn4, cert)

    def test_weave_counterexample_at_three(self, weaves):
        result = certify_distance_two(weaves[3], 3)
        assert not result.certified
        assert result.counterexample.flow == 2
        assert result.counterexample.cut is not None
        assert len(result.counterexample.cut.cut) == 2

    def test_any_connected_graph_certifies_k1(self, weaves, flower):
        for g in (weaves[2], flower):
            assert certify_distance_two(g, 1).certified

    def test_non_positive_k_is_rejected(self, venn3, weaves):
        for g in (venn3, weaves[3]):
            for k in (0, -1):
                with pytest.raises(ValueError):
                    certify_distance_two(g, k)

    def test_vacuous_on_complete_graph(self):
        with pytest.raises(VacuousCertificationError):
            certify_distance_two(complete_rotation_map(5), 4)

    def test_flow_route_certifies_below_connectivity(self, weaves, flower):
        # neither graph is a V-graph: flower has connectivity 3, weave(3) 2
        for g, k in ((flower, 3), (weaves[3], 2)):
            result = certify_distance_two(g, k)
            assert result.certified
            assert result.pair_count == len({(u, v) for u, _, v in g.distance2_pairs()})
            assert len(result.certificates) == result.pair_count
            for u, z, v, cert in result.certificates:
                assert (cert.u, cert.v) == (u, v)
                assert cert.k == k
                assert verify_certificate(g, cert)
