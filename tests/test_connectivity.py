from __future__ import annotations

import functools
import random
import re
import warnings
from collections import deque
from itertools import combinations

import pytest

from venngraph import connectivity
from venngraph.arrio import PathNames, format_path_certificate, parse_arr, write_arr
from venngraph.connectivity import (
    Counterexample,
    CutCertificate,
    NotDistanceTwoError,
    NotVGraphError,
    PathCertificate,
    NotAVertexError,
    SameVertexError,
    Segment,
    VacuousCertificationError,
    certify_distance_two,
    max_disjoint_paths,
    proof_paths,
    verify_certificate,
    verify_cut,
    vertex_connectivity,
)
from venngraph.dual import dual
from venngraph.generators import from_circles, gen_venn, gen_weave
from venngraph.maps import PlaneGraph, RotationMap
from venngraph.validate import validate

from conftest import (
    complete_rotation_map,
    random_circle_families,
    random_circle_lists,
    reference_connectivity,
    reference_verify,
    rotation_map_from_edges,
    three_cliques,
)
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


def circle_vgraphs(count: int = 20, seed: int = 41) -> list[PlaneGraph]:
    """Seeded families of 3..7 random circles that form V-graphs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = 3 + len(out) % 5
        circles = [(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                    rng.uniform(0.8, 2.5)) for _ in range(k)]
        try:
            g = from_circles(circles)
        except ValueError:
            continue  # tangent, concentric or isolated circles
        if validate(g).is_vgraph:
            out.append(g)
    return out


def straight_through_pairs(g: PlaneGraph) -> set[tuple[int, int]]:
    """The two neighbours of each vertex along each of its curves, when
    they are not adjacent, read off the curve orbits."""
    out = set()
    for darts in g.curves:
        ring = [d >> 2 for d in darts]
        for i in range(len(ring)):
            a, b = ring[i - 1], ring[(i + 1) % len(ring)]
            if a != b and b not in g.adjacency_sets[a]:
                out.add((min(a, b), max(a, b)))
    return out


@functools.cache
def kappa_sample() -> tuple[RotationMap, ...]:
    """Seeded maps of every connectivity: the first circle families of
    ``random_circle_lists(Random(7), ...)``, connected random rotation
    maps, weaves, duals of Venn diagrams, ``three_cliques()`` and K5."""
    rng = random.Random(11)
    maps = []
    while len(maps) < 40:
        g = random_plane_graph(rng)
        if g.is_connected:
            maps.append(g)
    return (*(g for _, g in random_circle_lists(random.Random(7), 60)), *maps,
            *(gen_weave(k) for k in range(2, 7)), dual(gen_venn(3)), dual(gen_venn(4)),
            three_cliques(), clique_chain(), complete_rotation_map(5))


def clique_chain() -> RotationMap:
    """Three K5s in a row, joined by three disjoint edges and then by two:
    minimum degree 4, and the sorted pairs meet a 3-cut before a 2-cut."""
    return rotation_map_from_edges(15, [
        *combinations(range(5), 2), *combinations(range(5, 10), 2),
        *combinations(range(10, 15), 2), (0, 5), (1, 6), (2, 7), (8, 10), (9, 11)])


@pytest.fixture
def built_nets(monkeypatch):
    """The graph of every flow network built while the test runs."""
    built = []

    class CountingNet(connectivity._FlowNet):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(connectivity, "_FlowNet", CountingNet)
    return built


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

    def test_vertices_outside_the_map_are_rejected(self, venn4):
        n = venn4.vertex_count
        for u, v in ((-1, 3), (3, n), (3, -14)):
            with pytest.raises(NotAVertexError):
                max_disjoint_paths(venn4, u, v)

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

    def test_paths_follow_the_flow_in_source_order(self, venn4):
        # each flow arc out of u-out starts one path; they come in the
        # order of those arcs, by their targets' ids
        for u, _, v in venn4.distance2_pairs():
            k, cert, _ = max_disjoint_paths(venn4, u, v)
            assert [p[1] for p in cert.paths] == sorted(p[1] for p in cert.paths)
            assert len(cert.paths) == k

    def test_corrupted_flow_raises(self, venn4):
        u, _, v = venn4.distance2_pairs()[0]
        net = connectivity._FlowNet(venn4)
        k = net.max_flow(u, v)
        path = next(p for p in connectivity._trace_paths(net, venn4, u, v, k).paths
                    if len(p) >= 4)

        def set_flow(x, y, units):
            arc = next(i for i in net.adj[x] if i % 2 == 0 and net.target[i] == y)
            net.capacity[arc], net.capacity[arc ^ 1] = 1 - units, units

        with pytest.raises(AssertionError, match="expected"):
            connectivity._trace_paths(net, venn4, u, v, k + 1)
        # send the flow out of the path's second interior vertex back into
        # its first: that path's walk now runs round a cycle forever
        w1, w2, w3 = path[1:4]
        set_flow(2 * w2 + 1, 2 * w3, 0)
        set_flow(2 * w2 + 1, 2 * w1, 1)
        with pytest.raises(AssertionError, match="longer than V"):
            connectivity._trace_paths(net, venn4, u, v, k)


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

    def test_one_flow_network_per_call(self, built_nets, venn5, weaves, flower):
        # the flow route builds one network per call; a V-graph needs none
        for g in (flower, weaves[4]):
            built_nets.clear()
            vertex_connectivity(g)
            assert built_nets == [g]
        built_nets.clear()
        vertex_connectivity(venn5)
        assert built_nets == []
        certify_distance_two(flower, 3)
        assert built_nets == [flower]

    def test_vgraph_route_agrees_with_flow(self, built_nets, venn_family):
        corpus = [*(gen_venn(n) for n in range(3, 8)),
                  *venn_family["graphs"].values(), *circle_vgraphs()]
        for g in corpus:
            built_nets.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                kappa, cut = vertex_connectivity(g)
                bundles = certify_distance_two(g, 4)
            assert built_nets == []
            assert kappa == 4
            (s,) = cut.sides[0]
            assert cut.cut == g.adjacency_sets[s] and len(cut.cut) == 4
            assert verify_cut(g, cut)
            assert bundles.certified and bundles.fallback_count == 0
            for u, z, v, cert in bundles.certificates:
                assert cert.k == 4 and verify_certificate(g, cert)
                assert reference_verify(g, cert)
            # a plain rotation map is not a PlaneGraph, so it takes the flow route
            plain = RotationMap((4,) * g.vertex_count, g._twin)
            flow_kappa, flow_cut = vertex_connectivity(plain)
            assert built_nets == [plain]
            assert flow_kappa == kappa
            assert len(flow_cut.cut) == 4 and verify_cut(plain, flow_cut)

    def test_agrees_with_the_capped_flow_reference(self):
        # the cut differs from the reference's only where kappa is the
        # minimum degree, and is then the neighbours of its vertex
        for g in kappa_sample():
            kappa, cut = vertex_connectivity(g)
            ref_kappa, ref_cut = reference_connectivity(g)
            assert kappa == ref_kappa
            if cut is None:
                assert ref_cut is None
                continue
            assert len(cut.cut) == kappa and verify_cut(g, cut)
            adj = g.adjacency_sets
            s = min(range(g.vertex_count), key=lambda v: (len(adj[v] - {v}), v))
            around = adj[s] - {s}
            if kappa < len(around):
                assert cut == ref_cut
            else:
                assert cut.cut == around and cut.sides[0] == {s}

    def test_lower_bound_is_certified(self, monkeypatch):
        # every distance-2 pair is certified with at least kappa paths,
        # and a pair that lowers the bound comes first as a counterexample
        real = connectivity._proof_bundles
        pulled = []

        def recording(g, pairs, k=4):
            for item in real(g, pairs, k):
                pulled.append(item)
                yield item

        monkeypatch.setattr(connectivity, "_proof_bundles", recording)
        checked = lowered = 0
        for g in kappa_sample():
            if (not g.is_connected or not g.distance2_pairs()
                    or isinstance(g, PlaneGraph) and validate(g).is_vgraph):
                continue
            pulled.clear()
            kappa, _ = vertex_connectivity(g)
            if kappa >= 4:
                continue
            certified, flows = {}, []
            for i, (u, z, v, cert, fallback) in enumerate(pulled):
                assert not fallback
                if type(cert) is Counterexample:
                    assert (cert.u, cert.v) == (u, v) and len(cert.cut.cut) == cert.flow
                    assert verify_cut(g, cert.cut)
                    nu, nz, nv, after, _ = pulled[i + 1]
                    assert (nu, nz, nv) == (u, z, v) and type(after) is PathCertificate
                    assert after.k == cert.flow
                    flows.append(cert.flow)
                    continue
                assert (cert.u, cert.v) == (u, v) and (u, v) not in certified
                assert cert.k >= kappa and reference_verify(g, cert)
                certified[u, v] = cert
            assert certified.keys() == {(u, v) for u, _, v in g.distance2_pairs()}
            assert min(cert.k for cert in certified.values()) == kappa
            # each counterexample lowers the bound, and the last sets it
            assert flows == sorted(set(flows), reverse=True)
            assert flows[-1:] in ([], [kappa])
            checked += 1
            lowered += len(flows)
        assert checked > 80 and lowered >= 5

    def test_vgraph_lower_bound_is_certified(self, monkeypatch, venn5):
        real = connectivity._four_paths
        calls = []

        def counting(g, index, z, around, su, v):
            calls.append((around[0][su], v))
            return real(g, index, z, around, su, v)

        monkeypatch.setattr(connectivity, "_four_paths", counting)
        assert vertex_connectivity(venn5)[0] == 4
        assert sorted(calls) == sorted(straight_through_pairs(venn5))

    def test_straight_through_pairs_decide_low_connectivity(self):
        # the lemma in the connectivity docstring: on simple, connected,
        # 4-regular plane graphs the pairs opposite each other round a
        # common neighbour already reach the minimum, here on circle
        # families that are not V-graphs as well as on those that are
        rng = random.Random(7)
        low = 0
        while low < 15:
            circles = [(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                        rng.uniform(0.5, 2.0)) for _ in range(rng.randint(3, 5))]
            try:
                g = from_circles(circles)
            except ValueError:
                continue  # tangent, concentric or isolated circles
            adj = g.adjacency_sets
            if not g.is_connected or any(len(adj[v] - {v}) != 4 for v in range(g.vertex_count)):
                continue
            kappa, _ = vertex_connectivity(RotationMap((4,) * g.vertex_count, g._twin))
            net = connectivity._FlowNet(g)
            assert min(net.max_flow(u, v) for u, v in straight_through_pairs(g)) == kappa
            low += kappa < 4

    def test_rejected_cut_is_an_error(self, monkeypatch, built_nets, venn5):
        # a V-graph's one upper bound is the cut around a vertex of degree
        # 4; every pair route ends at the same cut, so a rejection stops
        real = connectivity.verify_cut
        rejected = []

        def reject_first(g, cert):
            if not rejected:
                rejected.append(cert)
                return False
            return real(g, cert)

        monkeypatch.setattr(connectivity, "verify_cut", reject_first)
        with pytest.raises(AssertionError, match="^the neighbours of vertex 0 do not separate it$"):
            vertex_connectivity(venn5)
        assert len(rejected) == 1 and len(rejected[0].sides[0]) == 1
        # every venn5 bundle verifies, so no pair needs a flow
        assert built_nets == []


class TestProofPaths:
    def test_case1_shape_on_venn3(self, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        result = proof_paths(venn3, u, z, v)
        assert result.case == 1
        assert not result.used_fallback
        assert (u, z, v) in result.certificate.paths
        a, b = result.roles["a"], result.roles["b"]
        assert len({u, v, a, b}) == 4
        # one path crosses each far neighbour of z
        crossed = {x for p in result.certificate.paths for x in p[1:-1]}
        assert {a, b} <= crossed

    def test_case2_appears_on_venn4(self, venn4):
        cases = set()
        for u, z, v in venn4.distance2_pairs():
            result = proof_paths(venn4, u, z, v)
            cases.add(result.case)
            assert not result.used_fallback
            expanded = tuple((p,) for p in result.certificate.paths)
            assert verify_certificate(venn4, PathCertificate(u, v, expanded))
        assert cases == {1, 2}

    def test_case2_path_structure(self, venn5):
        curve_of = venn5.curve_of
        for u, z, v in venn5.distance2_pairs():
            result = proof_paths(venn5, u, z, v)
            if result.case != 2:
                continue
            a, b = result.roles["a"], result.roles["b"]
            path_a, path_b, path_c, path_d = result.certificate.paths
            assert path_d == (u, z, v)
            # the two perimeter paths stay inside the faces around z and
            # pass through the far neighbours as prescribed
            assert a in path_b and b in path_b
            assert not (set(path_a[1:-1]) & set(path_b[1:-1]))
            # the curve-switching path stays on the two curves through z
            on_curves = {
                x
                for x in range(venn5.vertex_count)
                if {curve_of[4 * x], curve_of[4 * x + 1]}
                & {curve_of[venn5.dart(z, 0)], curve_of[venn5.dart(z, 1)]}
            }
            assert set(path_c) <= on_curves
            assert not {a, b, z} & set(path_c)

    def test_roles_distinct_everywhere(self, venn_family):
        for g in venn_family["graphs"].values():
            for u, z, v in g.distance2_pairs():
                result = proof_paths(g, u, z, v)
                a, b = result.roles["a"], result.roles["b"]
                assert len({u, v, a, b}) == 4

    def test_agrees_with_flow_count(self, venn4):
        for u, z, v in venn4.distance2_pairs():
            result = proof_paths(venn4, u, z, v)
            k, _, _ = max_disjoint_paths(venn4, u, v)
            assert result.certificate.k == 4 == k

    def test_preconditions(self, venn3, weaves):
        u, z, v = venn3.distance2_pairs()[0]
        with pytest.raises(NotDistanceTwoError):
            proof_paths(venn3, u, z, next(iter(venn3.adjacency_sets[u])))
        with pytest.raises(NotDistanceTwoError):
            proof_paths(venn3, u, u, v)
        with pytest.raises(NotVGraphError):
            wu, wz, wv = weaves[3].distance2_pairs()[0]
            proof_paths(weaves[3], wu, wz, wv)

    def test_vertices_outside_the_graph_are_rejected(self, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        n = venn3.vertex_count
        for triple in ((n, z, v), (u, -n, v), (u, z, -1)):
            with pytest.raises(NotDistanceTwoError, match=f"not in 0..{n - 1}"):
                proof_paths(venn3, *triple)

    def test_bundle_comes_from_the_certification_route(self, monkeypatch, venn4):
        calls = []
        real = connectivity._proof_bundles

        def recording(g, pairs):
            calls.append(dict(pairs))
            return real(g, pairs)

        monkeypatch.setattr(connectivity, "_proof_bundles", recording)
        for u, z, v in venn4.distance2_pairs():
            calls.clear()
            proof_paths(venn4, u, z, v)
            assert calls == [{(u, v): z}]

    def test_rejected_bundle_falls_back_to_flow_paths(self, monkeypatch, venn4):
        # flow paths go through the same verifier, so only bundles fail
        monkeypatch.setattr(connectivity, "verify_certificate",
                            lambda g, cert: cert.index is None and verify_certificate(g, cert))
        for u, z, v in venn4.distance2_pairs():
            result = proof_paths(venn4, u, z, v)
            assert result.used_fallback
            assert result.certificate.index is None
            assert verify_certificate(venn4, result.certificate)


class TestDistanceTwoCertification:
    def test_venn4_certified_at_four(self, venn4):
        result = certify_distance_two(venn4, 4)
        assert result.certified
        assert result.fallback_count == 0
        for u, z, v, cert in result.certificates:
            assert cert.k == 4
            assert verify_certificate(venn4, cert) and reference_verify(venn4, cert)

    def test_rejected_bundles_fall_back_to_counted_flow_paths(self, monkeypatch, venn5):
        # every third bundle fails verification and every seventh pair
        # cannot be built; each is replaced by flow paths and counted
        real_verify, real_build = connectivity.verify_certificate, connectivity._four_paths
        checked, built = [], []

        def verify(g, cert):
            if cert.index is None:
                return real_verify(g, cert)  # flow paths
            checked.append((cert.u, cert.v))
            return len(checked) % 3 != 0 and real_verify(g, cert)

        def build(g, index, z, around, su, v):
            built.append(None)
            if len(built) % 7 == 0:
                raise connectivity._ConstructionSurprise("test")
            return real_build(g, index, z, around, su, v)

        monkeypatch.setattr(connectivity, "verify_certificate", verify)
        monkeypatch.setattr(connectivity, "_four_paths", build)
        result = certify_distance_two(venn5, 4)
        flow = [cert for *_, cert in result.certificates if cert.index is None]
        assert result.certified
        assert result.fallback_count == len(flow) == len(checked) // 3 + len(built) // 7
        for u, z, v, cert in result.certificates:
            assert (cert.u, cert.v, cert.k) == (u, v, 4)
            assert verify_certificate(venn5, cert) and reference_verify(venn5, cert)

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
                assert verify_certificate(g, cert) and reference_verify(g, cert)


# five circles with connectivity 4 that are no V-graph: face 1 meets
# curve 0 twice
KAPPA4_NON_V = [(3.6, 0.8, 2.2), (1.3, 2.7, 2.3), (2.5, 3.2, 1.4), (0.0, 2.0, 1.8),
                (0.7, 1.6, 1.3)]


def flow_certification(g, k):
    """The flow-only reference: every distance-2 pair in sorted order on
    one network, each flow capped at k, up to the first pair short of k.
    Returns the pair count and the counterexample (u, v, flow, cut size),
    or None."""
    pairs = sorted({(u, v) for u, _, v in g.distance2_pairs()})
    net = connectivity._FlowNet(g)
    for u, v in pairs:
        flow = net.max_flow(u, v, k)
        if flow < k:
            cut = connectivity._extract_cut(net, g, u, v, flow)
            return len(pairs), (u, v, flow, len(cut.cut))
    return len(pairs), None


class TestConstructFirstCertification:
    """At k = 4 every map with simple curves takes verified bundles first
    and flow only for the pairs they miss; the answers are the flow-only
    reference's."""

    def inputs(self):
        rng = random.Random(7)
        graphs = [g for _, g in random_circle_families(rng, 150)]
        graphs += [random_plane_graph(rng) for _ in range(300)]
        return [g for g in graphs if g.is_connected and g.distance2_pairs()]

    def test_agrees_with_the_flow_reference(self):
        constructed = 0
        for g in self.inputs():
            result = certify_distance_two(g, 4)
            cx = result.counterexample
            want_pairs, want_cx = flow_certification(g, 4)
            assert result.pair_count == want_pairs
            assert result.certified == (want_cx is None)
            if cx is not None:
                assert (cx.u, cx.v, cx.flow, len(cx.cut.cut)) == want_cx
                assert verify_cut(g, cx.cut)
            adj = g.adjacency_sets
            for u, z, v, cert in result.certificates:
                assert z == min(adj[u] & adj[v])
                assert (cert.u, cert.v, cert.k) == (u, v, 4)
                assert verify_certificate(g, cert) and reference_verify(g, cert)
            if not validate(g).is_vgraph:
                assert result.fallback_count == 0
                constructed += sum(cert.index is not None for *_, cert in result.certificates)
        assert constructed > 0

    def test_construction_raises_only_its_surprise(self):
        for g in self.inputs():
            if g.self_crossings:
                continue
            index = g.curve_index
            for (u, v), z in connectivity._unique_pairs(g).items():
                around = connectivity._around(g, index, z)
                try:
                    connectivity._four_paths(g, index, z, around, around[0].index(u), v)
                except connectivity._ConstructionSurprise:
                    pass

    def test_bundles_certify_a_family_without_unique_face_incidence(self):
        g = from_circles(KAPPA4_NON_V)
        assert validate(g).ufi_violations == ((1, 0, 2),) and g.vertex_count == 20
        result = certify_distance_two(g, 4)
        assert result.certified and result.pair_count == 65
        assert result.fallback_count == 0
        assert any(cert.index is g.curve_index for *_, cert in result.certificates)
        for *_, cert in result.certificates:
            assert verify_certificate(g, cert) and reference_verify(g, cert)


class TestTheoremAsOracle:
    """The paper's theorem on seeded circle families: a V-graph is
    4-connected, with every distance-2 pair certified by its bundle, so a
    connected family of three or more curves with a smaller cut breaks
    unique face incidence."""

    def test_vgraphs_certify_and_small_cuts_break_unique_face_incidence(self):
        vgraphs = small_cuts = 0
        for k, g in random_circle_families(random.Random(7), 150):
            if k < 3 or not g.is_connected:
                continue
            report = validate(g)
            kappa, cut = vertex_connectivity(g)
            if report.is_vgraph:
                result = certify_distance_two(g, 4)
                assert kappa == 4 and result.certified and result.fallback_count == 0
                vgraphs += 1
            if kappa < 4:
                assert report.ufi_violations and verify_cut(g, cut)
                small_cuts += 1
        assert vgraphs and small_cuts


@pytest.fixture(scope="module")
def compact_corpus(venn_family):
    """V-graphs with their κ = 4 certifications: gen_venn(3..9), the
    extension fixtures and 20 circle families."""
    graphs = [*(gen_venn(n) for n in range(3, 10)),
              *venn_family["graphs"].values(), *circle_vgraphs()]
    return [(g, certify_distance_two(g, 4)) for g in graphs]


@pytest.fixture(scope="module")
def mutant_corpus(compact_corpus):
    """compact_corpus and the κ = 4 family without unique face incidence,
    whose bundles rest on the compact verifier alone."""
    g = from_circles(KAPPA4_NON_V)
    return [*compact_corpus, (g, certify_distance_two(g, 4))]


# every flow resets the network, so the round trips of one graph share one
shared_net = functools.cache(connectivity._FlowNet)


def assert_rejected(g, mutant):
    """The verifier rejects ``mutant``, and the certification
    loop, handed it as the bundle of a distance-2 pair, gives that pair
    verified flow paths instead."""
    assert not verify_certificate(g, mutant)
    u, v = mutant.u, mutant.v
    adj = g.adjacency_sets
    if v in adj[u]:
        return  # no distance-2 pair to certify
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connectivity, "_four_paths", lambda *args: mutant.pieces)
        patch.setattr(connectivity, "_FlowNet", shared_net)
        # the stream is lazy: read it while the patches hold
        items = list(connectivity._proof_bundles(g, {(u, v): min(adj[u] & adj[v])}))
    assert len(items) == 1
    ((_, _, _, cert, _),) = items
    assert type(cert) is PathCertificate and cert.index is None
    assert cert.k == 4 and verify_certificate(g, cert)


def with_path(cert, i, pieces):
    """``cert`` with path i replaced by ``pieces``."""
    paths = list(cert.pieces)
    paths[i] = tuple(pieces)
    return PathCertificate(cert.u, cert.v, pieces=tuple(paths), index=cert.index)


def segments_of(cert):
    """(path index, piece index, segment) for every segment of ``cert``."""
    return [(i, j, piece) for i, path in enumerate(cert.pieces)
            for j, piece in enumerate(path) if isinstance(piece, Segment)]


def sample(corpus, per_graph=60):
    """The first compact certificates of every graph, with their graph."""
    return [(g, cert) for g, result in corpus
            for *_, cert in result.certificates[:per_graph] if cert.index is not None]


class TestCompactCertificates:
    def test_index_agrees_with_curves_and_faces(self, compact_corpus):
        for g, _ in compact_corpus:
            index = g.curve_index
            assert index.curve_vertices == tuple(
                tuple(d >> 2 for d in darts) for darts in g.curves)
            for d in range(g.dart_count):
                c = g.curve_of[d]
                assert index.curve_vertices[c][index.position[d]] == d >> 2
                assert index.step[d] == (1 if d in g.curves[c] else -1)
            # every corner arc is its face's boundary after z's dart,
            # sliced round to just before it
            for z in range(g.vertex_count):
                _, corners = connectivity._around(g, index, z)
                for s, arc in enumerate(corners):
                    boundary = g.faces[g.face_of[4 * z + s]]
                    i = boundary.index(4 * z + s)
                    ring = tuple(d >> 2 for d in boundary)
                    assert arc == ring[i + 1:] + ring[:i]
            for c, darts in enumerate(g.curves):
                for other in range(len(g.curves)):
                    want = tuple(i for i, d in enumerate(darts)
                                 if g.curve_of[d ^ 1] == other)
                    assert index.crossings.get((c, other), ()) == want

    def test_bundles_verify_compact_and_expanded(self, compact_corpus):
        for g, result in compact_corpus:
            assert result.certified and result.fallback_count == 0
            for *_, cert in result.certificates:
                assert cert.k == 4
                assert verify_certificate(g, cert)
                # the long path is one segment or two
                assert 1 <= len(segments_of(cert)) <= 2
                assert reference_verify(g, cert)

    def test_bundles_are_those_of_proof_paths(self, compact_corpus):
        # the bundles built a common neighbour at a time are the pieces
        # proof_paths builds for each pair alone, in sorted pair order
        for g, result in compact_corpus:
            pairs = [(u, v) for u, _, v, _ in result.certificates]
            assert pairs == sorted(pairs) and len(pairs) == result.pair_count
            for u, z, v, cert in result.certificates:
                alone = proof_paths(g, u, z, v)
                assert not alone.used_fallback
                assert alone.certificate.pieces == cert.pieces

    def test_segment_expansion_is_a_curve_walk(self, compact_corpus):
        for g, cert in sample(compact_corpus):
            for _, _, seg in segments_of(cert):
                darts = g.curves[seg.curve]
                d = darts[seg.start] if seg.step == 1 else darts[seg.start] ^ 2
                walk = [d >> 2]
                while walk[-1] != darts[seg.end] >> 2:
                    d = g.curve_next(d)
                    walk.append(d >> 2)
                alone = PathCertificate(walk[0], walk[-1], pieces=((seg,),),
                                        index=g.curve_index)
                assert alone.paths == (tuple(walk),)

    def test_step_other_than_one_is_not_expanded(self, venn4):
        # it would otherwise read as -1
        index = venn4.curve_index
        assert Segment(1, 0, 0, 1).vertices(index) == (index.curve_vertices[1][0],)
        for step in (0, 2, -2):
            segment = Segment(1, 0, 2, step)
            with pytest.raises(ValueError, match=re.escape(repr(segment))):
                segment.vertices(index)

    def test_not_expanded_on_the_kappa_route(self, monkeypatch, venn6):
        def no_expansion(*args):
            raise AssertionError("a compact path was expanded")

        monkeypatch.setattr(connectivity, "_expand", no_expansion)
        assert vertex_connectivity(venn6)[0] == 4
        result = certify_distance_two(venn6, 4)
        assert all(segments_of(cert) and not hasattr(cert, "__dict__")
                   for *_, cert in result.certificates)

    def test_certification_builds_no_face_tuples(self, monkeypatch):
        # corner arcs walk face_next and the curve index keeps no face
        # table, so no route of certification reads RotationMap.faces
        def no_faces(self):
            raise AssertionError("a face tuple was built")

        g = parse_arr(write_arr(gen_venn(8)))
        monkeypatch.setattr(RotationMap, "faces", property(no_faces))
        result = certify_distance_two(g, 4)
        assert result.certified and result.fallback_count == 0
        names = PathNames(g)
        for *_, cert in result.certificates:
            assert format_path_certificate(cert, names).count("path: ") == 4
        assert vertex_connectivity(g)[0] == 4
        assert not proof_paths(g, 0, 2, 1).used_fallback

    def test_shifted_segment_end_is_rejected(self, mutant_corpus):
        for g, cert in sample(mutant_corpus):
            for i, j, seg in segments_of(cert):
                for delta in (-1, 1):
                    pieces = list(cert.pieces[i])
                    pieces[j] = seg._replace(end=seg.end + delta)
                    assert_rejected(g, with_path(cert, i, pieces))

    def test_curve_ids_outside_the_index_are_rejected(self):
        # c - C indexes curve c in every table, so only a range check
        # tells the two apart
        g = gen_venn(5)
        count = len(g.curves)
        bundles = [cert for *_, cert in certify_distance_two(g, 4).certificates
                   if cert.index is not None]
        assert len(bundles) > 100
        for cert in bundles:
            i, j, seg = segments_of(cert)[0]
            for c in (seg.curve - count, seg.curve + count):
                pieces = list(cert.pieces[i])
                pieces[j] = seg._replace(curve=c)
                assert not verify_certificate(g, with_path(cert, i, pieces))

    def test_flipped_direction_is_rejected(self, mutant_corpus):
        for g, cert in sample(mutant_corpus):
            for i, j, seg in segments_of(cert):
                pieces = list(cert.pieces[i])
                pieces[j] = seg._replace(step=-seg.step)
                assert_rejected(g, with_path(cert, i, pieces))

    def test_step_other_than_one_is_rejected(self, mutant_corpus):
        for g, cert in sample(mutant_corpus):
            for i, j, seg in segments_of(cert):
                for step in (0, 2 * seg.step):
                    pieces = list(cert.pieces[i])
                    pieces[j] = seg._replace(step=step)
                    assert_rejected(g, with_path(cert, i, pieces))

    def test_wrong_start_vertex_is_rejected(self, mutant_corpus):
        for g, cert in sample(mutant_corpus):
            for i, j, seg in segments_of(cert):
                pieces = list(cert.pieces[i])
                length = len(g.curve_index.curve_vertices[seg.curve])
                pieces[j] = seg._replace(start=(seg.start + 1) % length)
                assert_rejected(g, with_path(cert, i, pieces))
                # the right vertex, named by a negative index
                pieces[j] = seg._replace(start=seg.start - length)
                assert not verify_certificate(g, with_path(cert, i, pieces))

    def test_overlapping_segments_on_one_curve_are_rejected(self, mutant_corpus):
        checked = 0
        for g, cert in sample(mutant_corpus):
            (i, _, seg), *more = segments_of(cert)
            length = len(g.curve_index.curve_vertices[seg.curve])
            if more or (seg.end - seg.start) * seg.step % length < 3:
                continue  # case 2, or a curve too short to fold
            far = (seg.start + 2 * seg.step) % length
            back = (far - seg.step) % length
            split = (Segment(seg.curve, seg.start, far, seg.step),
                     Segment(seg.curve, far, seg.end, seg.step))
            assert verify_certificate(g, with_path(cert, i, split))
            folded = (Segment(seg.curve, seg.start, far, seg.step),
                      Segment(seg.curve, far, back, -seg.step),
                      Segment(seg.curve, back, seg.end, seg.step))
            assert_rejected(g, with_path(cert, i, folded))
            checked += 1
        assert checked > 100

    def test_segments_crossing_inside_both_are_rejected(self, mutant_corpus):
        # c1 -> x -> c2 on one curve, round a face of x to a2, then
        # a2 -> x -> a1 on the other: the two segments meet only at x
        for g, _ in [*mutant_corpus[:6], mutant_corpus[-1]]:
            index = g.curve_index
            for x in range(g.vertex_count):
                a1, c1, a2, c2 = (g.twin(d) >> 2 for d in range(4 * x, 4 * x + 4))
                across = Segment(g.curve_of[4 * x + 1], index.position[g.twin(4 * x + 1)],
                                 index.position[g.twin(4 * x + 3)], index.step[4 * x + 3])
                around = connectivity._around(g, index, x)[1][3]
                along = Segment(g.curve_of[4 * x], index.position[g.twin(4 * x + 2)],
                                index.position[g.twin(4 * x)], index.step[4 * x])
                cert = PathCertificate(c1, a1, pieces=((across, around, along),), index=index)
                assert cert.paths[0].count(x) == 2
                assert_rejected(g, cert)

    def test_explicit_steps_and_repeats_are_rejected(self, mutant_corpus):
        for g, cert in sample(mutant_corpus, per_graph=10):
            direct, other = sorted(
                (i for i, path in enumerate(cert.pieces)
                 if not any(isinstance(p, Segment) for p in path)),
                key=lambda i: len(cert.pieces[i][0]) != 3,
            )[:2]
            # u and v are not adjacent
            jump = with_path(cert, direct, [(cert.u, cert.v)])
            assert_rejected(g, jump)
            # one short path, twice
            twice = with_path(cert, other, cert.pieces[direct])
            assert_rejected(g, twice)

    def test_same_segment_twice_is_rejected(self, compact_corpus):
        # case 1 puts u-z-v first; a second copy of the long segment in
        # its place shares every inner vertex, while the other way round
        # the curve, through z, is disjoint from it
        checked = 0
        for g, cert in sample(compact_corpus):
            (i, _, seg), *more = segments_of(cert)
            if more:
                continue
            assert len(cert.pieces[0][0]) == 3
            twice = with_path(cert, 0, (seg,))
            assert not reference_verify(g, twice)
            assert not verify_certificate(g, twice)
            other_way = with_path(cert, 0, (seg._replace(step=-seg.step),))
            assert other_way.paths[0] == cert.paths[0]
            assert verify_certificate(g, other_way)
            checked += 1
        assert checked > 100

    def test_explicit_certificate_verifies_as_compact(self, venn4):
        u, _, v = venn4.distance2_pairs()[0]
        _, flow_cert, _ = max_disjoint_paths(venn4, u, v)
        cert = PathCertificate(u, v, tuple((p,) for p in flow_cert.paths))
        assert cert.index is None and cert.paths == flow_cert.paths
        assert verify_certificate(venn4, cert)
        twice = PathCertificate(u, v, cert.pieces[:1] * 2)
        assert not verify_certificate(venn4, twice)
        # pieces that do not meet expand whole, which the reference
        # accepts; the verifier rejects the broken junction
        path = flow_cert.paths[0]
        gap = PathCertificate(u, v, pieces=((path[:2], path[2:]),))
        assert gap.paths == (path,) and reference_verify(venn4, gap)
        assert not verify_certificate(venn4, gap)

    def test_index_of_another_graph_is_rejected(self, compact_corpus):
        g, result = compact_corpus[2]
        cert = result.certificates[0][3]
        other = gen_venn(5)
        assert other.curve_index == g.curve_index and other.curve_index is not g.curve_index
        foreign = PathCertificate(cert.u, cert.v, pieces=cert.pieces, index=other.curve_index)
        assert verify_certificate(g, cert)
        assert not verify_certificate(g, foreign)

    def test_segments_on_curves_that_never_cross(self):
        # the outer circles are disjoint and both cross the middle one
        g = from_circles([(0.0, 0.0, 1.0), (3.0, 0.0, 1.0), (1.5, 0.0, 1.2)])
        index = g.curve_index
        assert index.curve_vertices == ((0, 1), (0, 2, 3, 1), (2, 3))
        assert (0, 2) not in index.crossings
        pieces = ((Segment(0, 0, 1, 1), Segment(1, 3, 2, -1), Segment(2, 1, 0, -1)),
                  (Segment(1, 0, 1, 1),))
        cert = PathCertificate(0, 2, pieces=pieces, index=index)
        assert cert.paths == ((0, 1, 3, 2), (0, 2))
        assert reference_verify(g, cert)
        assert verify_certificate(g, cert)


def mutants(g, cert, rng):
    """Seeded mutants of ``cert``: u or v set to -1 or V (with the runs
    that start or end there), a run vertex swapped with the next one or
    replaced by any of -1..V, a run truncated, and the expanded paths
    passed as the pieces, which makes every piece a vertex.  Shifted and
    flipped segments are the rejection tests' of TestCompactCertificates."""
    n = g.vertex_count
    out = [PathCertificate(cert.u, cert.v, tuple(cert.iter_paths()), cert.index)]
    for x in (-1, n):
        starts = tuple(((x,) + path[0][1:],) + path[1:] if type(path[0]) is tuple else path
                       for path in cert.pieces)
        ends = tuple(path[:-1] + (path[-1][:-1] + (x,),) if type(path[-1]) is tuple else path
                     for path in cert.pieces)
        out.append(PathCertificate(x, cert.v, pieces=starts, index=cert.index))
        out.append(PathCertificate(cert.u, x, pieces=ends, index=cert.index))
    for i, path in enumerate(cert.pieces):
        for j, piece in enumerate(path):
            def swap(new):
                return with_path(cert, i, path[:j] + (new,) + path[j + 1:])
            if type(piece) is tuple and len(piece) >= 2:
                a = rng.randrange(len(piece) - 1)
                run = list(piece)
                run[a], run[a + 1] = run[a + 1], run[a]
                out.append(swap(tuple(run)))
                run = list(piece)
                run[rng.randrange(len(run))] = rng.randrange(-1, n + 1)
                out.append(swap(tuple(run)))
                out.append(swap(piece[:-1]))
    return out


class TestOneVerifier:
    """``verify_certificate`` checks flow paths and compact bundles alike,
    and never accepts what the expanded-path reference rejects."""

    def test_sound_against_the_reference(self, mutant_corpus):
        # mutants are made of the first bundles of each graph, the family
        # without unique face incidence included, and of flow paths
        rng = random.Random(33)
        g = gen_venn(4)
        pool = [*sample(mutant_corpus),
                *((g, cert) for *_, cert in certify_distance_two(g, 3).certificates)]
        accepted = rejected = 0
        for g, cert in pool:
            assert verify_certificate(g, cert) and reference_verify(g, cert)
            for mutant in mutants(g, cert, rng):
                if verify_certificate(g, mutant):
                    assert reference_verify(g, mutant)
                    accepted += 1
                else:
                    rejected += 1
        assert rejected > 1000 and accepted > 0

    def test_flow_paths_verify_on_any_rotation_map(self):
        rng = random.Random(3)
        crossed = next(g for g in iter(lambda: random_plane_graph(rng), None)
                       if g.self_crossings and g.is_connected and g.distance2_pairs())
        for g in (dual(gen_venn(4)), crossed):
            for u, _, v in g.distance2_pairs()[:20]:
                k, cert, _ = max_disjoint_paths(g, u, v)
                assert cert.k == k and verify_certificate(g, cert)
                assert reference_verify(g, cert)

    def test_segments_need_a_map_with_simple_curves(self):
        g = gen_venn(4)
        result = certify_distance_two(g, 4)
        cert = result.certificates[0][3]
        assert segments_of(cert) and verify_certificate(g, cert)
        assert not verify_certificate(RotationMap((4,) * g.vertex_count, g._twin), cert)
        rng = random.Random(3)
        crossed = next(h for h in iter(lambda: random_plane_graph(rng), None)
                       if h.self_crossings and h.vertex_count >= 2)
        bent = PathCertificate(0, 1, pieces=((Segment(0, 0, 0, 1),),), index=g.curve_index)
        assert not verify_certificate(crossed, bent)

    def test_paths_from_minus_one_are_rejected(self):
        # -1 indexes vertex V - 1 in every table, so only a range check
        # tells the two apart
        g = gen_venn(4)
        last = g.vertex_count - 1
        v = next(x for x in range(last) if x not in g.adjacency_sets[last])
        _, cert, _ = max_disjoint_paths(g, last, v)
        moved = PathCertificate(-1, v, tuple(((-1,) + path[1:],) for path in cert.paths))
        assert verify_certificate(g, cert)
        assert not verify_certificate(g, moved)
        assert not reference_verify(g, moved)


class TestVerifyCut:
    def test_sides_must_be_nonempty_and_apart_from_the_cut(self, venn4):
        v = next(x for x in range(1, venn4.vertex_count) if x not in venn4.adjacency_sets[0])
        _, _, cert = max_disjoint_paths(venn4, 0, v)
        assert verify_cut(venn4, cert)
        a, b = cert.sides
        s = min(cert.cut)
        for sides in ((frozenset(), b), (a, frozenset()),   # an empty side
                      (a, b | {min(a)}),                   # sides overlap
                      (a, b | {s}), (a | {s}, b)):         # a side meets the cut
            assert verify_cut(venn4, CutCertificate(cert.cut, sides)) is False

    def test_vertices_outside_the_map_are_rejected(self):
        g = gen_venn(4)
        n = g.vertex_count
        assert g.is_connected
        for cut, a, b in (((), (-1,), (n - 1,)), ((), (0,), (n,)), ((), (n,), (0,)),
                          ((n,), (0,), (1,))):
            cert = CutCertificate(frozenset(cut), (frozenset(a), frozenset(b)))
            assert verify_cut(g, cert) is False
