from __future__ import annotations

import inspect
import random
import sys
from pathlib import Path

import pytest

from venngraph import hamilton
from venngraph.arrio import parse_arr
from venngraph.dual import dual
from venngraph.generators import from_circles, gen_venn, gen_weave
from venngraph.hamilton import (
    BudgetExceededError,
    find_hamilton,
    verify_cycle,
)
from venngraph.maps import PlaneGraph, RotationMap
from venngraph.validate import validate

from conftest import LENS_CIRCLES, rotation_map_from_edges, theta_rotation_map
from test_arrio import random_plane_graph

FIXED_DIAGRAMS = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def hamilton_exists_brute(g):
    """Plain depth-first enumeration of simple paths from vertex 0."""
    n = g.vertex_count
    adj = [sorted(g.adjacency_sets[v] - {v}) for v in range(n)]
    used = [False] * n
    used[0] = True

    def extend(v, depth):
        if depth == n:
            return 0 in adj[v]
        for w in adj[v]:
            if not used[w]:
                used[w] = True
                if extend(w, depth + 1):
                    return True
                used[w] = False
        return False

    return extend(0, 1)


class TestFindHamilton:
    def test_venn3_six_cycle(self, venn3):
        cycle = find_hamilton(venn3)
        assert cycle is not None
        assert len(cycle) == 6
        assert verify_cycle(venn3, cycle.order)

    def test_venn5_thirty_cycle(self, venn5):
        cycle = find_hamilton(venn5)
        assert cycle is not None
        assert len(cycle) == 30
        assert verify_cycle(venn5, cycle.order)

    def test_dual_of_venn3_is_hamiltonian(self, venn3):
        d = dual(venn3)
        cycle = find_hamilton(d)
        assert cycle is not None
        assert verify_cycle(d, cycle.order)

    def test_weaves_keep_their_ring(self, weaves):
        for k, w in weaves.items():
            cycle = find_hamilton(w)
            assert cycle is not None
            assert verify_cycle(w, cycle.order)

    def test_non_hamiltonian_graph_exhausts(self):
        g = theta_rotation_map()
        assert find_hamilton(g) is None
        assert not hamilton_exists_brute(g)

    def test_deterministic(self, venn4):
        assert find_hamilton(venn4).order == find_hamilton(venn4).order

    def test_canonical_start_and_direction(self, venn4):
        order = find_hamilton(venn4).order
        assert order[0] == 0
        assert order[1] < order[-1]

    def test_budget_raises_distinctly(self, venn5):
        with pytest.raises(BudgetExceededError):
            find_hamilton(venn5, budget=2)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_refused(self, venn5, budget):
        # before the root refusals too: the figure eight has no cycle to seek
        from venngraph.maps import PlaneGraph

        for g in (venn5, PlaneGraph(1, [1, 0, 3, 2])):
            with pytest.raises(ValueError, match=f"^budget must be at least 1, got {budget}$"):
                find_hamilton(g, budget=budget)

    def test_cut_vertex_at_the_tarjan_root(self):
        # two K4s sharing vertex 0, not plane, so the root runs the Tarjan
        # pass, whose DFS root 0 has two children
        g = rotation_map_from_edges(7, [(a, b) for k in ((0, 1, 2, 3), (0, 4, 5, 6))
                                        for i, a in enumerate(k) for b in k[i + 1:]])
        assert hamilton._plane_faces(g, list(g.edges())) is None
        assert find_hamilton(g, budget=1) is None

    def test_too_small_rejected(self, weaves):
        from venngraph.maps import PlaneGraph

        # a cycle needs three vertices, so fewer have no Hamilton cycle
        for g in (PlaneGraph(2, [6, 7, 4, 5, 2, 3, 0, 1]), PlaneGraph(1, [1, 0, 3, 2])):
            assert find_hamilton(g) is None


def without_edges(g, doomed) -> RotationMap | None:
    """g minus the edges whose canonical darts are in ``doomed``, with the
    rotation restricted to the darts left, so a plane map stays plane;
    None when a vertex would keep fewer than two darts."""
    keep = [d for d in range(g.dart_count) if g.edge_of(d) not in doomed]
    index = {d: i for i, d in enumerate(keep)}
    degrees = [0] * g.vertex_count
    for d in keep:
        degrees[g.dart_vertex(d)] += 1
    if min(degrees) < 2:
        return None
    return RotationMap(degrees, [index[g.twin(d)] for d in keep])


def thinned_circle_families(count: int, seed: int) -> list[RotationMap]:
    """Seeded circle families of 3..6 circles with 1..5 random edges
    deleted: plane maps, some of them disconnected or non-Hamiltonian."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        circles = [(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                    rng.uniform(0.8, 2.5)) for _ in range(rng.randint(3, 6))]
        try:
            g = from_circles(circles)
        except ValueError:
            continue  # tangent, concentric or isolated circles
        edges = list(g.edges())
        h = without_edges(g, set(rng.sample(edges, rng.randint(1, 5))))
        if h is not None:
            out.append(h)
    return out


def outcome_and_expansions(g) -> tuple[tuple[int, ...] | None, int]:
    """find_hamilton's outcome on g (the cycle, or None) and the least
    budget within which it returns, at least 1 (a map refused at the root
    spends no expansion, but no budget below 1 is accepted)."""
    lo, hi = 0, 1  # the budget lo raises or is refused, hi is the next one to try
    while True:
        try:
            cycle = find_hamilton(g, budget=hi)
            break
        except BudgetExceededError:
            lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            find_hamilton(g, budget=mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return (None if cycle is None else cycle.order), hi


class TestSearchEffort:
    """The budget counts search nodes, so it bounds the work deterministically."""

    @pytest.mark.parametrize("name, spent", [
        ("venn7.arr", 75), ("venn8.arr", 147), (8, 176), (9, 356), (10, 710), (12, 2828),
    ])
    def test_expansions_are_pinned(self, name, spent):
        if isinstance(name, int):
            g = gen_venn(name)
        else:
            g = parse_arr((FIXED_DIAGRAMS / name).read_text(encoding="utf-8"))
        cycle = find_hamilton(g, budget=spent)
        assert cycle is not None
        assert verify_cycle(g, cycle.order)
        with pytest.raises(BudgetExceededError) as exc:
            find_hamilton(g, budget=spent - 1)
        assert exc.value.expanded == spent - 1

    def test_twelve_curves_within_vertex_count(self):
        g = gen_venn(12)
        cycle = find_hamilton(g, budget=g.vertex_count)
        assert cycle is not None
        assert verify_cycle(g, cycle.order)

    @pytest.mark.parametrize("name", ["venn7.arr", "venn8.arr"])
    def test_fixed_diagrams_within_vertex_count(self, name):
        g = parse_arr((FIXED_DIAGRAMS / name).read_text(encoding="utf-8"))
        cycle = find_hamilton(g, budget=g.vertex_count)
        assert cycle is not None
        assert verify_cycle(g, cycle.order)

    def test_search_depth_needs_no_recursion(self):
        g = gen_venn(9)
        limit = sys.getrecursionlimit()
        # far below the hundreds of decisions on the path to a 510-cycle
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            cycle = find_hamilton(g, budget=2 * g.vertex_count)
        finally:
            sys.setrecursionlimit(limit)
        assert cycle is not None
        assert verify_cycle(g, cycle.order)

    def test_circle_family_vgraphs_within_twice_vertex_count(self):
        rng = random.Random(7)
        for k in range(3, 9):
            found = 0
            while found < 4:
                circles = [(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0),
                            rng.uniform(0.8, 2.5)) for _ in range(k)]
                try:
                    g = from_circles(circles)
                except ValueError:
                    continue  # tangent, concentric or isolated circles
                if not validate(g).is_vgraph:
                    continue
                found += 1
                cycle = find_hamilton(g, budget=2 * g.vertex_count)
                assert cycle is not None
                assert verify_cycle(g, cycle.order)


class TestVerifyCycle:
    def test_solver_output_verifies(self, venn3):
        assert verify_cycle(venn3, find_hamilton(venn3).order)

    def test_repeated_vertex_fails(self, venn3):
        assert not verify_cycle(venn3, (0, 1, 2, 3, 4, 4))

    def test_wrong_length_fails(self, venn3):
        assert not verify_cycle(venn3, (0, 1, 2, 3, 4))

    def test_non_edge_fails(self, venn3):
        order = list(find_hamilton(venn3).order)
        order[1], order[2] = order[2], order[1]
        # a transposition usually breaks adjacency somewhere; accept either
        # verdict but require consistency with explicit adjacency
        adj = venn3.adjacency_sets
        expected = all(
            order[(i + 1) % 6] in adj[order[i]] for i in range(6)
        )
        assert verify_cycle(venn3, order) == expected

    def test_weave_outer_ring(self, weaves):
        w = weaves[3]
        assert verify_cycle(w, list(range(6)))

    def test_vertex_outside_the_map_fails(self, venn3):
        # V in place of a vertex keeps the order's length and distinctness
        order = list(find_hamilton(venn3).order)
        for x in (venn3.vertex_count, -1):
            assert verify_cycle(venn3, [x] + order[1:]) is False

    @pytest.mark.parametrize("g, order", [
        (RotationMap((1, 1), (1, 0)), [0, 1]),  # one edge, walked there and back
        (PlaneGraph(1, [1, 0, 3, 2]), [0]),  # a loop
        (from_circles(LENS_CIRCLES), [0, 1]),  # two pairs of parallel edges
    ], ids=["edge", "loop", "lens"])
    def test_fewer_than_three_vertices_fail(self, g, order):
        # a cycle needs three vertices, and find_hamilton finds none here
        assert find_hamilton(g) is None
        assert verify_cycle(g, order) is False


class TestBruteForceAgreement:
    def test_small_corpus(self, venn3, weaves, flower, lens):
        small = [venn3, weaves[2], weaves[3], weaves[4], flower, dual(venn3)]
        for g in small:
            cycle = find_hamilton(g)
            assert (cycle is not None) == hamilton_exists_brute(g)
            if cycle is not None:
                assert verify_cycle(g, cycle.order)

    def test_random_rotation_maps(self):
        rng = random.Random(11)
        outcomes = set()
        checked = 0
        while checked < 150:
            g = random_plane_graph(rng)
            if not 3 <= g.vertex_count <= 11:
                continue
            checked += 1
            cycle = find_hamilton(g)
            assert (cycle is not None) == hamilton_exists_brute(g)
            if cycle is not None:
                assert verify_cycle(g, cycle.order)
            outcomes.add(cycle is not None)
        assert outcomes == {True, False}

    def test_lens_too_small_for_cycle_api(self, lens):
        assert lens.vertex_count == 2
        assert find_hamilton(lens) is None


class TestRouteAgreement:
    """Face merging and a Tarjan pass per node prune the same nodes."""

    def test_face_route_matches_tarjan_route(self, monkeypatch):
        thinned = thinned_circle_families(120, seed=6)
        corpus = [*(gen_venn(k) for k in range(3, 9)),
                  *(gen_weave(k) for k in range(2, 7)),
                  *(dual(gen_venn(k)) for k in range(3, 6)), *thinned]
        plane_faces = hamilton._plane_faces
        face_routes = []

        def recording(g, darts):
            faces = plane_faces(g, darts)
            face_routes.append(faces is not None)
            return faces

        searched = []
        for g in corpus:
            monkeypatch.setattr(hamilton, "_plane_faces", recording)
            order, spent = outcome_and_expansions(g)
            monkeypatch.setattr(hamilton, "_plane_faces", lambda g, darts: None)
            cycle = find_hamilton(g, budget=spent)
            assert (None if cycle is None else cycle.order) == order
            # every cycle starts at 0 and heads to its lower neighbour
            assert order is None or order[0] == 0 and order[1] < order[-1]
            if spent > 1:
                with pytest.raises(BudgetExceededError) as exc:
                    find_hamilton(g, budget=spent - 1)
                assert exc.value.expanded == spent - 1
                searched.append(order is not None)
        # every map here is plane; disconnected ones stop at the root
        assert face_routes and all(face_routes)
        assert set(searched) == {True, False}
        assert any(not g.is_connected for g in thinned)
