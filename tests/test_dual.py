from __future__ import annotations

import hashlib
import random
from itertools import chain

import pytest

from venngraph import dual as dual_module
from venngraph.arrio import write_arr
from venngraph.dual import NotVennError, _crossed_edges, dual, prism_order, winkler_extend
from venngraph.generators import gen_venn
from venngraph.hamilton import verify_cycle
from venngraph.maps import PlaneGraph
from venngraph.validate import validate, venn_check


def lowest_shared_edges(g, order) -> list[int]:
    """Per step of the face cycle ``order``, the lowest primal edge whose
    two sides are that step's two faces, by a scan of every edge."""
    face_of, nf = g.face_of, len(order)
    return [
        min(e for e in g.edges()
            if {face_of[e], face_of[g.twin(e)]} == {order[i], order[(i + 1) % nf]})
        for i in range(nf)
    ]


def crossed_edges(g, out) -> list[int]:
    """The primal edge of g that each new vertex of ``out`` subdivides,
    in the order of the steps that added them."""
    return [out.twin(4 * v + 2) for v in range(g.vertex_count, out.vertex_count)]


class TestDual:
    def test_package_attribute_is_the_module(self):
        import venngraph

        assert venngraph.dual is dual_module
        assert venngraph.dual.dual is dual

    def test_venn3_counts(self, venn3):
        d = dual(venn3)
        assert d.vertex_count == 8   # one per region
        assert d.edge_count == 12    # one per primal edge
        assert len(d.faces) == venn3.vertex_count

    def test_degrees_match_face_boundaries(self, venn4):
        d = dual(venn4)
        for f, boundary in enumerate(venn4.faces):
            assert d.degree(f) == len(boundary)

    def test_dual_faces_are_quadrilaterals(self, venn3, venn4, weaves):
        for g in (venn3, venn4, weaves[3]):
            assert all(len(boundary) == 4 for boundary in dual(g).faces)

    def test_crossing_map_is_a_bijection(self, venn4):
        d = dual(venn4)
        # dual dart i crosses the i-th dart of the face boundaries
        crossed = list(chain.from_iterable(venn4.faces))
        assert sorted(crossed) == list(range(venn4.dart_count))
        via = [venn4.edge_of(crossed[dd]) for dd in d.edges()]
        assert len(via) == d.edge_count
        assert sorted(via) == sorted(venn4.edges())
        # dart-level correspondence respects twins and faces
        for dd in range(d.dart_count):
            assert crossed[d.twin(dd)] == venn4.twin(crossed[dd])
            assert d.dart_vertex(dd) == venn4.face_of[crossed[dd]]

    def test_dual_is_planar_and_connected(self, venn4, weaves):
        for g in (venn4, weaves[2]):
            d = dual(g)
            assert d.is_connected
            assert d.euler_characteristic == 2


class TestWinklerExtend:
    def test_one_step_from_three_circles(self, venn3):
        g4 = winkler_extend(venn3)
        assert g4.vertex_count == 14
        assert len(g4.faces) == 16
        assert len(g4.curves) == 4
        report = venn_check(g4)
        assert report.is_simple_venn

    def test_chain_revalidates_every_step(self, venn_family):
        for n, g in venn_family["graphs"].items():
            assert validate(g).is_vgraph
            report = venn_check(g)
            assert report.is_simple_venn
            assert report.curve_count == n

    def test_count_evolution(self, venn_family):
        graphs = venn_family["graphs"]
        for n in (3, 4, 5):
            before, after = graphs[n], graphs[n + 1]
            assert after.vertex_count == before.vertex_count + 2**n
            assert len(after.faces) == 2 ** (n + 1)
            assert after.is_connected

    @pytest.mark.parametrize("n", range(3, 9))
    def test_crossings_are_the_lowest_shared_edges(self, n):
        g = gen_venn(n)
        c = next(c for c in reversed(range(len(g.curves)))
                 if len(g.curves[c]) == 2 ** (n - 1))
        assert crossed_edges(g, winkler_extend(g)) == lowest_shared_edges(
            g, prism_order(g, c))

    def test_chain_builds_no_dual(self, monkeypatch):
        def no_dual(g):
            raise AssertionError("the dual was built")

        monkeypatch.setattr("venngraph.dual.dual", no_dual)
        report = venn_check(gen_venn(10))
        assert report.is_simple_venn and report.curve_count == 10

    def test_new_curve_crosses_every_region_once(self, venn3):
        g4 = winkler_extend(venn3)
        new_vertices = set(range(venn3.vertex_count, g4.vertex_count))
        new_curves = [
            darts for darts in g4.curves if {d >> 2 for d in darts} == new_vertices
        ]
        assert len(new_curves) == 1
        assert len(new_curves[0]) == len(venn3.faces)  # 2^n crossings

    def test_new_crossings_are_transverse_pairs(self, venn3):
        g4 = winkler_extend(venn3)
        new_curve = next(
            c for c, darts in enumerate(g4.curves)
            if {d >> 2 for d in darts} == set(range(6, g4.vertex_count))
        )
        for d in g4.curves[new_curve]:
            v = d >> 2
            a, b = g4.curve_of[4 * v], g4.curve_of[4 * v + 1]
            assert new_curve in (a, b)
            assert a != b

    def test_inputs_must_be_diagrams(self, weaves, flower):
        with pytest.raises(NotVennError):
            winkler_extend(weaves[3])
        with pytest.raises(NotVennError):
            winkler_extend(flower)

    def test_deterministic(self, venn3):
        assert winkler_extend(venn3)._twin == winkler_extend(venn3)._twin

    @pytest.mark.parametrize("n, digest", [
        (6, "8839562354e69b469e366abdad820951480209606390f7d55bb6fc0524240fe0"),
        (8, "9d99ffaeb9f6a70e4b937477745d4b7f3b92d11dfe3d3717e482625eae382c4c"),
        (10, "2644d81d215f8e9c4cf197b35d5bee89ffa7894769ce4f6ad95dd2b8d103f27e"),
    ])
    def test_chain_output_is_pinned(self, n, digest):
        # the extension chain's diagrams, byte for byte as written
        assert hashlib.sha256(write_arr(gen_venn(n)).encode()).hexdigest() == digest


class TestRemovableCurve:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_prism_order_is_a_cycle_iff_curve_is_removable(self, n):
        g = gen_venn(n)
        d = dual(g)
        verdicts = {
            c: (verify_cycle(d, prism_order(g, c)), len(darts) == 2 ** (n - 1))
            for c, darts in enumerate(g.curves)
        }
        assert all(ok == removable for ok, removable in verdicts.values())
        # the newest curve is removable, so the constructive route applies
        assert verdicts[len(g.curves) - 1] == (True, True)
        if n >= 5:
            assert any(not removable for _, removable in verdicts.values())

    @pytest.mark.parametrize("breakage", ["no removable curve", "order fails"])
    def test_fallback_searches_once_and_warns(self, monkeypatch, venn4, breakage):
        if breakage == "no removable curve":
            # no curve has the 2^(n-1) edges of a removable one
            monkeypatch.setattr(PlaneGraph, "curves",
                                property(lambda g: ((),) * len(g.curve_first)))
        else:
            monkeypatch.setattr(
                dual_module, "prism_order", lambda g, c: list(range(len(g.faces) - 1))
            )
        calls = []
        real = dual_module.find_hamilton

        def counting(d, **kwargs):
            calls.append(d.vertex_count)
            cycles.append(real(d, **kwargs))
            return cycles[-1]

        cycles = []
        monkeypatch.setattr(dual_module, "find_hamilton", counting)
        with pytest.warns(RuntimeWarning, match="4-curve diagram"):
            g5 = winkler_extend(venn4)
        assert calls == [16]
        # the searched order, too, crosses the lowest shared edges
        assert crossed_edges(venn4, g5) == lowest_shared_edges(venn4, cycles[0].order)
        report = venn_check(g5)
        assert report.is_simple_venn and report.curve_count == 5


def mutated_orders(order: list[int], rng: random.Random) -> list[list[int]]:
    """The order itself and, drawn with ``rng``, one order per way of
    breaking or keeping a cycle: two entries swapped, a rotation, the
    reversal, one entry dropped, one entry written over another, one
    out of range."""
    n = len(order)
    i, j = rng.sample(range(n), 2)
    swapped = list(order)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    k = rng.randrange(1, n)
    out_of_range = list(order)
    out_of_range[i] = rng.choice((-1, n))
    return [list(order), swapped, order[k:] + order[:k], order[::-1],
            order[:i] + order[i + 1:], order[:j] + [order[i]] + order[j + 1:],
            out_of_range]


class TestCrossedEdges:
    def test_agrees_with_verify_cycle_on_the_dual(self):
        rng = random.Random(20261020)
        counts = [0, 0]
        for n in range(3, 8):
            g = gen_venn(n)
            d = dual(g)
            for c in range(n):
                for _ in range(9):
                    for order in mutated_orders(prism_order(g, c), rng):
                        chosen = _crossed_edges(g, order)
                        assert (chosen is not None) == verify_cycle(d, order), (n, c, order)
                        counts[chosen is not None] += 1
                        if chosen is not None:
                            assert chosen == lowest_shared_edges(g, order)
        # both verdicts are exercised, over every curve's prism order
        assert sum(counts) == 7 * 9 * 25 and min(counts) > 100
