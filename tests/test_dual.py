from __future__ import annotations

import importlib

import pytest

from venngraph.dual import NotVennError, dual, prism_order, winkler_extend
from venngraph.generators import gen_venn
from venngraph.hamilton import verify_cycle
from venngraph.maps import Curve
from venngraph.validate import validate, venn_check

# the package re-exports the function ``dual``, which shadows the module
dual_module = importlib.import_module("venngraph.dual")


class TestDual:
    def test_venn3_counts(self, venn3):
        d = dual(venn3)
        assert d.vertex_count == 8   # one per region
        assert d.edge_count == 12    # one per primal edge
        assert len(d.faces) == venn3.vertex_count

    def test_degrees_match_face_boundaries(self, venn4):
        d = dual(venn4)
        for f in venn4.faces:
            assert d.degree(f.id) == f.degree

    def test_dual_faces_are_quadrilaterals(self, venn3, venn4, weaves):
        for g in (venn3, venn4, weaves[3]):
            assert all(f.degree == 4 for f in dual(g).faces)

    def test_crossing_map_is_a_bijection(self, venn4):
        d = dual(venn4)
        crossing = d.crossing_edges()
        assert len(crossing) == d.edge_count
        assert sorted(crossing.values()) == sorted(venn4.edges())
        # dart-level correspondence respects twins
        for dd in range(d.dart_count):
            assert d.dual_dart(d.primal_dart(dd)) == dd
            assert d.primal_dart(d.twin(dd)) == venn4.twin(d.primal_dart(dd))

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
            report = validate(g)
            assert report.is_vgraph
            assert report.venn.is_simple_venn
            assert report.venn.curve_count == n

    def test_count_evolution(self, venn_family):
        graphs = venn_family["graphs"]
        for n in (3, 4, 5):
            before, after = graphs[n], graphs[n + 1]
            assert after.vertex_count == before.vertex_count + 2**n
            assert len(after.faces) == 2 ** (n + 1)
            assert after.is_connected

    def test_new_curve_crosses_every_region_once(self, venn3):
        g4 = winkler_extend(venn3)
        new_vertices = set(range(venn3.vertex_count, g4.vertex_count))
        new_curves = [
            c for c in g4.curves if set(c.vertices) == new_vertices
        ]
        assert len(new_curves) == 1
        assert new_curves[0].edge_count == len(venn3.faces)  # 2^n crossings

    def test_new_crossings_are_transverse_pairs(self, venn3):
        g4 = winkler_extend(venn3)
        new_curve = next(
            c for c in g4.curves
            if set(c.vertices) == set(range(6, g4.vertex_count))
        )
        for v in new_curve.vertices:
            a, b = g4.vertex_curves(v)
            assert new_curve.id in (a, b)
            assert a != b

    def test_inputs_must_be_diagrams(self, weaves, flower):
        with pytest.raises(NotVennError):
            winkler_extend(weaves[3])
        with pytest.raises(NotVennError):
            winkler_extend(flower)

    def test_deterministic(self, venn3):
        assert winkler_extend(venn3)._twin == winkler_extend(venn3)._twin


class TestRemovableCurve:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_prism_order_is_a_cycle_iff_curve_is_removable(self, n):
        g = gen_venn(n)
        d = dual(g)
        verdicts = {
            c.id: (verify_cycle(d, prism_order(g, c)), c.edge_count == 2 ** (n - 1))
            for c in g.curves
        }
        assert all(ok == removable for ok, removable in verdicts.values())
        # the newest curve is removable, so the constructive route applies
        assert verdicts[len(g.curves) - 1] == (True, True)
        if n >= 5:
            assert any(not removable for _, removable in verdicts.values())

    @pytest.mark.parametrize("breakage", ["no removable curve", "order fails"])
    def test_fallback_searches_once_and_warns(self, monkeypatch, venn4, breakage):
        if breakage == "no removable curve":
            monkeypatch.setattr(Curve, "edge_count", property(lambda c: 0))
        else:
            monkeypatch.setattr(
                dual_module, "prism_order", lambda g, c: list(range(len(g.faces) - 1))
            )
        calls = []
        real = dual_module.find_hamilton

        def counting(d, **kwargs):
            calls.append(d.vertex_count)
            return real(d, **kwargs)

        monkeypatch.setattr(dual_module, "find_hamilton", counting)
        with pytest.warns(RuntimeWarning, match="4-curve diagram"):
            g5 = winkler_extend(venn4)
        assert calls == [16]
        report = venn_check(g5)
        assert report.is_simple_venn and report.curve_count == 5
