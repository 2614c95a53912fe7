from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from venngraph.arrio import parse_arr, write_arr
from venngraph.cli import main
from venngraph.dual import winkler_extend
from venngraph.generators import (
    MAX_VENN_CURVES,
    _circle_pair_points,
    from_circles,
    gen_venn,
    gen_venn3,
    gen_weave,
)
from venngraph.validate import check_ufi, digon_faces, validate, venn_check

from conftest import random_circle_families


class TestVenn3:
    def test_counts(self):
        g = gen_venn3()
        assert (g.vertex_count, g.edge_count, len(g.faces)) == (6, 12, 8)

    def test_is_vgraph_with_coordinates(self):
        g = gen_venn3()
        assert validate(g).is_vgraph
        assert g.coords is not None and len(g.coords) == 6

    def test_deterministic(self):
        assert gen_venn3()._twin == gen_venn3()._twin


class TestVennChain:
    def test_venn4_counts(self):
        g = gen_venn(4)
        assert g.vertex_count == 14
        assert len(g.faces) == 16
        assert validate(g).is_vgraph
        assert venn_check(g).is_simple_venn

    def test_venn3_alias(self):
        assert gen_venn(3)._twin == gen_venn3()._twin

    def test_needs_three_curves(self):
        with pytest.raises(ValueError):
            gen_venn(2)

    def test_curve_count_is_capped(self):
        with pytest.raises(ValueError, match="at most 12 curves"):
            gen_venn(MAX_VENN_CURVES + 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_chain_needs_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the dual Hamilton search was called")

        monkeypatch.setattr("venngraph.dual.find_hamilton", no_search)
        for n in range(7, 11):
            g = gen_venn(n)
            after = winkler_extend(parse_arr(write_arr(g)))
            for m, h in ((n, g), (n + 1, after)):
                report = venn_check(h)
                assert report.is_simple_venn and report.curve_count == m
                assert h.vertex_count == 2**m - 2

    def test_cli_generates_ten_curves(self, capsys):
        assert main(["gen", "venn", "10"]) == 0
        report = venn_check(parse_arr(capsys.readouterr().out))
        assert report.is_simple_venn
        assert (report.curve_count, report.face_count) == (10, 1024)


class TestWeave:
    def test_weave2_counts(self):
        w = gen_weave(2)
        assert (w.vertex_count, w.edge_count, len(w.faces)) == (4, 8, 6)

    def test_structure(self):
        for k in range(2, 7):
            w = gen_weave(k)
            report = validate(w)
            assert len(w.curves) == 2
            assert all(len(darts) == 2 * k for darts in w.curves)
            assert len(digon_faces(w)) == 2 * k
            assert report.is_general_position
            assert report.is_connected
            assert check_ufi(w)  # unique face incidence fails by design

    def test_needs_two_crossings_per_half(self):
        with pytest.raises(ValueError):
            gen_weave(1)

    def test_deterministic(self):
        assert gen_weave(4)._twin == gen_weave(4)._twin


class TestFromCircles:
    def test_tangent_circles_rejected(self):
        with pytest.raises(ValueError):
            from_circles([(0.0, 0.0, 1.0), (2.0, 0.0, 1.0)])

    def test_concentric_rejected(self):
        with pytest.raises(ValueError):
            from_circles([(0.0, 0.0, 1.0), (0.0, 0.0, 0.5)])

    def test_isolated_circle_rejected(self):
        with pytest.raises(ValueError):
            from_circles([(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (9.0, 9.0, 1.0)])

    def test_two_circles_make_the_lens(self, lens):
        assert lens.vertex_count == 2
        assert lens.edge_count == 4
        assert len(lens.faces) == 4
        assert len(lens.curves) == 2

    def test_four_circles_in_a_row(self):
        circles = [(float(i) * 1.2, 0.0, 1.0) for i in range(4)]
        g = from_circles(circles)
        report = validate(g)
        assert report.is_general_position
        assert report.is_connected
        assert g.euler_characteristic == 2

    def test_euler_and_curve_count_on_random_families(self):
        # connected plane maps, whose curves recovered from the twin
        # table are the circles, each edge on one of them
        for k, g in random_circle_families(random.Random(8), 60):
            assert g.is_connected
            assert g.vertex_count - g.edge_count + len(g.faces) == 2
            assert len(g.curves) == k
            assert sum(map(len, g.curves)) == g.edge_count

    @pytest.mark.parametrize("eps, ok", [(0.25e-6, False), (1e-6, True)])
    def test_crossings_closer_than_1e_6_are_coincident(self, eps, ok):
        # the third circle passes eps outside the crossing at the top of
        # the first two, so its crossings there are 2 eps from it and apart
        circles = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0),
                   (0.5, -math.sqrt(3.0) / 2.0, math.sqrt(3.0) + eps)]
        points = [p for a, b in combinations(circles, 2) for p in _circle_pair_points(a, b)]
        gap = min(math.dist(p, q) for p, q in combinations(points, 2))
        assert gap == pytest.approx(2 * eps, rel=1e-3)
        if ok:
            assert from_circles(circles).vertex_count == 6
        else:
            with pytest.raises(ValueError, match="coincident crossings"):
                from_circles(circles)

    def test_triple_point_rejected(self):
        # all three circles pass through the origin
        with pytest.raises(ValueError):
            from_circles(
                [
                    (1.0, 0.0, 1.0),
                    (0.0, 1.0, 1.0),
                    (-1.0, 1.0, math.sqrt(2.0)),
                ]
            )
