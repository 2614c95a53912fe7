from __future__ import annotations

import hashlib
import importlib
import math
import re
import time
from pathlib import Path

import pytest

from venngraph import cli
from venngraph.arrio import parse_arr, write_arr
from venngraph.cli import main
from venngraph.dual import DualNotHamiltonianError
from venngraph.generators import from_circles, gen_venn, gen_weave
from venngraph.hamilton import verify_cycle
from venngraph.maps import PlaneGraph

from conftest import (
    VENN3_CIRCLES,
    circle_chain,
    complete_rotation_map,
    crossing_points,
    figure_eight,
    with_coord_lines,
)

VENN6 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "venn6.arr"

# connected and plane, but no cycle passes through all three vertices
NO_HAMILTON_CYCLE = (
    "arrangement 3\nv 0 2.2 0.2 0.1 2.3\nv 1 1.1 1.0 2.0 2.1\nv 2 1.2 1.3 0.0 0.3\n"
)
# two vertices joined by four parallel edges in an order no plane drawing has
NOT_PLANE = "arrangement 2\nv 0 1.0 1.1 1.2 1.3\nv 1 0.0 0.1 0.2 0.3\n"


@pytest.fixture()
def venn3_file(tmp_path, venn3):
    path = tmp_path / "venn3.arr"
    path.write_text(write_arr(venn3))
    return str(path)


@pytest.fixture()
def weave3_file(tmp_path, weaves):
    path = tmp_path / "weave3.arr"
    path.write_text(write_arr(weaves[3]))
    return str(path)


class TestGen:
    def test_gen_then_validate(self, capsys, tmp_path):
        assert main(["gen", "venn3"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "g.arr"
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "v-graph: yes" in out

    def test_gen_venn_n(self, capsys):
        assert main(["gen", "venn", "4"]) == 0
        g = parse_arr(capsys.readouterr().out)
        assert g.vertex_count == 14

    def test_gen_weave(self, capsys):
        assert main(["gen", "weave", "2"]) == 0
        g = parse_arr(capsys.readouterr().out)
        assert g.vertex_count == 4

    def test_gen_missing_parameter(self, capsys):
        assert main(["gen", "venn"]) == 2
        assert capsys.readouterr().err == "error: gen venn needs a curve count\n"

    def test_gen_weave_missing_parameter(self, capsys):
        assert main(["gen", "weave"]) == 2
        assert capsys.readouterr().err == "error: gen weave needs a crossing parameter\n"

    def test_gen_bad_parameter(self, capsys):
        assert main(["gen", "weave", "1"]) == 2

    def test_gen_venn_too_many_curves(self, capsys):
        assert main(["gen", "venn", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 12 curves" in captured.err


class TestChecks:
    def test_validate_weave_fails(self, capsys, weave3_file):
        assert main(["validate", weave3_file]) == 1
        out = capsys.readouterr().out
        assert "v-graph: no" in out
        assert "violations" in out

    def test_venn_check_exit_codes(self, capsys, venn3_file, weave3_file):
        assert main(["venn-check", venn3_file]) == 0
        assert "simple-venn: yes" in capsys.readouterr().out
        assert main(["venn-check", weave3_file]) == 1

    def test_venn_check_counts_labels_it_cannot_list(self, capsys, tmp_path):
        # the flower and a fourth circle on one of its petals: 10 regions,
        # 9 labels and 2^4 = 16 possible ones, so the 7 absent are counted
        r = 0.55
        path = tmp_path / "flower4.arr"
        path.write_text(write_arr(from_circles(
            [(0.0, 0.0, r), (1.0, 0.0, r), (0.5, 3 ** 0.5 / 2, r), (1.9, 0.0, r)])))
        assert main(["venn-check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "curves: 4\nregions: 10\ndistinct-labels: 9\nmissing: 7 labels\n"
            "duplicated: 0000\nsimple-venn: no\n")

    def test_self_crossing_curve_is_no_diagram(self, capsys, tmp_path):
        # one curve crossing itself bounds three regions: both verbs answer
        # no rather than stopping at the curve
        path = tmp_path / "eight.arr"
        path.write_text(write_arr(figure_eight()))
        assert main(["venn-check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "curves: 1\nregions: 3\ndistinct-labels: 2\nduplicated: 0\nsimple-venn: no\n")
        assert main(["extend", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "not a diagram: 1 curves but 2 distinct labels over 3 regions\n"
        # too small for a cycle or a separator, but an answer all the same
        assert main(["hamilton", str(path)]) == 1
        assert capsys.readouterr().out == "exhausted: no Hamilton cycle exists\n"
        assert main(["connectivity", str(path)]) == 1
        assert capsys.readouterr().out == "connectivity: 0\n"

    @pytest.mark.parametrize("verb", ["venn-check", "extend"])
    def test_map_that_is_not_plane_is_no_diagram(self, capsys, tmp_path, verb):
        # a well-formed map whose region labels cannot close up fails the
        # property, as validate's "planar: no" does; it is no input error
        path = tmp_path / "torus.arr"
        path.write_text(NOT_PLANE)
        assert main([verb, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "not plane: faces 0 and 1 disagree across curve 1\n"

    def test_disconnected_map_fails_the_property(self, capsys, tmp_path):
        # two lenses far apart: every verb that needs a connected map says
        # no with exit 1, render included
        path = tmp_path / "apart.arr"
        path.write_text(write_arr(from_circles([(0, 0, 1), (1, 0, 1), (5, 0, 1), (6, 0, 1)])))
        codes, errors = {}, {}
        for verb in ("validate", "venn-check", "connectivity", "certify", "hamilton",
                     "extend", "render"):
            out = ["-o", str(tmp_path / "apart.svg")] if verb == "render" else []
            codes[verb] = main([verb, *out, str(path)])
            errors[verb] = capsys.readouterr().err
        assert codes == {"validate": 1, "venn-check": 1, "connectivity": 1, "certify": 1,
                         "hamilton": 1, "extend": 1, "render": 1}
        for verb in ("venn-check", "certify", "extend", "render"):
            assert errors[verb].startswith("not connected: ")

    def test_connectivity(self, capsys, venn3_file, weave3_file):
        assert main(["connectivity", venn3_file]) == 0
        assert "connectivity: 4" in capsys.readouterr().out
        assert main(["connectivity", weave3_file]) == 1
        out = capsys.readouterr().out
        assert "connectivity: 2" in out
        assert "cut:" in out

    def test_certify(self, capsys, venn3_file):
        assert main(["certify", venn3_file]) == 0
        out = capsys.readouterr().out
        assert "certified: yes" in out
        assert "fallbacks: 0" in out

    def test_certify_counterexample(self, capsys, weave3_file):
        assert main(["certify", "--k", "3", weave3_file]) == 1
        out = capsys.readouterr().out
        assert "counterexample:" in out

    def test_certify_non_positive_k_is_a_usage_error(self, capsys, venn3_file):
        for k in ("0", "-1"):
            assert main(["certify", "--k", k, venn3_file]) == 2
            captured = capsys.readouterr()
            assert "certified" not in captured.out
            assert "k must be at least 1" in captured.err

    def test_venn_check_lists_the_missing_label(self, capsys, tmp_path):
        # three pairwise-crossing circles with no point inside all three
        g = from_circles([(0, 0, 1.1), (2, 0, 1.1), (1, math.sqrt(3), 1.1)])
        path = tmp_path / "ring.arr"
        path.write_text(write_arr(g))
        assert main(["venn-check", str(path)]) == 1
        assert "missing: 111" in capsys.readouterr().out.splitlines()

    def test_certify_without_distance_two_pairs_is_vacuous(self, capsys, tmp_path):
        k5 = complete_rotation_map(5)
        path = tmp_path / "k5.arr"
        path.write_text(write_arr(PlaneGraph(5, [k5.twin(d) for d in range(k5.dart_count)])))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err.startswith("vacuous: ")

    def test_certify_verbose_prints_paths(self, capsys, venn3_file):
        assert main(["certify", "--verbose", venn3_file]) == 0
        out = capsys.readouterr().out
        assert out.count("path: ") >= 12

    @pytest.mark.parametrize("make, args, lines, paths, digest", [
        # the constructive route: segments and corner arcs, printed by name
        (lambda: gen_venn(6), ["certify", "--verbose"], 1179, 940,
         "47e5f5ca83a0f6e6bd76776559eacde3537b78ec2293a9ca3323b8c040ba80f7"),
        # a kappa = 3 circle family off the V-graph route: flow paths only
        (lambda: from_circles([(3.0, 3.2, 2.4), (3.0, 3.7, 0.8), (1.9, 3.8, 1.9),
                               (3.6, 0.5, 1.6), (1.0, 2.2, 1.8)]),
         ["certify", "--k", "3", "--verbose"], 148, 108,
         "57834aa81f8455c7327a25b9faac7d59b52e51ea27208ef3b6822c1a90d4b5f1"),
    ], ids=["venn6", "kappa3"])
    def test_certificate_text_is_pinned(self, capsys, tmp_path, make, args, lines, paths, digest):
        path = tmp_path / "map.arr"
        path.write_text(write_arr(make()))
        assert main([*args, str(path)]) == 0
        out = capsys.readouterr().out
        assert (out.count("\n"), out.count("path: ")) == (lines, paths)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_paths(self, capsys, venn3_file, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        assert main(["paths", str(u), str(z), str(v), venn3_file]) == 0
        out = capsys.readouterr().out
        assert out.count("path: ") == 4
        assert "case: 1" in out

    def test_paths_bad_triple(self, capsys, venn3_file):
        assert main(["paths", "0", "0", "0", venn3_file]) == 2

    def test_paths_on_a_map_that_is_not_a_vgraph_fails_the_property(self, capsys, weave3_file):
        assert main(["paths", "0", "1", "2", weave3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "not a v-graph: construction requires a valid V-graph\n"

    @pytest.mark.parametrize("verb", [["paths"], ["render", "--paths"]])
    @pytest.mark.parametrize(
        "triple, bad", [(("99", "1", "2"), 99), (("0", "-12", "1"), -12)]
    )
    def test_paths_vertex_outside_the_graph_is_a_usage_error(
        self, capsys, tmp_path, verb, triple, bad
    ):
        path = tmp_path / "venn4.arr"
        path.write_text(write_arr(gen_venn(4)))
        assert main([*verb, *triple, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vertex {bad} is not in 0..13\n"


class TestValidateOutput:
    """The whole ``validate`` report, line for line."""

    @pytest.mark.parametrize("name, code, expected", [
        ("venn3", 0, [
            "general-position: ok", "planar: yes", "connected: yes", "curves: 3",
            "ufi: ok", "two-faces: none", "v-graph: yes",
        ]),
        ("weave3", 1, [
            "general-position: ok", "planar: yes", "connected: yes", "curves: 2",
            "ufi: 4 violations",
            "  face 0 meets curve 0 3 times", "  face 0 meets curve 1 3 times",
            "  face 2 meets curve 0 3 times", "  face 2 meets curve 1 3 times",
            "two-faces: 0 1 2 3 4 5 6 7", "v-graph: no",
        ]),
        ("flower", 1, [
            "general-position: ok", "planar: yes", "connected: yes", "curves: 3",
            "ufi: 3 violations",
            "  face 0 meets curve 0 2 times", "  face 2 meets curve 1 2 times",
            "  face 6 meets curve 2 2 times",
            "two-faces: 3 5 7", "v-graph: no",
        ]),
        # the only input whose report names self-crossings
        ("figure-eight", 1, [
            "general-position: fail", "self-crossing-at: 0",
            "planar: yes", "connected: yes", "curves: 1",
            "ufi: 1 violations", "  face 0 meets curve 0 2 times",
            "two-faces: none", "v-graph: no",
        ]),
    ])
    def test_report(self, capsys, tmp_path, venn3, flower, name, code, expected):
        g = {"venn3": venn3, "weave3": gen_weave(3), "flower": flower,
             "figure-eight": figure_eight()}[name]
        path = tmp_path / f"{name}.arr"
        path.write_text(write_arr(g))
        assert main(["validate", str(path)]) == code
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected)

    def test_certifying_verbs_never_list_two_faces(self, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("two_faces was computed")

        # the package's ``validate`` function shadows the submodule's name
        monkeypatch.setattr(importlib.import_module("venngraph.validate"),
                            "two_faces", refuse)
        assert main(["certify", str(VENN6)]) == 0
        assert "certified: yes" in capsys.readouterr().out
        assert main(["connectivity", str(VENN6)]) == 0
        assert capsys.readouterr().out.startswith("connectivity: 4\n")


class TestThirtyCircleChain:
    """2^30 labels, 60 regions: every verb stays linear in the regions."""

    @pytest.fixture(scope="class")
    def chain_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chain") / "chain30.arr"
        path.write_text(write_arr(circle_chain(30)))
        return str(path)

    @pytest.mark.parametrize("argv, code", [
        (["validate"], 1),
        (["venn-check"], 1),
        (["extend"], 1),
        (["render", "--labels"], 0),
    ])
    def test_verb_is_fast(self, capsys, chain_file, argv, code):
        start = time.perf_counter()
        assert main(argv + [chain_file]) == code
        assert time.perf_counter() - start < 0.5
        out = capsys.readouterr().out
        if argv == ["venn-check"]:
            assert f"missing: {2**30 - 60} labels" in out.splitlines()
        if argv == ["render", "--labels"]:
            assert out.count(">" + "0" * 29 + "1<") == 1


class TestHamiltonCli:
    def test_cycle_output(self, capsys, venn3_file, venn3):
        assert main(["hamilton", venn3_file]) == 0
        out = capsys.readouterr().out
        cycle = [int(tok) for tok in out.split()[1:]]
        assert verify_cycle(venn3, cycle)

    def test_weave_still_hamiltonian(self, capsys, weave3_file):
        assert main(["hamilton", weave3_file]) == 0

    def test_budget_is_usage_error(self, capsys, venn3_file):
        assert main(["hamilton", "--budget", "1", venn3_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget: ")

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_an_input_error(self, capsys, venn3_file, budget):
        assert main(["hamilton", "--budget", budget, venn3_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: budget must be at least 1, got {budget}\n"

    def test_no_cycle_on_a_four_connected_plane_map_is_a_contradiction(
        self, capsys, monkeypatch, tmp_path
    ):
        # the theorem guarantees a cycle, so a search that finds none is
        # news, not a property of the input
        path = tmp_path / "venn4.arr"
        path.write_text(write_arr(gen_venn(4)))
        monkeypatch.setattr(cli, "find_hamilton", lambda g, budget: None)
        assert main(["hamilton", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "exhausted: no Hamilton cycle exists\n"
        assert captured.err == ("contradiction: graph is 4-connected and planar, "
                                "which guarantees a Hamilton cycle\n")

    def test_exhausted_search_is_a_property_failure(self, capsys, tmp_path):
        path = tmp_path / "three.arr"
        path.write_text(NO_HAMILTON_CYCLE)
        assert main(["hamilton", str(path)]) == 1
        assert capsys.readouterr().out == "exhausted: no Hamilton cycle exists\n"
        assert main(["render", "--hamilton", str(path)]) == 1
        assert capsys.readouterr().err == "no Hamilton cycle to overlay\n"


class TestTransforms:
    def test_extend_pipeline(self, capsys, venn3_file):
        assert main(["extend", venn3_file]) == 0
        g = parse_arr(capsys.readouterr().out)
        assert g.vertex_count == 14

    def test_extend_rejects_weave(self, capsys, weave3_file):
        assert main(["extend", weave3_file]) == 1

    @pytest.mark.parametrize("curves, code", [(5, 3), (6, 1)])
    def test_unextendable_diagram_is_news_up_to_five_curves(
        self, capsys, monkeypatch, venn3_file, curves, code
    ):
        # every diagram of at most five curves is known to extend; past
        # that a dual with no Hamilton cycle is a property failure
        def refuse(g):
            raise DualNotHamiltonianError(curves)

        monkeypatch.setattr(cli, "winkler_extend", refuse)
        assert main(["extend", venn3_file]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"unextendable: the dual of this {curves}-curve diagram "
                                "has no Hamilton cycle\n")

    def test_dual_listing(self, capsys, venn3_file):
        assert main(["dual", venn3_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dual 8 12"
        assert len([l for l in lines if l.startswith("edge ")]) == 12

    def test_render_to_file(self, capsys, tmp_path, venn3_file):
        out_path = tmp_path / "venn3.svg"
        assert main(["render", "--labels", "-o", str(out_path), venn3_file]) == 0
        svg = out_path.read_text()
        assert svg.count("<path") == 12

    def test_render_overlays(self, capsys, venn3_file, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        code = main(
            ["render", "--hamilton", "--paths", str(u), str(z), str(v), venn3_file]
        )
        assert code == 0
        svg = capsys.readouterr().out
        assert svg.count('class="hamilton"') == 6
        assert svg.count('class="cert cert-path-') == 4

    def test_render_weave_draws(self, capsys, weave3_file):
        # every edge of a weave has a parallel partner and bends at a
        # midpoint, so each lens is drawn with area and gets its label
        assert main(["render", "--labels", weave3_file]) == 0
        svg = capsys.readouterr().out
        assert svg.count("<path") == 12
        assert svg.count('class="region-label"') == 8

    def test_render_one_vertex_layout_fails(self, capsys, tmp_path):
        # a figure eight whose outer hint is one of its loop faces
        path = tmp_path / "one.arr"
        path.write_text("arrangement 1\nv 0 0.1 0.0 0.3 0.2\nouter 0.1\n")
        assert main(["render", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"layout: face \d+ is not a simple cycle of 3 or more corners\n",
                            captured.err)

    def test_render_self_crossing_curve_with_coordinates(self, capsys, tmp_path):
        # coord lines are dropped, so a figure eight gets the grid's
        # answer: its loop faces have no drawing
        path = tmp_path / "eight.arr"
        path.write_text("arrangement 1\nv 0 0.1 0.0 0.3 0.2\ncoord 0 0.0 0.0\n")
        assert main(["render", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"layout: face \d+ is not a simple cycle of 3 or more corners\n",
                            captured.err)

    @pytest.mark.parametrize("coords", ["", "coord 0 0.0 0.0\ncoord 1 1.0 0.0\n"],
                             ids=["layout", "stored-coordinates"])
    def test_render_refuses_a_map_that_is_not_plane(self, capsys, tmp_path, coords):
        # the prefix venn-check and extend give the same map
        path = tmp_path / "not-plane.arr"
        path.write_text(NOT_PLANE + coords)
        assert not parse_arr(NOT_PLANE + coords).is_planar
        assert main(["render", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not plane: ")

    def test_render_partial_coordinates_is_an_input_error(self, capsys, tmp_path, venn3):
        text = with_coord_lines(write_arr(venn3), crossing_points(VENN3_CIRCLES))
        lines = [l for l in text.splitlines() if not l.startswith("coord 0 ")]
        path = tmp_path / "partial.arr"
        path.write_text("\n".join(lines) + "\n")
        assert main(["render", str(path)]) == 2
        assert f"line {len(lines)}: no coordinates for vertex 0" in capsys.readouterr().err

    def test_options_do_not_leak_between_calls(self, capsys, venn3_file):
        assert main(["certify", "--k", "3", venn3_file]) == 0
        assert capsys.readouterr().out.startswith("k: 3\n")
        assert main(["certify", venn3_file]) == 0
        assert capsys.readouterr().out.startswith("k: 4\n")
        assert main(["render", "--labels", venn3_file]) == 0
        assert 'class="region-label"' in capsys.readouterr().out
        assert main(["render", venn3_file]) == 0
        assert "region-label" not in capsys.readouterr().out


class TestFailureTable:
    def test_docstring_lists_the_table_row_for_row(self):
        # the module docstring states the exit-code policy that main keeps
        rows = re.findall(r"^- ``([^`]+)``, (\d):", cli.__doc__, re.MULTILINE)
        assert rows == [(prefix, str(code)) for _, prefix, code in cli.FAILURES]


class TestInputHandling:
    def test_stdin(self, capsys, monkeypatch, venn3):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(write_arr(venn3)))
        assert main(["validate"]) == 0

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/file.arr"]) == 2

    def test_self_twin_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "self.arr"
        path.write_text("arrangement 1\nv 0 0.0 0.2 0.1 0.3\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "input error: line 2: dart 0.0 names itself\n"

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "bad.arr"
        path.write_text("arrangement 2\nv 0 9.9 0.0 0.3 0.2\n")
        assert main(["validate", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_closed_stdout_is_a_quiet_broken_pipe(self, capsys, monkeypatch, venn3_file):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["certify", "--verbose", venn3_file]) == 141
        assert capsys.readouterr().err == ""

    def test_huge_header_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.arr"
        path.write_text("arrangement 1000000000000000\n")
        assert main(["validate", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("arrangement \u00b2\n", 1),
        ("arrangement 1\nv \u00b2 0.1 0.0 0.3 0.2\n", 2),
        ("arrangement 1\nv 0 0.1 0.0 0.3 0.2\ncoord \u00b2 1 2\n", 3),
    ])
    def test_unicode_digit_id_is_an_input_error(self, capsys, tmp_path, text, line):
        path = tmp_path / "digit.arr"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert f"input error: line {line}:" in capsys.readouterr().err
