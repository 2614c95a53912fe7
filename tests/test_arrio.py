from __future__ import annotations

import random
import re

import pytest

from venngraph import connectivity
from venngraph.arrio import (
    ArrSemanticError,
    ArrSyntaxError,
    PathNames,
    format_cut_certificate,
    format_path_certificate,
    parse_arr,
    write_arr,
)
from venngraph.connectivity import (
    CutCertificate,
    NotAVertexError,
    PathCertificate,
    Segment,
    certify_distance_two,
)
from venngraph.generators import gen_venn
from venngraph.maps import MapError, PlaneGraph
from venngraph.validate import validate

from conftest import (
    VENN3_CIRCLES,
    crossing_points,
    random_circle_families,
    random_circle_lists,
    with_coord_lines,
)


def random_plane_graph(rng: random.Random) -> PlaneGraph:
    """Random fixed-point-free involution on the darts of a few vertices.

    Usually disconnected or high-genus; fine, the format does not care.
    """
    n = rng.randint(2, 20)
    darts = list(range(4 * n))
    rng.shuffle(darts)
    twin = [0] * (4 * n)
    for i in range(0, len(darts), 2):
        a, b = darts[i], darts[i + 1]
        twin[a], twin[b] = b, a
    outer = rng.randrange(4 * n) if rng.random() < 0.3 else None
    return PlaneGraph(n, twin, outer_dart=outer)


class TestRoundTrip:
    def test_venn3_identity(self, venn3):
        g = parse_arr(write_arr(venn3))
        assert g._twin == venn3._twin
        assert g.outer_dart == venn3.outer_dart is not None

    def test_write_is_canonical(self, venn3):
        text = write_arr(venn3)
        assert write_arr(parse_arr(text)) == text

    def test_line_structure(self, venn3):
        lines = write_arr(venn3).splitlines()
        assert lines[0] == "arrangement 6"
        assert sum(1 for l in lines if l.startswith("v ")) == 6
        assert lines[7] == "outer 2.0"
        assert len(lines) == 8

    def test_coord_lines_are_checked_then_dropped(self, venn3):
        # files written by older versions carry the crossings' coordinates
        text = write_arr(venn3)
        old = with_coord_lines(text, crossing_points(VENN3_CIRCLES))
        assert old.count("\ncoord ") == 6
        g = parse_arr(old)
        assert g._twin == venn3._twin and g.outer_dart == venn3.outer_dart
        assert write_arr(g) == text

    def test_weave_parallel_edges_survive(self, weaves):
        w = weaves[2]
        g = parse_arr(write_arr(w))
        assert g._twin == w._twin

    def test_outer_directive_round_trips(self, weaves):
        w = weaves[3]
        g = PlaneGraph(w.vertex_count, w._twin, outer_dart=5)
        back = parse_arr(write_arr(g))
        assert back.outer_dart == 5

    def test_comments_and_blanks_ignored(self, venn3):
        text = write_arr(venn3)
        noisy = "# header comment\n\n" + text.replace(
            "v 0", "v 0", 1
        ).replace("\nv 3", "  # trailing\n\nv 3")
        assert parse_arr(noisy)._twin == venn3._twin
        tabbed = "\n".join("\t" + "\t \t".join(line.split()) + "\t#\tnote"
                           for line in text.splitlines()) + "\n\t\n"
        back = parse_arr(tabbed)
        assert back._twin == venn3._twin and back.outer_dart == venn3.outer_dart


class TestErrors:
    def test_out_of_range_vertex(self):
        with pytest.raises(ArrSemanticError) as err:
            parse_arr("arrangement 6\nv 3 0.1 0.2 7.0 2.3\n")
        assert err.value.line == 2

    def test_bad_slot(self):
        with pytest.raises(ArrSemanticError):
            parse_arr("arrangement 2\nv 0 1.0 1.1 1.2 1.7\n")

    def test_truncated_file_reports_last_line(self, venn3):
        lines = write_arr(venn3).splitlines()[:4]
        with pytest.raises(ArrSyntaxError) as err:
            parse_arr("\n".join(lines) + "\n")
        assert err.value.line == len(lines)

    def test_huge_header_without_rotation_lines(self):
        # nothing of the header's size may be allocated before the
        # rotation lines exist; a 4 * V table here would need 3.2e16 bytes
        with pytest.raises(ArrSyntaxError) as err:
            parse_arr("arrangement 1000000000000000\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("arrangement \u00b2\n", 1),
        ("arrangement 1\nv \u00b2 0.1 0.0 0.3 0.2\n", 2),
        ("arrangement 1\nv 0 0.1 0.0 0.3 0.2\ncoord \u00b2 1 2\n", 3),
    ])
    def test_unicode_digit_ids_are_syntax_errors(self, text, line):
        # '\u00b2' passes str.isdigit but not int(); it must fail as syntax
        with pytest.raises(ArrSyntaxError) as err:
            parse_arr(text)
        assert err.value.line == line

    def test_twin_mismatch(self):
        text = (
            "arrangement 2\n"
            "v 0 1.0 1.1 1.2 1.3\n"
            "v 1 0.0 0.1 0.3 0.2\n"  # slots 2 and 3 disagree with vertex 0
        )
        with pytest.raises(ArrSemanticError):
            parse_arr(text)

    def test_missing_header(self):
        with pytest.raises(ArrSyntaxError):
            parse_arr("v 0 0.1 0.0 0.3 0.2\n")

    def test_unknown_directive(self):
        with pytest.raises(ArrSyntaxError):
            parse_arr("arrangement 1\nvertex 0 0.1 0.0 0.3 0.2\n")

    def test_duplicate_vertex_line(self):
        text = (
            "arrangement 1\n"
            "v 0 0.1 0.0 0.3 0.2\n"
            "v 0 0.1 0.0 0.3 0.2\n"
        )
        with pytest.raises(ArrSemanticError):
            parse_arr(text)

    def test_self_twin_names_its_line(self):
        with pytest.raises(ArrSemanticError, match="dart 0.0 names itself") as err:
            parse_arr("arrangement 1\nv 0 0.0 0.2 0.1 0.3\n")
        assert err.value.line == 2

    def test_bad_coordinate(self):
        base = "arrangement 1\nv 0 0.1 0.0 0.3 0.2\n"
        with pytest.raises(ArrSyntaxError):
            parse_arr(base + "coord 0 1.0 east\n")
        with pytest.raises(ArrSemanticError):
            parse_arr(base + "coord 0 1 2\ncoord 0 3 4\n")
        for x, y in [("nan", "0"), ("0", "inf"), ("-Infinity", "1"), ("NaN", "-nan")]:
            with pytest.raises(ArrSyntaxError) as err:
                parse_arr(base + f"coord 0 {x} {y}\n")
            assert err.value.line == 3
            assert str(err.value) == "line 3: coordinates must be finite numbers"

    V1 = "arrangement 1\nv 0 0.1 0.0 0.3 0.2\n"

    @pytest.mark.parametrize("text, error, line, message", [
        ("arrangment 1\nv 0 0.1 0.0 0.3 0.2\n", ArrSyntaxError, 1,
         "expected header 'arrangement <V>'"),
        ("v 0 0.1 0.0 0.3 0.2\n", ArrSyntaxError, 1, "expected header 'arrangement <V>'"),
        ("arrangement 0\n", ArrSemanticError, 1, "vertex count must be positive"),
        ("", ArrSyntaxError, 1, "missing 'arrangement' header"),
        ("# nothing but a comment\n\n", ArrSyntaxError, 2, "missing 'arrangement' header"),
        ("arrangement 1\nv 0 0.1 0.0 0.3\n", ArrSyntaxError, 2,
         "expected 'v <id> <t0> <t1> <t2> <t3>'"),
        ("arrangement 1\nv x 0.1 0.0 0.3 0.2\n", ArrSyntaxError, 2,
         "expected 'v <id> <t0> <t1> <t2> <t3>'"),
        ("arrangement 1\nv 0 0.1 0-0 0.3 0.2\n", ArrSyntaxError, 2,
         "expected vertex.slot, got '0-0'"),
        ("arrangement 1\nv 0 0.1 .0 0.3 0.2\n", ArrSyntaxError, 2,
         "expected vertex.slot, got '.0'"),
        ("arrangement 1\nv 1 0.1 0.0 0.3 0.2\n", ArrSemanticError, 2, "vertex 1 out of range"),
        ("arrangement 2\nv 0 0.1 0.0 2.3 0.2\n", ArrSemanticError, 2,
         "vertex 2 out of range 0..1"),
        ("arrangement 1\nv 0 0.1 0.0 0.4 0.2\n", ArrSemanticError, 2, "slot 4 out of range 0..3"),
        (V1 + "v 0 0.1 0.0 0.3 0.2\n", ArrSemanticError, 3, "vertex 0 defined twice"),
        ("arrangement 1\nv 0 0.0 0.2 0.1 0.3\n", ArrSemanticError, 2, "dart 0.0 names itself"),
        ("arrangement 2\nv 0 1.0 1.1 1.2 1.3\nv 1 0.0 0.1 0.3 0.2\n", ArrSemanticError, 2,
         "twin mismatch: dart 0.2 names 1.2, which names 0.3"),
        ("arrangement 2\nv 0 1.0 1.1 1.2 1.3\n\n", ArrSyntaxError, 3,
         "truncated: no rotation line for vertex 1"),
        ("arrangement 2\nv 0 1.0 1.1 1.2 1.3\nv 1 0.0 0.1 0.2 0.3\ncoord 0 1 2\n",
         ArrSemanticError, 4, "no coordinates for vertex 1; give all or none"),
        (V1 + "coord 0 1.0 east\n", ArrSyntaxError, 3, "coordinates must be numbers"),
        (V1 + "coord 0 1.0\n", ArrSyntaxError, 3, "expected 'coord <id> <x> <y>'"),
        (V1 + "coord 1 1.0 2.0\n", ArrSemanticError, 3, "vertex 1 out of range"),
        (V1 + "coord 0 1 2\ncoord 0 3 4\n", ArrSemanticError, 4, "vertex 0 has two coordinates"),
        (V1 + "outer\n", ArrSyntaxError, 3, "expected 'outer <vertex>.<slot>'"),
        (V1 + "outer 0.1 0.2\n", ArrSyntaxError, 3, "expected 'outer <vertex>.<slot>'"),
        (V1 + "outer 0:1\n", ArrSyntaxError, 3, "expected vertex.slot, got '0:1'"),
        (V1 + "outer 0.7\n", ArrSemanticError, 3, "slot 7 out of range 0..3"),
        (V1 + "outer 0.1\nouter 0.0\n", ArrSemanticError, 4, "outer hint given twice"),
        (V1 + "vertex 0 0.1 0.0 0.3 0.2\n", ArrSyntaxError, 3, "unknown directive 'vertex'"),
    ], ids=[
        "bad-header", "v-before-header", "zero-vertices", "empty", "comment-only",
        "v-arity", "v-id", "dart-token", "dart-without-vertex", "v-id-range",
        "dart-vertex-range", "dart-slot-range", "v-twice", "self-twin", "twin-mismatch",
        "truncated", "partial-coordinates", "coordinate-not-a-number", "coord-arity",
        "coord-id-range", "coord-twice", "outer-alone", "outer-arity", "outer-token",
        "outer-slot-range", "outer-twice", "unknown-directive",
    ])
    def test_each_error_pins_class_line_and_message(self, text, error, line, message):
        with pytest.raises((ArrSyntaxError, ArrSemanticError)) as err:
            parse_arr(text)
        assert type(err.value) is error
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_partial_coordinates_report_last_line(self, venn3):
        text = with_coord_lines(write_arr(venn3), crossing_points(VENN3_CIRCLES))
        lines = [l for l in text.splitlines() if not l.startswith("coord 0 ")]
        with pytest.raises(ArrSemanticError, match="vertex 0") as err:
            parse_arr("\n".join(lines) + "\n")
        assert err.value.line == len(lines)


class TestRandomizedRoundTrips:
    def test_fifty_random_maps(self):
        rng = random.Random(20240817)
        for _ in range(50):
            g = random_plane_graph(rng)
            back = parse_arr(write_arr(g))
            assert back._twin == g._twin
            assert back.outer_dart == g.outer_dart


def corrupted(text: str, rng: random.Random) -> str:
    """``text`` with one line dropped, one twin reference broken, or one
    id replaced by a Unicode digit (superscript two, which ``int``
    rejects, or Arabic-Indic three, which it reads as 3)."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.randrange(3)
    if kind == 0:
        del lines[i]
    elif kind == 1 and tokens[0] == "v":
        tokens[rng.randint(2, 5)] = f"{rng.randrange(len(lines))}.{rng.randrange(4)}"
        lines[i] = " ".join(tokens)
    else:
        tokens[1] = rng.choice(("\u00b2", "\u0663"))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestGeneratedInputs:
    """Seeded loops over circle families, random rotation maps and
    corrupted texts of both."""

    def test_parse_then_validate_is_total(self):
        rng = random.Random(5)
        texts = [with_coord_lines(write_arr(g), crossing_points(circles))
                 for circles, g in random_circle_lists(rng, 40)]
        texts += [write_arr(random_plane_graph(rng)) for _ in range(300)]
        outcomes = {}
        for text in texts + [corrupted(t, rng) for t in texts for _ in range(3)]:
            try:
                report = validate(parse_arr(text))
            except (ArrSyntaxError, ArrSemanticError, MapError) as exc:
                outcome = type(exc).__name__
            else:
                outcome = "v-graph" if report.is_vgraph else "report"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert {"v-graph", "report", "ArrSyntaxError", "ArrSemanticError"} <= set(outcomes)

    def test_write_parse_write_is_the_identity(self):
        rng = random.Random(6)
        graphs = [g for _, g in random_circle_families(rng, 40)]
        graphs += [random_plane_graph(rng) for _ in range(300)]
        for g in graphs:
            text = write_arr(g)
            assert write_arr(parse_arr(text)) == text


class TestCertificateBlocks:
    def test_path_lines(self):
        cert = PathCertificate(0, 5, (((0, 2, 5),), ((0, 3, 1, 5),)))
        names = PathNames(gen_venn(3))
        assert format_path_certificate(cert, names) == "path: 0 2 5\npath: 0 3 1 5\n"

    def test_compact_certificates_print_without_keeping_expansions(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("a compact path was expanded")

        for n in range(3, 9):
            g = gen_venn(n)
            names = PathNames(g)
            with monkeypatch.context() as patch:
                patch.setattr(connectivity, "_expand", no_expansion)
                printed = [(cert, format_path_certificate(cert, names))
                           for _, _, _, cert in certify_distance_two(g, 4).certificates]
            for cert, text in printed:
                # a slotted record has no instance dict to keep an expansion in
                assert not hasattr(cert, "__dict__")
                assert text == "".join(
                    "path: " + " ".join(map(str, path)) + "\n" for path in cert.paths
                )

    def test_sliced_names_match_the_vertex_join(self):
        def plain(cert):
            return "".join("path: " + " ".join(map(str, path)) + "\n"
                           for path in cert.iter_paths())

        wraps = reversed_ = shared = 0
        for n in range(3, 9):
            g = gen_venn(n)
            names = PathNames(g)
            for _, _, _, cert in certify_distance_two(g, 4).certificates:
                assert format_path_certificate(cert, names) == plain(cert)
                for path in cert.pieces:
                    segments = [p for p in path if isinstance(p, Segment)]
                    wraps += sum((p.start > p.end) == (p.step == 1) for p in segments)
                    reversed_ += sum(p.step == -1 for p in segments)
                    shared += len(segments) == 2
        assert wraps > 100 and reversed_ > 100 and shared > 100

    def test_sliced_names_follow_the_junction_rule(self):
        # a piece repeats the vertex before it only when it does not
        # start there; one-vertex and foreign-index segments print as
        # their expansions do
        g = gen_venn(4)
        index = g.curve_index
        cycle = index.curve_vertices[0]
        last = len(cycle) - 1
        paths = [
            (Segment(0, 0, last, 1), Segment(0, last, last, -1), (cycle[last], cycle[0])),
            ((cycle[2], cycle[1]), Segment(0, 1, 3, -1), Segment(0, 3, 3, 1)),
            (Segment(0, 2, 2, 1), Segment(0, 2, 1, 1), (cycle[0],)),
            ((cycle[3],), Segment(0, 0, 1, 1), Segment(0, 1, last, -1)),
            (Segment(1, 1, 0, -1), ()),
        ]
        names = PathNames(g)
        # the same diagram with its vertices numbered the other way round
        n = g.vertex_count
        flip = [4 * (n - 1 - (t >> 2)) + (t & 3) for t in map(g.twin, range(g.dart_count))]
        other = PlaneGraph(n, [flip[4 * (n - 1 - (d >> 2)) + (d & 3)]
                               for d in range(g.dart_count)]).curve_index
        assert other.curve_vertices != index.curve_vertices
        for pieces in paths:
            for cert in (PathCertificate(0, 1, pieces=(pieces,), index=index),
                         PathCertificate(0, 1, pieces=(pieces,), index=other)):
                want = "path: " + " ".join(map(str, cert.paths[0])) + "\n"
                assert format_path_certificate(cert, names) == want

    def test_vertices_outside_the_graph_are_not_named(self):
        # -1 would otherwise print as vertex V - 1's name
        g = gen_venn(3)
        names = PathNames(g)
        for x in (-1, g.vertex_count):
            cert = PathCertificate(0, 5, (((0, x, 5),),))
            with pytest.raises(NotAVertexError):
                format_path_certificate(cert, names)

    def test_segments_outside_the_index_are_not_named(self):
        # each would otherwise print a slice of some curve, or nothing;
        # a step other than 1 would read as -1
        g = gen_venn(4)
        index = g.curve_index
        curves = len(index.curve_vertices)
        names = PathNames(g)
        for segment in (Segment(0, -3, 2, 1), Segment(0, 1, 99, 1),
                        Segment(-1, 0, 1, 1), Segment(curves, 0, 1, 1),
                        Segment(1, 0, 0, 2)):
            cert = PathCertificate(0, 1, pieces=((segment,),), index=index)
            with pytest.raises(ValueError, match=re.escape(repr(segment))):
                format_path_certificate(cert, names)

    def test_cut_line_sorted(self):
        cert = CutCertificate(frozenset({4, 1, 2}), (frozenset({0}), frozenset({5})))
        assert format_cut_certificate(cert) == "cut: 1 2 4\n"
