from __future__ import annotations

import importlib
import random
import time
from collections import Counter, deque

import pytest

from venngraph.arrio import parse_arr, write_arr
from venngraph.generators import gen_venn
from venngraph.maps import (
    DisconnectedError,
    NotPlaneError,
    PlaneGraph,
    RotationMap,
    SelfCrossingCurveError,
)
from venngraph.validate import (
    GeneralPositionReport,
    UfiViolation,
    ValidationReport,
    VennReport,
    check_general_position,
    check_ufi,
    two_faces,
    validate,
    venn_check,
)

from conftest import circle_chain, figure_eight, random_circle_families
from test_arrio import random_plane_graph


def orbit_walk_revisits(g: PlaneGraph) -> tuple[int, ...]:
    """Reference: the vertices some curve orbit visits twice, found by
    walking every orbit with a set of the vertices seen.  Both
    orientations of a curve visit the same vertices."""
    out: set[int] = set()
    for orbit in g.curve_orbit_data[0]:
        seen: set[int] = set()
        for d in orbit:
            if d >> 2 in seen:
                out.add(d >> 2)
            seen.add(d >> 2)
    return tuple(sorted(out))


def orbit_ids(succ, n: int) -> list[int]:
    """Reference: the orbit of each of 0..n-1 under ``succ``, one step at
    a time, orbits numbered in order of their smallest elements."""
    ids = [-1] * n
    count = 0
    for d0 in range(n):
        if ids[d0] < 0:
            d = d0
            while ids[d] < 0:
                ids[d] = count
                d = succ(d)
            count += 1
    return ids


def random_pairing(rng: random.Random, n: int, nested: bool) -> PlaneGraph:
    """A map on n vertices whose 4n darts are paired at random.

    A nested pairing lays the darts out in a row, vertex by vertex and
    each vertex's darts in reverse, and pairs them by a random
    non-crossing matching; the arcs drawn above the row then draw the
    map in the plane, so nested pairings are plane, and they reach the
    larger n where uniform ones almost never are.
    """
    darts = [4 * (i >> 2) + 3 - (i & 3) for i in range(4 * n)]
    twin = [0] * (4 * n)
    if nested:
        open_: list[int] = []
        for i, d in enumerate(darts):
            if open_ and (len(open_) == 4 * n - i or rng.random() < 0.5):
                e = open_.pop()
                twin[d], twin[e] = e, d
            else:
                open_.append(d)
    else:
        rng.shuffle(darts)
        for a, b in zip(darts[::2], darts[1::2]):
            twin[a], twin[b] = b, a
    return PlaneGraph(n, twin)


def reference_tables(g: PlaneGraph):
    """Face ids, curve ids and components by their definitions, from the
    public dart primitives alone: faces are orbits of rot(twin(d)), a
    curve is the orbits of d and d ^ 2 under curve_next, numbered by its
    smallest dart, and components come from a search over
    ``adjacency_sets``."""
    n = g.dart_count
    face_of = orbit_ids(lambda d: g.rot(g.twin(d)), n)
    orbit = orbit_ids(g.curve_next, n)
    key = [min(orbit[d], orbit[d ^ 2]) for d in range(n)]
    rank = {k: i for i, k in enumerate(sorted(set(key)))}
    curve_of = [rank[k] for k in key]
    seen: set[int] = set()
    components = []
    for start in range(g.vertex_count):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        while queue:
            for y in g.adjacency_sets[queue.popleft()]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        components.append(tuple(sorted(comp)))
    return face_of, curve_of, tuple(components)


def reference_curves(g: PlaneGraph):
    """Curve first darts, curves and orientation orbits by their
    definitions, from ``curve_next`` alone: every orbit walked from its
    smallest dart, orbits in order of those darts, and a curve is the
    orbits of d and d ^ 2, kept from the smaller of their first darts."""
    n = g.dart_count
    orbit_of = orbit_ids(g.curve_next, n)
    orbits = []
    for d0 in range(n):
        if orbit_of[d0] == len(orbits):
            orbit, d = [d0], g.curve_next(d0)
            while d != d0:
                orbit.append(d)
                d = g.curve_next(d)
            orbits.append(tuple(orbit))
    first = sorted({min(orbits[orbit_of[d]][0], orbits[orbit_of[d ^ 2]][0]) for d in range(n)})
    curves = [orbits[orbit_of[d]] for d in first]
    return first, curves, (tuple(orbits), tuple(orbit_of))


def reference_reports(g: PlaneGraph):
    """The ``check_ufi``, ``validate`` and ``venn_check`` results by their
    definitions; the last is the exception venn_check must raise, if any."""
    face_of, curve_of, components = reference_tables(g)
    faces = max(face_of) + 1
    curves = max(curve_of) + 1
    per_face = Counter(zip(face_of, curve_of))
    ufi = tuple(UfiViolation(f, c, k) for (f, c), k in sorted(per_face.items()) if k > 1)
    revisits = orbit_walk_revisits(g)
    planar = g.vertex_count - g.edge_count + faces == 2 * len(components)
    connected = len(components) == 1
    gp = GeneralPositionReport(not revisits and planar, revisits, planar)
    report = ValidationReport(gp.ok, connected, curves, ufi,
                              gp.ok and connected and curves >= 3 and not ufi, gp)
    # breadth-first from face 0, each face's darts in boundary order from
    # its smallest one, as the venn_check docstring defines the labels; a
    # disagreement proves the map not plane, whatever its connectivity
    boundary = {f: [] for f in range(faces)}
    for d in range(g.dart_count):
        if not boundary[face_of[d]]:
            e = d
            while True:
                boundary[face_of[d]].append(e)
                e = g.rot(g.twin(e))
                if e == d:
                    break
    labels = {0: 0}
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for d in boundary[f]:
            other, lab = face_of[g.twin(d)], labels[f] ^ (1 << curve_of[d])
            if other not in labels:
                labels[other] = lab
                queue.append(other)
            elif labels[other] != lab:
                return ufi, report, NotPlaneError(
                    f"faces {f} and {other} disagree across curve {curve_of[d]}")
    if not connected:
        return ufi, report, DisconnectedError
    counts = Counter(labels.values())
    offset = min(lab for lab, c in counts.items() if c == max(counts.values()))
    norm = tuple(labels[f] ^ offset for f in range(faces))
    present = set(norm)
    venn = VennReport(
        curves, faces, norm, len(present),
        tuple(x for x in range(1 << curves) if x not in present)
        if 1 << curves <= faces else None,
        tuple(sorted(x for x, c in Counter(norm).items() if c > 1)),
        faces == 1 << curves and len(present) == faces and not revisits,
    )
    return ufi, report, venn


@pytest.fixture(scope="module")
def corpus(weaves, flower):
    """Seeded graphs: random plane graphs (mostly disconnected or of
    higher genus), circle families, the figure eight, the flower, the
    weaves and gen_venn(3..8)."""
    rng = random.Random(20261018)
    graphs = [figure_eight(), flower, *weaves.values()]
    graphs += [random_plane_graph(rng) for _ in range(2000)]
    graphs += [g for _, g in random_circle_families(rng, 30)]
    return graphs + [gen_venn(n) for n in range(3, 9)]


class TestGeneralPosition:
    def test_venn3_passes(self, venn3):
        report = check_general_position(venn3)
        assert report.ok
        assert report.is_planar
        assert not report.self_crossings

    def test_figure_eight_fails_as_self_crossing(self):
        report = check_general_position(figure_eight())
        assert not report.ok
        assert report.self_crossings == (0,)

    def test_weave_is_general_position(self, weaves):
        # the weave is a legal configuration; it fails UFI, not position
        assert check_general_position(weaves[4]).ok

    def test_torus_crossing_fails_planarity(self):
        # two loops through one vertex crossing once: only embeds on a torus
        g = PlaneGraph(1, [2, 3, 0, 1])
        report = check_general_position(g)
        assert not report.is_planar
        assert not report.ok

    def test_curve_ids_agree_with_the_orbit_walk(self, corpus):
        # the lemma in the validate docstring, against the orbit walk
        revisiting = 0
        for g in corpus:
            report = check_general_position(g)
            walked = orbit_walk_revisits(g)
            assert report.self_crossings == walked
            if walked:
                revisiting += 1
                with pytest.raises(SelfCrossingCurveError, match=f"vertex {walked[0]};"):
                    g.curve_index
            else:
                assert len(g.curve_index.curve_vertices) == max(g.curve_of) + 1
            # the orbits are defined either way
            assert len(g.curves) == max(g.curve_of) + 1
        assert revisiting > 100 and len(corpus) - revisiting > 30

    def test_tables_and_reports_agree_with_their_definitions(self, corpus):
        outcomes = Counter()
        for g in corpus:
            face_of, curve_of, components = reference_tables(g)
            assert list(g.face_of) == face_of
            assert list(g.curve_of) == curve_of
            assert g.components == components
            curve_first, curves, orbit_data = reference_curves(g)
            assert list(g.curve_first) == curve_first
            assert list(g.curves) == curves
            assert g.curve_orbit_data == orbit_data
            ufi, report, venn = reference_reports(g)
            assert check_ufi(g) == ufi
            assert validate(g) == report
            if isinstance(venn, VennReport):
                assert venn_check(g) == venn
                outcomes["simple" if venn.is_simple_venn else "report"] += 1
            else:
                expected = venn if isinstance(venn, type) else type(venn)
                with pytest.raises(expected) as err:
                    venn_check(g)
                if not isinstance(venn, type):
                    assert str(err.value) == str(venn)
                outcomes[expected.__name__] += 1
        assert min(outcomes.values()) >= 6 and len(outcomes) == 4


class TestUfi:
    def test_venn3_clean(self, venn3):
        assert check_ufi(venn3) == ()

    def test_weave_violates(self, weaves):
        violations = check_ufi(weaves[3])
        assert violations
        # each big ring face alternates the two curves, k edges apiece
        ring_faces = {f for f, boundary in enumerate(weaves[3].faces) if len(boundary) == 6}
        assert {v.face for v in violations} == ring_faces
        assert all(v.count == 3 for v in violations)

    def test_extended_diagram_clean(self, venn5):
        assert check_ufi(venn5) == ()


class TestTwoFaces:
    def test_venn3_has_none(self, venn3):
        assert two_faces(venn3) == ()

    def test_weave_digons_are_two_faces(self, weaves):
        for k, w in weaves.items():
            reported = set(two_faces(w))
            digons = {f for f, edges in Counter(w.face_of).items() if edges == 2}
            assert len(digons) == 2 * k
            assert digons <= reported
            assert reported  # nonempty either way

    def test_lens_all_faces_touch_both_curves(self, lens):
        assert lens.vertex_count == 2
        assert len(lens.faces) == 4
        # every face of a connected two-curve arrangement meets both curves
        assert set(two_faces(lens)) == {0, 1, 2, 3}
        assert set(Counter(lens.face_of).values()) == {2}


class TestVGraph:
    def test_venn3_is_vgraph(self, venn3):
        report = validate(venn3)
        assert report.is_vgraph
        assert report.curve_count == 3

    def test_weave_is_not(self, weaves):
        report = validate(weaves[5])
        assert not report.is_vgraph
        assert report.curve_count == 2
        assert report.ufi_violations

    def test_scrambled_rotation_rejected(self, venn4):
        # swap two slots at vertex 0 and patch reciprocity: still a valid
        # map, but no longer the same embedding
        twin = list(venn4._twin)
        twin[0], twin[1] = twin[1], twin[0]
        twin[twin[0]] = 0
        twin[twin[1]] = 1
        try:
            g = PlaneGraph(venn4.vertex_count, twin)
        except Exception:
            return  # a build error is an acceptable outcome
        assert not validate(g).is_vgraph

    def test_verdict_labels_no_regions(self, monkeypatch):
        def refuse(g, root_face=0):
            raise AssertionError("validate labelled the regions")

        # the package's ``validate`` function shadows the submodule's name
        module = importlib.import_module("venngraph.validate")
        monkeypatch.setattr(module, "venn_check", refuse)
        for n in range(5, 9):
            report = validate(gen_venn(n))
            assert report.is_vgraph and report.curve_count == n


    def test_checks_build_no_face_or_curve_objects(self, monkeypatch):
        g = parse_arr(write_arr(gen_venn(8)))

        def refuse(self):
            raise AssertionError("a face or curve orbit was walked")

        monkeypatch.setattr(RotationMap, "faces", property(refuse))
        monkeypatch.setattr(PlaneGraph, "curves", property(refuse))
        assert validate(g).is_vgraph
        assert venn_check(g).is_simple_venn


class TestVennCheck:
    def test_venn3_all_labels(self, venn3):
        report = venn_check(venn3)
        assert report.is_simple_venn
        assert report.curve_count == 3
        assert sorted(report.labels) == list(range(8))
        assert report.missing_labels == ()
        assert report.duplicated_labels == ()

    def test_weave_repeats_labels(self, weaves):
        report = venn_check(weaves[3])
        assert not report.is_simple_venn
        assert report.curve_count == 2
        # 2k+2 faces but only 4 possible labels: repeats are forced
        assert report.face_count == 8
        assert report.duplicated_labels
        # the lenses alternate between two labels, k of each
        digons = {f for f, edges in Counter(weaves[3].face_of).items() if edges == 2}
        lens_labels = [report.labels[f] for f in sorted(digons)]
        assert len(set(lens_labels)) == 2
        assert lens_labels[0::2] != lens_labels[1::2]

    def test_flower_missing_triple_region(self, flower):
        report = venn_check(flower)
        assert not report.is_simple_venn
        assert report.missing_labels == (0b111,)
        assert report.duplicated_labels == (0b000,)
        assert report.distinct_labels < 1 << report.curve_count

    def test_disconnected_rejected(self, weaves):
        w = weaves[2]
        twin = list(w._twin) + [t + 16 for t in w._twin]
        g = PlaneGraph(8, twin)
        with pytest.raises(DisconnectedError):
            venn_check(g)

    def test_independent_family_holds_for_diagram(self, venn4):
        # every label occurs at least once
        report = venn_check(venn4)
        assert report.distinct_labels == 1 << report.curve_count

    def test_missing_labels_listed_only_up_to_the_region_count(self):
        # a chain of 5 circles has 10 regions, all labelled differently,
        # and 2^5 > 10, so the 22 absent labels are not listed
        report = venn_check(circle_chain(5))
        assert report.face_count == report.distinct_labels == 10
        assert report.missing_labels is None
        assert not report.is_simple_venn
        assert report.distinct_labels < 1 << report.curve_count

    def test_thirty_circle_chain_is_linear(self):
        g = circle_chain(30)
        start = time.perf_counter()
        report = venn_check(g)
        verdict = validate(g)
        assert time.perf_counter() - start < 0.5
        assert report.curve_count == 30
        assert report.face_count == report.distinct_labels == 60
        assert report.missing_labels is None
        # the outer face meets each inner circle twice
        assert verdict.is_connected and verdict.is_general_position
        assert verdict.ufi_violations and not verdict.is_vgraph

    def test_torus_labeling_is_inconsistent(self):
        g = PlaneGraph(1, [2, 3, 0, 1])
        with pytest.raises(NotPlaneError):
            venn_check(g)

    def test_labels_disagree_only_on_maps_that_are_not_plane(self):
        # the module docstring's lemma, on random maps of 1..9 vertices
        rng = random.Random(30)
        plane = not_plane = 0
        sizes = Counter()
        while plane < 500:
            n = rng.randint(1, 9)
            g = random_pairing(rng, n, nested=rng.random() < 0.5)
            try:
                venn_check(g)
            except NotPlaneError:
                assert not g.is_planar
                not_plane += 1
            except DisconnectedError:
                assert not g.is_connected
            if g.is_connected and g.is_planar:
                plane += 1
                sizes[n] += 1
        assert not_plane >= 100 and len(sizes) == 9


class TestCrossImplications:
    def test_vgraph_has_no_two_faces(self, venn_family, weaves, flower, lens):
        corpus = [*venn_family["graphs"].values(), *weaves.values(), flower, lens]
        for g in corpus:
            if validate(g).is_vgraph:
                assert two_faces(g) == ()

    def test_venn_implies_ufi(self, venn_family, weaves, flower, lens):
        corpus = [*venn_family["graphs"].values(), *weaves.values(), flower, lens]
        for g in corpus:
            report = validate(g)
            if not (report.is_general_position and report.is_connected):
                continue
            if venn_check(g).is_simple_venn:
                assert report.ufi_violations == ()

    def test_diagram_count_formulas(self, venn_family):
        for n, g in venn_family["graphs"].items():
            report = venn_check(g)
            assert report.is_simple_venn
            assert report.face_count == 2**n
            assert g.vertex_count == 2**n - 2
            assert g.edge_count == 2 ** (n + 1) - 4
