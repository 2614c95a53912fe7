"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
every criterion carries its runtime bound and is asserted at the stated
tolerance.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from venngraph.arrio import parse_arr, write_arr
from venngraph.connectivity import (
    PathCertificate,
    max_disjoint_paths,
    proof_paths,
    verify_certificate,
    vertex_connectivity,
)
from venngraph.dual import dual
from venngraph.hamilton import find_hamilton, verify_cycle
from venngraph.validate import check_ufi, two_faces, validate, venn_check

from test_arrio import random_plane_graph
from test_connectivity import connected_without, min_separator_size
from test_hamilton import hamilton_exists_brute


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_venn_validation(venn_family):
    worst = 0.0
    for n in range(3, 7):
        g = venn_family["graphs"][n]
        start = time.monotonic()
        report = venn_check(g)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert report.is_simple_venn, f"{n}-curve diagram failed the label census"
        assert report.distinct_labels == 2**n
        assert g.vertex_count == 2**n - 2
        assert elapsed < 1.0, f"venn-check on n={n} took {elapsed:.2f}s"
    _report(1, True, f"labels 2^n, V = 2^n - 2 for n = 3..6 (worst {worst:.3f}s)")


def test_criterion_2_connectivity_is_four(venn_family):
    worst = 0.0
    for n in range(3, 7):
        g = venn_family["graphs"][n]
        start = time.monotonic()
        kappa, _ = vertex_connectivity(g)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert kappa == 4, f"n={n}: connectivity {kappa}"
        assert elapsed < 10.0, f"connectivity on n={n} took {elapsed:.2f}s"
    _report(2, True, f"vertex connectivity exactly 4 for n = 3..6 (worst {worst:.3f}s)")


def test_criterion_3_distance2_certificates(venn_family):
    start = time.monotonic()
    total = fallbacks = 0
    for n in range(3, 6):
        g = venn_family["graphs"][n]
        for u, z, v in g.distance2_pairs():
            result = proof_paths(g, u, z, v)
            paths = result.certificate.paths
            assert len(paths) == 4
            assert verify_certificate(g, PathCertificate(u, v, tuple((p,) for p in paths)))
            flow, _, _ = max_disjoint_paths(g, u, v)
            assert flow == 4, f"flow oracle disagrees at ({u},{z},{v}) in n={n}"
            total += 1
            fallbacks += result.used_fallback
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"certification took {elapsed:.1f}s"
    _report(
        3,
        True,
        f"{total} distance-2 triples certified, fallback rate "
        f"{fallbacks}/{total}, flow agrees ({elapsed:.2f}s)",
    )


def test_criterion_4_hamiltonicity(venn_family):
    worst = 0.0
    for n in range(3, 7):
        g = venn_family["graphs"][n]
        start = time.monotonic()
        cycle = find_hamilton(g)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert cycle is not None, f"search exhausted on the {n}-curve graph"
        assert verify_cycle(g, cycle.order)
        assert len(cycle.order) == g.vertex_count
        assert elapsed < 60.0, f"n={n} search took {elapsed:.1f}s"
    _report(4, True, f"verified Hamilton cycles for n = 3..6 (worst {worst:.3f}s)")


def test_criterion_5_extension_chain(venn_family):
    elapsed = venn_family["build_seconds"]
    for n in range(3, 7):
        g = venn_family["graphs"][n]
        report = venn_check(g)
        assert report.is_simple_venn and report.curve_count == n
    assert elapsed < 120.0, f"extension chain took {elapsed:.1f}s"
    _report(
        5,
        True,
        f"extension chain 3->4->5->6 validated at every step ({elapsed:.2f}s)",
    )


def test_criterion_6_weave_counterexample(weaves):
    worst = 0.0
    for k, w in weaves.items():
        start = time.monotonic()
        kappa, cut = vertex_connectivity(w)
        faces2 = two_faces(w)
        violations = check_ufi(w)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert kappa == 2, f"weave({k}) connectivity {kappa}"
        assert cut is not None and not connected_without(w, cut.cut)
        assert faces2, f"weave({k}) reported no two-curve faces"
        assert violations, f"weave({k}) reported no incidence violations"
        assert elapsed < 1.0
    _report(6, True, f"weave k=2..6: connectivity 2, 2-faces, UFI fails (worst {worst:.3f}s)")


def test_criterion_7_cut_robustness(venn_family):
    checked = 0
    for n in (3, 4):
        g = venn_family["graphs"][n]
        vertices = range(g.vertex_count)
        for size in range(0, 4):
            for removed in combinations(vertices, size):
                assert connected_without(g, set(removed)), (
                    f"n={n}: removing {removed} disconnects"
                )
                checked += 1
    _report(7, True, f"all {checked} deletions of up to 3 vertices leave both graphs connected")


def test_criterion_8_structural_invariants(venn_family, weaves, flower, lens):
    corpus = [*venn_family["graphs"].values(), *weaves.values(), flower, lens]
    for g in corpus:
        assert g.is_connected
        assert g.euler_characteristic == 2
        assert g.edge_count == 2 * g.vertex_count
        assert len(g.faces) == g.vertex_count + 2
        assert sorted(d for boundary in g.faces for d in boundary) == list(
            range(g.dart_count)
        )
        orbits, _ = g.curve_orbit_data
        assert sorted(d for o in orbits for d in o) == list(range(g.dart_count))
        if validate(g).is_vgraph:
            assert two_faces(g) == ()
    rng = random.Random(1789)
    for _ in range(200):
        g = random_plane_graph(rng)
        back = parse_arr(write_arr(g))
        assert back._twin == g._twin
        assert back.outer_dart == g.outer_dart
        assert sorted(d for boundary in back.faces for d in boundary) == list(
            range(back.dart_count)
        )
    _report(8, True, f"Euler, size and orbit identities on {len(corpus)} graphs "
                     "+ 200 randomized round trips")


def test_criterion_9_small_instance_oracles(venn3, weaves, flower, lens):
    small = [venn3, *weaves.values(), flower, lens, dual(venn3)]
    small = [g for g in small if g.vertex_count <= 12]
    cycles = separations = 0
    for g in small:
        if g.vertex_count >= 3:
            cycle = find_hamilton(g)
            assert (cycle is not None) == hamilton_exists_brute(g)
            cycles += 1
        adj = g.adjacency_sets
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                if v in adj[u]:
                    continue
                k, _, cut = max_disjoint_paths(g, u, v)
                assert k == min_separator_size(g, u, v)
                assert len(cut.cut) == k
                separations += 1
    _report(
        9,
        True,
        f"{cycles} Hamilton verdicts and {separations} separator sizes match "
        "brute-force enumeration",
    )
