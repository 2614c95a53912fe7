from __future__ import annotations

import math
import time
from itertools import combinations

import pytest

from venngraph import connectivity
from venngraph.connectivity import CutCertificate
from venngraph.generators import _circle_pair_points, from_circles, gen_venn3, gen_weave
from venngraph.dual import winkler_extend
from venngraph.maps import PlaneGraph, RotationMap


@pytest.fixture(scope="session")
def venn_family():
    """Graphs for 3..6 curves built by successive extension, with the time
    the whole chain took."""
    start = time.monotonic()
    graphs = {3: gen_venn3()}
    for n in (4, 5, 6):
        graphs[n] = winkler_extend(graphs[n - 1])
    return {"graphs": graphs, "build_seconds": time.monotonic() - start}


@pytest.fixture(scope="session")
def venn3(venn_family):
    return venn_family["graphs"][3]


@pytest.fixture(scope="session")
def venn4(venn_family):
    return venn_family["graphs"][4]


@pytest.fixture(scope="session")
def venn5(venn_family):
    return venn_family["graphs"][5]


@pytest.fixture(scope="session")
def venn6(venn_family):
    return venn_family["graphs"][6]


@pytest.fixture(scope="session")
def weaves():
    return {k: gen_weave(k) for k in range(2, 7)}


# gen_venn3's circles
VENN3_CIRCLES = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, math.sqrt(3.0) / 2.0, 1.0)]
# three circles overlapping pairwise with no common region
FLOWER_CIRCLES = [(0.0, 0.0, 0.55), (1.0, 0.0, 0.55), (0.5, math.sqrt(3.0) / 2.0, 0.55)]
# two circles crossing twice: the smallest valid arrangement
LENS_CIRCLES = [(-0.4, 0.0, 1.0), (0.4, 0.0, 1.0)]


@pytest.fixture(scope="session")
def flower():
    """Three circles overlapping pairwise with no common region."""
    return from_circles(FLOWER_CIRCLES)


@pytest.fixture(scope="session")
def lens():
    """Two circles crossing twice: the smallest valid arrangement."""
    return from_circles(LENS_CIRCLES)


def reference_verify(g: RotationMap, cert) -> bool:
    """The reference that ``verify_certificate`` is tested against: expand
    every path to its vertex tuple and check it naively.  u and v are
    vertices of g; every path is simple and runs from u to v along edges
    of g; no two paths share an inner vertex."""
    n = g.vertex_count
    if not (0 <= cert.u < n and 0 <= cert.v < n):
        return False
    adj = g.adjacency_sets
    interior_seen: set[int] = set()
    for path in cert.iter_paths():
        if len(path) < 2 or path[0] != cert.u or path[-1] != cert.v:
            return False
        if len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if b not in adj[a]:
                return False
        inner = set(path[1:-1])
        if inner & interior_seen:
            return False
        interior_seen |= inner
    return True


def reference_connectivity(g: RotationMap):
    """The reference that ``vertex_connectivity`` is tested against: the
    capped-flow loop it ran on every map that is not a V-graph before
    both its bounds were certified.  One flow network serves every
    distance-2 pair, each pair's flow stops at the best count so far,
    starting from the minimum simple degree, and the first pair that
    sets the answer gives the cut."""
    n = g.vertex_count
    comps = g.components
    if len(comps) > 1:
        rest = frozenset(x for c in comps[1:] for x in c)
        return 0, CutCertificate(frozenset(), (frozenset(comps[0]), rest))
    adj = g.adjacency_sets
    s = min(range(n), key=lambda v: (len(adj[v] - {v}), v))
    best = len(adj[s] - {s})
    pairs = connectivity._unique_pairs(g)
    if not pairs:
        return n - 1, None
    # s's neighbours separate it from any distance-2 partner
    witness = next(p for p in pairs if s in p)
    net = connectivity._FlowNet(g)
    for u, v in pairs:
        k = net.max_flow(u, v, best)
        if k < best:
            best, witness = k, (u, v)
    k = net.max_flow(*witness)
    assert k == best
    return best, connectivity._extract_cut(net, g, *witness, k)


def figure_eight() -> PlaneGraph:
    """One curve crossing itself at a single vertex."""
    return PlaneGraph(1, [1, 0, 3, 2])


def circle_chain(n: int) -> PlaneGraph:
    """n unit circles in a row, each crossing its neighbours twice:
    2n - 2 crossings and 2n regions, far fewer than 2^n."""
    return from_circles([(1.5 * i, 0, 1) for i in range(n)])


def random_circle_lists(rng, count: int) -> list[tuple[list[tuple[float, float, float]], PlaneGraph]]:
    """``count`` families of 2..6 random circles that ``from_circles``
    accepts, each with its map."""
    out = []
    while len(out) < count:
        k = rng.randint(2, 6)
        circles = [(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.5, 2.0))
                   for _ in range(k)]
        try:
            out.append((circles, from_circles(circles)))
        except ValueError:
            continue  # tangent, concentric or isolated circles
    return out


def random_circle_families(rng, count: int) -> list[tuple[int, PlaneGraph]]:
    """The maps of :func:`random_circle_lists`, each with its number of
    circles."""
    return [(len(circles), g) for circles, g in random_circle_lists(rng, count)]


def crossing_points(circles) -> list[tuple[float, float]]:
    """The crossings of a circle family, recomputed from the circles in
    ``from_circles``' vertex order: pairs i < j, each pair's two points
    sorted."""
    return [p for a, b in combinations(circles, 2) for p in sorted(_circle_pair_points(a, b))]


def with_coord_lines(text: str, points) -> str:
    """ARR text with a ``coord`` line per point appended, as older
    versions wrote them."""
    return text + "".join(f"coord {v} {x!r} {y!r}\n" for v, (x, y) in enumerate(points))


def rotation_map_from_edges(n: int, edges) -> RotationMap:
    """A simple graph as a rotation system, neighbours in listing order."""
    others: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        others[a].append(b)
        others[b].append(a)
    offsets = [0]
    for v in range(n):
        offsets.append(offsets[-1] + len(others[v]))
    twin = [0] * offsets[-1]
    for v in range(n):
        for s, w in enumerate(others[v]):
            twin[offsets[v] + s] = offsets[w] + others[w].index(v)
    return RotationMap([len(o) for o in others], twin)


def complete_rotation_map(n: int) -> RotationMap:
    """K_n as a rotation system (any cyclic neighbour order)."""
    return rotation_map_from_edges(n, combinations(range(n), 2))


def three_cliques() -> RotationMap:
    """K4 x K2 on 0..7 (4-connected), with a K4 on 8..11 hung from 6 and 7.

    Connectivity 2, minimum degree 3, and every distance-2 pair of vertex
    0 or 1 has four disjoint paths, so the minimum sits late in the
    sorted pairs.
    """
    edges = [*combinations(range(4), 2), *combinations(range(4, 8), 2),
             *((i, i + 4) for i in range(4)), *combinations(range(8, 12), 2),
             (6, 8), (7, 9)]
    return rotation_map_from_edges(12, edges)


def theta_rotation_map() -> RotationMap:
    """K_{2,3}: two degree-3 hubs joined through three degree-2 vertices.

    Bipartite with odd parts, hence not Hamiltonian.
    """
    # vertices: 0, 1 hubs; 2, 3, 4 middles
    degrees = [3, 3, 2, 2, 2]
    twin = [0] * 12
    # hub darts: 0,1,2 at vertex 0; 3,4,5 at vertex 1; middles 6+2i toward 0
    for i, mid in enumerate((6, 8, 10)):
        twin[i] = mid
        twin[mid] = i
        twin[3 + i] = mid + 1
        twin[mid + 1] = 3 + i
    return RotationMap(degrees, twin)
