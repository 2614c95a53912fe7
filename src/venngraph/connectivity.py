"""Vertex connectivity with explicit certificates.

Everything here rests on the distance-2 reduction of Menger's theorem: a
connected graph that is not complete has connectivity equal to the
minimum, over its distance-2 pairs, of the number of internally disjoint
paths.  Proof: each vertex s of a minimum separator S has neighbours on
two sides of S (otherwise S - {s} would separate), and two such
neighbours are a distance-2 pair that S separates.  Connectivity is also
at most the minimum degree, which bounds every flow worth computing.

Two routes supply the disjoint paths.  A unit-capacity max-flow on the
vertex-split digraph, built once per graph and reset per pair, yields the
path count of any pair together with a matching minimum separator.  For
4-regular arrangements satisfying unique face incidence there is also a
direct construction: around any common neighbour z of a distance-2 pair,
four disjoint paths can be read off the two curves crossing at z and the
perimeter of the four faces around z.  The construction is verified after
the fact and falls back to flow-derived paths if verification ever fails,
so its output is always a sound certificate.

On V-graphs the construction alone settles connectivity, with no flow:
its bundles give every distance-2 pair four paths, so connectivity is at
least 4, and the four neighbours of any vertex separate it from the rest,
so it is at most 4.  A V-graph is simple, as a digon would put one of its
curves twice on an adjacent face, which unique face incidence forbids;
every vertex therefore has four distinct neighbours.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .maps import DisconnectedError, MapError, PlaneGraph, RotationMap
from .validate import validate


class SameVertexError(MapError):
    """Disjoint paths need two distinct endpoints."""


class NotDistanceTwoError(MapError):
    """Proof-path construction needs u, v non-adjacent with common neighbour z."""


class NotVGraphError(MapError):
    """Proof-path construction is only defined on V-graphs."""


class VacuousCertificationError(MapError):
    """No distance-2 pairs exist, so pairwise certification says nothing."""


@dataclass(frozen=True)
class PathCertificate:
    """k internally disjoint u,v-paths, each a vertex sequence."""

    u: int
    v: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class CutCertificate:
    """A separating vertex set and two sides it separates."""

    cut: frozenset[int]
    sides: tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class ProofPathsResult:
    case: int
    roles: dict[str, int]
    paths: tuple[tuple[int, ...], ...]
    used_fallback: bool


@dataclass(frozen=True)
class Counterexample:
    u: int
    v: int
    flow: int
    cut: CutCertificate | None


@dataclass(frozen=True)
class Distance2Certification:
    k: int
    pair_count: int
    certificates: tuple[tuple[int, int, int, PathCertificate], ...]
    fallback_count: int
    counterexample: Counterexample | None

    @property
    def certified(self) -> bool:
        return self.counterexample is None


def verify_certificate(g: RotationMap, cert: PathCertificate) -> bool:
    """Every path simple, in the graph, u to v; pairwise internally disjoint."""
    adj = g.adjacency_sets
    interior_seen: set[int] = set()
    for path in cert.paths:
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


def verify_cut(g: RotationMap, cert: CutCertificate) -> bool:
    """Sides nonempty, disjoint from the cut, and unreachable from each other."""
    a, b = cert.sides
    if not a or not b or a & b or (a | b) & cert.cut:
        return False
    return not (g.reachable(a, cert.cut) & b)


# ---------------------------------------------------------------------------
# max-flow Menger oracle
# ---------------------------------------------------------------------------

class _FlowNet:
    """Unit-capacity vertex-split digraph, built once and reused per pair.

    Node 2w is w-in, node 2w+1 is w-out; every vertex contributes the arc
    in -> out of capacity one, every edge two crossing arcs out -> in.  Arc
    2i is a forward arc, arc 2i+1 its residual partner, so pushed flow on a
    forward arc equals the partner's capacity.
    """

    def __init__(self, g: RotationMap):
        n = 2 * g.vertex_count
        self.target: list[int] = []
        self.capacity: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

        def add(x: int, y: int) -> None:
            self.adj[x].append(len(self.target))
            self.target.append(y)
            self.capacity.append(1)
            self.adj[y].append(len(self.target))
            self.target.append(x)
            self.capacity.append(0)

        for w in range(g.vertex_count):
            add(2 * w, 2 * w + 1)
        for d in g.edges():
            a, b = g.edge_endpoints(d)
            if a == b:
                continue
            add(2 * a + 1, 2 * b)
            add(2 * b + 1, 2 * a)
        for x in range(n):
            self.adj[x].sort(key=lambda i: (self.target[i], i))
        self.initial = tuple(self.capacity)

    def max_flow(self, u: int, v: int, cap: float = math.inf) -> int:
        """Reset all capacities, then push up to ``cap`` units from u to v.

        A result below ``cap`` is the maximum flow, and the residual state
        then holds a minimum cut.
        """
        self.capacity[:] = self.initial
        s, t = 2 * u + 1, 2 * v
        total = 0
        while total < cap:
            prev_arc = {s: -1}
            queue = deque([s])
            while queue and t not in prev_arc:
                x = queue.popleft()
                for i in self.adj[x]:
                    y = self.target[i]
                    if self.capacity[i] > 0 and y not in prev_arc:
                        prev_arc[y] = i
                        queue.append(y)
            if t not in prev_arc:
                break
            y = t
            while y != s:
                i = prev_arc[y]
                self.capacity[i] -= 1
                self.capacity[i ^ 1] += 1
                y = self.target[i ^ 1]
            total += 1
        return total


def _trace_paths(net: _FlowNet, g: RotationMap, u: int, v: int, k: int) -> PathCertificate:
    """Decompose the flow into k verified vertex paths, lowest-id target first."""
    used: dict[int, int] = {}
    source, sink = 2 * u + 1, 2 * v
    paths = []
    for _ in range(k):
        node = source
        nodes = [source]
        pos = {source: 0}
        while node != sink:
            nxt_arc = None
            for i in net.adj[node]:
                if i % 2 == 0 and net.capacity[i ^ 1] > used.get(i, 0):
                    nxt_arc = i
                    break
            if nxt_arc is None:
                raise AssertionError("flow decomposition lost conservation")
            used[nxt_arc] = used.get(nxt_arc, 0) + 1
            nxt = net.target[nxt_arc]
            if nxt in pos:
                # cancel the circulation just traced
                cut_at = pos[nxt]
                for dropped in nodes[cut_at + 1:]:
                    del pos[dropped]
                nodes = nodes[: cut_at + 1]
                node = nxt
                continue
            pos[nxt] = len(nodes)
            nodes.append(nxt)
            node = nxt
        paths.append(tuple([u] + [x >> 1 for x in nodes if x % 2 == 0]))
    cert = PathCertificate(u, v, tuple(paths))
    if not verify_certificate(g, cert):
        raise AssertionError("flow paths failed verification")
    return cert


def _extract_cut(net: _FlowNet, g: RotationMap, u: int, v: int, k: int) -> CutCertificate:
    source = 2 * u + 1
    reach = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for i in net.adj[x]:
            y = net.target[i]
            if net.capacity[i] > 0 and y not in reach:
                reach.add(y)
                queue.append(y)
    cut: set[int] = set()
    for x in reach:
        for i in net.adj[x]:
            if i % 2 != 0 or net.target[i ^ 1] != x:
                continue  # only forward arcs leaving x
            y = net.target[i]
            if y in reach or net.capacity[i] > 0:
                continue
            if x % 2 == 0:
                cut.add(x >> 1)  # vertex arc w-in -> w-out
            else:
                b = y >> 1
                cut.add(b if b != v else x >> 1)
    cut.discard(u)
    cut.discard(v)
    if len(cut) != k:
        raise AssertionError(f"cut of size {len(cut)} does not match flow {k}")
    cert = CutCertificate(
        frozenset(cut), (g.reachable((u,), cut), g.reachable((v,), cut))
    )
    if not verify_cut(g, cert):
        raise AssertionError("extracted cut failed verification")
    return cert


def _witnesses(
    net: _FlowNet, g: RotationMap, u: int, v: int
) -> tuple[int, PathCertificate, CutCertificate | None]:
    """Maximum flow between u and v on ``net``, with verified witnesses."""
    k = net.max_flow(u, v)
    cert = _trace_paths(net, g, u, v, k)
    cut = None
    if v not in g.adjacency_sets[u]:
        cut = _extract_cut(net, g, u, v, k)
    return k, cert, cut


def max_disjoint_paths(
    g: RotationMap, u: int, v: int
) -> tuple[int, PathCertificate, CutCertificate | None]:
    """Maximum internally disjoint u,v-paths, with path and cut witnesses.

    The cut certificate is returned only for non-adjacent pairs; adjacent
    vertices cannot be separated by vertex removal.
    """
    if u == v:
        raise SameVertexError(f"u = v = {u}")
    return _witnesses(_FlowNet(g), g, u, v)


def _unique_pairs(g: RotationMap) -> dict[tuple[int, int], int]:
    """Every distance-2 pair u < v, in sorted order, with its smallest
    common neighbour."""
    by_pair: dict[tuple[int, int], int] = {}
    for u, z, v in g.distance2_pairs():
        by_pair.setdefault((u, v), z)
    return by_pair


def vertex_connectivity(g: RotationMap) -> tuple[int, CutCertificate | None]:
    """Exact vertex connectivity with a witness cut when one exists.

    Connectivity is the minimum path count over the distance-2 pairs
    alone: each vertex of a minimum separator S has neighbours on two
    sides of S, and two of them form a distance-2 pair that S separates.
    It is also at most the minimum degree.

    On a V-graph (a :class:`PlaneGraph` that ``validate`` accepts) the
    answer is 4 with no flow at all: :func:`proof_paths` bundles for
    every distance-2 pair, each verified, give the lower bound, and the
    four neighbours of a minimum-degree vertex s, a cut verified with
    sides ``{s}`` and the rest, give the upper bound.  V-graphs are
    simple and 4-regular (see the module docstring), so that cut has size
    4.  Should it fail, a :class:`RuntimeWarning` precedes the flow route.

    Otherwise one flow network serves every pair, each pair's flow stops
    at the best count so far, starting from the minimum degree, and only
    the pair that sets the answer is traced into verified paths and a
    verified cut.  Returns ``(vertex_count - 1, None)`` for complete
    graphs, which no vertex set separates.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("connectivity needs at least two vertices")
    comps = g.components
    if len(comps) > 1:
        side_a = frozenset(comps[0])
        side_b = frozenset(x for c in comps[1:] for x in c)
        return 0, CutCertificate(frozenset(), (side_a, side_b))
    pairs = _unique_pairs(g)
    if not pairs:
        return n - 1, None
    adj = g.adjacency_sets
    s = min(range(n), key=lambda v: (len(adj[v] - {v}), v))
    around = adj[s] - {s}
    best = len(around)
    if _proof_bundles(g, pairs) is not None:
        cut = CutCertificate(
            around, (frozenset((s,)), frozenset(range(n)) - around - {s})
        )
        if best == 4 and verify_cut(g, cut):
            return 4, cut
        warnings.warn(
            f"the neighbours of vertex {s} do not give a verified 4-cut of "
            f"this V-graph (minimum degree {best}); using flow instead",
            RuntimeWarning,
            stacklevel=2,
        )
    # s has a distance-2 partner, as the graph is connected and not
    # complete; s's neighbours separate the two, so they have <= best paths
    witness = next(p for p in pairs if s in p)
    net = _FlowNet(g)
    for u, v in pairs:
        k = net.max_flow(u, v, best)
        if k < best:
            best, witness = k, (u, v)
    k, _, cut = _witnesses(net, g, *witness)
    if k != best:
        raise AssertionError(f"witness pair has flow {k}, expected {best}")
    return best, cut


# ---------------------------------------------------------------------------
# constructive four-path builder
# ---------------------------------------------------------------------------

class _ConstructionSurprise(Exception):
    """The curve structure around z is not the one the construction needs."""


def _corner_arc(g: PlaneGraph, z: int, s: int) -> list[int]:
    """Vertices along the boundary of z's corner face between slots s and
    s+1, skipping z itself: from neighbour(s+1) around to neighbour(s)."""
    stop = g.twin(g.dart(z, s % 4))
    d = g.face_next(g.dart(z, (s + 1) % 4))
    arc = []
    for _ in range(g.dart_count + 1):
        arc.append(g.dart_vertex(d))
        if d == stop:
            return arc
        d = g.face_next(d)
    raise _ConstructionSurprise("corner face orbit did not close")


def _ride(g: PlaneGraph, d: int, stop: Callable[[int], bool]) -> list[int]:
    """The vertices met riding the curve of dart d away from d's vertex z,
    up to the first one for which ``stop`` holds; the ride may not come
    back to z."""
    z = g.dart_vertex(d)
    ride = []
    while True:
        d = g.curve_next(d)
        x = g.dart_vertex(d)
        if x == z:
            raise _ConstructionSurprise("curve closed before the stop vertex")
        ride.append(x)
        if stop(x):
            return ride


def _fallback(g: PlaneGraph, u: int, v: int) -> tuple[tuple[int, ...], ...]:
    k, cert, _ = max_disjoint_paths(g, u, v)
    if k < 4:
        raise AssertionError(
            f"only {k} disjoint paths between {u} and {v}; "
            "input cannot be 4-connected"
        )
    return cert.paths[:4]


def _curve_arc(g: PlaneGraph, z: int, s: int) -> tuple[int, ...]:
    """The rest of the curve through z's slot s, from z's slot-s neighbour
    all the way round to its slot-(s+2) neighbour."""
    cycle = g.curves[g.curve_of[g.dart(z, s)]].vertices
    i = cycle.index(z)
    arc = cycle[i + 1:] + cycle[:i]
    return arc if arc[0] == g.dart_vertex(g.twin(g.dart(z, s))) else arc[::-1]


def _build_path_c(g: PlaneGraph, z: int, su: int, sv: int) -> tuple[int, ...]:
    """Ride u's curve from u away from z to the switch vertex w, then ride
    v's curve from w to v, where u and v are z's slot-su and slot-sv
    neighbours.

    w is the first crossing of the two curves reached when walking v's
    curve from v away from z (v itself when v lies on both curves), which
    makes the tail crossing-free.  The head then cannot meet the tail
    anywhere except w, and neither piece can touch z, the far neighbours
    of z, or the faces around z.  Both rides stop at w, so the cost is
    the path's length, not the curves'.
    """
    along = g.curve_of[g.dart(z, su)]
    tail = _ride(g, g.dart(z, sv), lambda x: along in g.vertex_curves(x))
    w = tail[-1]
    head = _ride(g, g.dart(z, su), lambda x: x == w)
    return tuple(head) + tuple(reversed(tail))[1:]


def proof_paths(
    g: PlaneGraph, u: int, z: int, v: int, validated: bool = False
) -> ProofPathsResult:
    """Four internally disjoint u,v-paths read off the structure around z.

    z must be a common neighbour of the non-adjacent pair u, v.  The curve
    through the z-u edge plays the 'along' role.  If v is z's opposite
    neighbour on that curve (case 1), the paths are u-z-v, the rest of
    that curve, and the two halves of the perimeter of the four faces
    around z.  Otherwise (case 2) v sits on the crossing curve and the
    four paths are the two complementary perimeter arcs, a path switching
    between the two curves at their crossing nearest v, and u-z-v.

    Every emitted bundle is verified; a verification failure swaps in
    flow-derived paths and flags ``used_fallback``.  Pass ``validated=True``
    to skip the V-graph check when the caller already did it.
    """
    if not validated:
        report = validate(g, with_venn=False)
        if not report.is_vgraph:
            raise NotVGraphError("construction requires a valid V-graph")
    adj = g.adjacency_sets
    if u == v or v in adj[u]:
        raise NotDistanceTwoError(f"{u} and {v} must be distinct and non-adjacent")
    if u not in adj[z] or v not in adj[z]:
        raise NotDistanceTwoError(f"{z} must neighbour both {u} and {v}")

    nbr = [g.dart_vertex(g.twin(g.dart(z, s))) for s in range(4)]
    su = min(s for s in range(4) if nbr[s] == u)

    def joined(pieces: list[list[int]]) -> tuple[int, ...]:
        out = list(pieces[0])
        for piece in pieces[1:]:
            out.extend(piece[1:])
        return tuple(out)

    if nbr[(su + 2) % 4] == v:
        case = 1
        a, b = nbr[(su + 1) % 4], nbr[(su + 3) % 4]
    else:
        case = 2
        b = nbr[(su + 2) % 4]
        a = nbr[(su + 3) % 4] if nbr[(su + 1) % 4] == v else nbr[(su + 1) % 4]
    roles = {"z": z, "a": a, "b": b}

    try:
        if len({u, v, a, b}) != 4:
            raise _ConstructionSurprise("corner neighbours of z are not distinct")
        arcs = [_corner_arc(g, z, s) for s in range(4)]
        if case == 1:
            paths = [
                (u, z, v),
                _curve_arc(g, z, su),
                joined([arcs[su][::-1], arcs[(su + 1) % 4][::-1]]),  # u ~ a ~ v
                joined([arcs[(su + 3) % 4], arcs[(su + 2) % 4]]),    # u ~ b ~ v
            ]
        elif nbr[(su + 1) % 4] == v:
            sv = (su + 1) % 4
            path_a = tuple(arcs[su][::-1])
            path_b = joined(
                [arcs[(su + 3) % 4], arcs[(su + 2) % 4], arcs[(su + 1) % 4]]
            )
            paths = [path_a, path_b, _build_path_c(g, z, su, sv), (u, z, v)]
        else:
            sv = (su + 3) % 4
            path_a = tuple(arcs[(su + 3) % 4])
            path_b = joined(
                [arcs[su][::-1], arcs[(su + 1) % 4][::-1], arcs[(su + 2) % 4][::-1]]
            )
            paths = [path_a, path_b, _build_path_c(g, z, su, sv), (u, z, v)]
    except _ConstructionSurprise:
        return ProofPathsResult(case, roles, _fallback(g, u, v), used_fallback=True)

    result = ProofPathsResult(case, roles, tuple(paths), used_fallback=False)
    if verify_certificate(g, PathCertificate(u, v, result.paths)):
        return result
    return ProofPathsResult(case, roles, _fallback(g, u, v), used_fallback=True)


def _proof_bundles(
    g: RotationMap, pairs: dict[tuple[int, int], int]
) -> tuple[tuple[tuple[int, int, int, PathCertificate], ...], int] | None:
    """Verified :func:`proof_paths` bundles for every pair of ``pairs``
    (from :func:`_unique_pairs`) with the fallback count, or None when g
    is not a V-graph.  The one route from "V-graph" to "4-connected"."""
    if not (isinstance(g, PlaneGraph) and validate(g, with_venn=False).is_vgraph):
        return None
    certificates = []
    fallbacks = 0
    for (u, v), z in pairs.items():
        res = proof_paths(g, u, z, v, validated=True)
        fallbacks += res.used_fallback
        certificates.append((u, z, v, PathCertificate(u, v, res.paths)))
    return tuple(certificates), fallbacks


def certify_distance_two(g: RotationMap, k: int) -> Distance2Certification:
    """Certify k disjoint paths for every distance-2 pair.

    By the distance-2 reduction of Menger's criterion, success proves the
    graph k-connected.  On V-graphs with k = 4 the constructive builder
    supplies the certificates (falling back to flow when verification
    demands it); otherwise one flow network serves every pair, each flow
    stopping at k.  The first failing pair, if any, is returned as a
    counterexample with its flow value and minimum cut.  ``k`` must be
    positive: asking for zero paths per pair would certify anything.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not g.is_connected:
        raise DisconnectedError("certification requires a connected graph")
    pairs = _unique_pairs(g)
    if not pairs:
        raise VacuousCertificationError("no distance-2 pairs; pairwise criterion is vacuous")
    if k == 4 and (bundles := _proof_bundles(g, pairs)) is not None:
        return Distance2Certification(k, len(pairs), *bundles, None)
    certificates = []
    net = _FlowNet(g)
    for (u, v), z in pairs.items():
        flow = net.max_flow(u, v, k)
        if flow < k:
            return Distance2Certification(
                k, len(pairs), tuple(certificates), 0,
                Counterexample(u, v, flow, _extract_cut(net, g, u, v, flow)),
            )
        certificates.append((u, z, v, _trace_paths(net, g, u, v, k)))
    return Distance2Certification(k, len(pairs), tuple(certificates), 0, None)
