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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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
    It is also at most the minimum degree.  So one flow network serves
    every pair, each pair's flow stops at the best count so far, starting
    from the minimum degree, and only the pair that sets the answer is
    traced into verified paths and a verified cut.  Returns
    ``(vertex_count - 1, None)`` for complete graphs, which no vertex set
    separates.
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
    best = len(adj[s] - {s})
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


def _cycle_path(cycle: list[int], start: int, end: int, avoid: int) -> list[int]:
    """The arc of a vertex cycle from start to end not passing avoid."""
    i = cycle.index(start)
    n = len(cycle)
    for step in (1, -1):
        path = [start]
        j = i
        while True:
            j = (j + step) % n
            x = cycle[j]
            if x == avoid:
                break
            path.append(x)
            if x == end:
                return path
    raise _ConstructionSurprise("no avoiding arc exists")


def _fallback(g: PlaneGraph, u: int, v: int) -> tuple[tuple[int, ...], ...]:
    k, cert, _ = max_disjoint_paths(g, u, v)
    if k < 4:
        raise AssertionError(
            f"only {k} disjoint paths between {u} and {v}; "
            "input cannot be 4-connected"
        )
    return cert.paths[:4]


def _build_path_c(
    g: PlaneGraph, u: int, z: int, v: int, along: int, across: int
) -> tuple[int, ...]:
    """Ride u's curve from u away from z to the switch vertex w, then ride
    v's curve from w to v.

    w is the first crossing of the two curves reached when walking v's
    curve from v away from z (v itself when v lies on both curves), which
    makes the tail crossing-free.  The head then cannot meet the tail
    anywhere except w, and neither piece can touch z, the far neighbours
    of z, or the faces around z.
    """
    across_cycle = list(g.curves[across].vertices)
    on_along = set(g.curves[along].vertices)
    i = across_cycle.index(v)
    n = len(across_cycle)
    step = 1 if across_cycle[(i - 1) % n] == z else -1
    tail = [v]
    j = i
    while tail[-1] not in on_along:
        j = (j + step) % n
        x = across_cycle[j]
        if x == z:
            raise _ConstructionSurprise("curves meet only at z")
        tail.append(x)
    w = tail[-1]

    along_cycle = list(g.curves[along].vertices)
    i = along_cycle.index(z)
    n = len(along_cycle)
    step = -1 if along_cycle[(i - 1) % n] == u else 1
    head: list[int] = []
    j = i
    while not head or head[-1] != w:
        j = (j + step) % n
        x = along_cycle[j]
        if x == z:
            raise _ConstructionSurprise("switch vertex not on the u-curve walk")
        head.append(x)
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
    along = g.curve_of[g.dart(z, su)]

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
            along_cycle = list(g.curves[along].vertices)
            paths = [
                (u, z, v),
                tuple(_cycle_path(along_cycle, u, v, avoid=z)),
                joined([arcs[su][::-1], arcs[(su + 1) % 4][::-1]]),  # u ~ a ~ v
                joined([arcs[(su + 3) % 4], arcs[(su + 2) % 4]]),    # u ~ b ~ v
            ]
        elif nbr[(su + 1) % 4] == v:
            sv = (su + 1) % 4
            path_a = tuple(arcs[su][::-1])
            path_b = joined(
                [arcs[(su + 3) % 4], arcs[(su + 2) % 4], arcs[(su + 1) % 4]]
            )
            across = g.curve_of[g.dart(z, sv)]
            paths = [path_a, path_b, _build_path_c(g, u, z, v, along, across),
                     (u, z, v)]
        else:
            sv = (su + 3) % 4
            path_a = tuple(arcs[(su + 3) % 4])
            path_b = joined(
                [arcs[su][::-1], arcs[(su + 1) % 4][::-1], arcs[(su + 2) % 4][::-1]]
            )
            across = g.curve_of[g.dart(z, sv)]
            paths = [path_a, path_b, _build_path_c(g, u, z, v, along, across),
                     (u, z, v)]
    except (_ConstructionSurprise, ValueError):
        return ProofPathsResult(case, roles, _fallback(g, u, v), used_fallback=True)

    result = ProofPathsResult(case, roles, tuple(paths), used_fallback=False)
    if verify_certificate(g, PathCertificate(u, v, result.paths)):
        return result
    return ProofPathsResult(case, roles, _fallback(g, u, v), used_fallback=True)


def certify_distance_two(g: RotationMap, k: int) -> Distance2Certification:
    """Certify k disjoint paths for every distance-2 pair.

    By the distance-2 reduction of Menger's criterion, success proves the
    graph k-connected.  On V-graphs with k = 4 the constructive builder
    supplies the certificates (falling back to flow when verification
    demands it); otherwise one flow network serves every pair, each flow
    stopping at k.  The first failing pair, if any, is returned as a
    counterexample with its flow value and minimum cut.
    """
    if not g.is_connected:
        raise DisconnectedError("certification requires a connected graph")
    pairs = _unique_pairs(g)
    if not pairs:
        raise VacuousCertificationError("no distance-2 pairs; pairwise criterion is vacuous")
    constructive = (
        k == 4
        and isinstance(g, PlaneGraph)
        and validate(g, with_venn=False).is_vgraph
    )
    certificates = []
    if constructive:
        fallbacks = 0
        for (u, v), z in pairs.items():
            res = proof_paths(g, u, z, v, validated=True)
            fallbacks += res.used_fallback
            certificates.append((u, z, v, PathCertificate(u, v, res.paths)))
        return Distance2Certification(k, len(pairs), tuple(certificates), fallbacks, None)
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
