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
path count of any pair together with a matching minimum separator.  On a
family of simple closed curves crossing transversally, a
:class:`~venngraph.maps.PlaneGraph` with no
:attr:`~venngraph.maps.PlaneGraph.self_crossings`, there is also a direct
construction: around any common neighbour z of a distance-2 pair, four
disjoint paths can be read off the two curves crossing at z and the
perimeter of the four faces around z.  Unique face incidence is what
guarantees that the construction always works; on other curve families
it works for most pairs.  Every constructed bundle is verified after the
fact, and a pair whose bundle fails takes flow paths instead, so the
output is always a sound certificate.

Every certificate is held as pieces and verified without being
expanded, by one verifier, :func:`verify_certificate`.  Each path is a
tuple of pieces, every piece starting at the vertex where the one before
it (or u) ended: an explicit vertex run, or a curve segment (curve,
start position, end position, step +-1) over the positions of
:attr:`~venngraph.maps.PlaneGraph.curve_index`.  A flow path is one
run, and a certificate of runs alone carries no index.  The long path
of a constructed bundle is one segment or two, and the perimeter paths
are runs walked round the faces at z by the map's face successor, so a
bundle has O(face degree) numbers however long its paths are.  The verifier
checks explicit steps against the adjacency sets, which every
:class:`~venngraph.maps.RotationMap` has, and reads the curve index only
for a certificate with segments.  What it assumes of the curves holds on
every map that has a ``curve_index``, V-graph or not:

- consecutive vertices of a segment are adjacent, because a curve is an
  orbit of the twin table;
- a curve is a simple cycle, so a segment within bounds is simple: a
  curve that revisits a vertex is a self-crossing (lemma in the
  :mod:`venngraph.validate` docstring), which ``curve_index`` refuses;
- every vertex lies on exactly two distinct curves, at the positions of
  its two dart pairs, so the vertices that two curves share are exactly
  their crossing lists.

Disjointness then needs only the following, since two pieces can share
a vertex only at an end of one or at a vertex inside both:

- the vertices after u on every path, junctions counted once and v
  left out, are distinct and avoid u and v (this covers every explicit
  vertex and every segment end);
- no explicit vertex, u or v lies strictly inside a segment: a position
  look-up;
- two segments on one curve: neither has an end strictly inside the
  other, and the first step of one does not land strictly inside the
  other.  Two arcs of a cycle that share an inner vertex and pass the
  first test have the same two ends and lie on the same side of them;
  the second test catches exactly that;
- two segments on different curves can share only crossings of their
  two curves: bisecting the crossing list gives those on each segment,
  and those on the segment with fewer are tested against the other's
  interval.

One loop, :func:`_proof_bundles`, certifies a set of pairs on every
map, streaming their certificates in order.  At k = 4 on a map with
simple curves, each pair first gets the :func:`proof_paths` bundle
around its common neighbour z (z's four neighbours and four corner arcs
are read once per z), and a pair whose bundle cannot be built or fails
verification takes flow paths from one network shared by the call.  On a
V-graph such a pair is a counted fallback; on any other map it is simply
the flow route.  A pair with only f < k paths comes first as a
counterexample with its verified cut, then with its f paths, and k drops
to f: so one pass from the minimum degree certifies both bounds of
connectivity on any map.

On V-graphs the construction alone settles connectivity, with no flow,
and it needs only the straight-through pairs: the two far ends
``twin(4z + s) >> 2`` and ``twin(4z + s + 2) >> 2`` of one curve through
a vertex z, when they are not adjacent.  Their bundles give each such
pair four paths, so connectivity is at least 4 by the lemma below, and
the four neighbours of any vertex separate it from the rest, so it is at
most 4.  A V-graph is simple, as a digon would put one of its curves
twice on an adjacent face, which unique face incidence forbids; every
vertex therefore has four distinct neighbours.

Lemma.  In a simple, connected, 4-regular plane graph with connectivity
at most 3, some vertex has two neighbours in opposite slots that a
minimum separator S separates.  Proof:

- Every component C of G - S is full: every vertex of S has a neighbour
  in C, as otherwise N(C) would be a smaller separator.  So every s in S
  has neighbours in two components.
- Suppose no vertex of S has its opposite neighbours split between two
  components, and take s in S with neighbours in C1 and C2, placed in
  slots 0 and 1.  Slot 2 is then in C1 or S and slot 3 in C2 or S,
  which leaves four patterns for slots 0 to 3.
- C1 C2 C1 C2 is impossible: a path in C1 from slot 0 to slot 2 closes
  a cycle through s that separates slots 1 and 3, which C2 connects.
- C1 C2 C1 S is impossible: the same cycle separates C2 from the S-vertex
  in slot 3, which has a neighbour in C2.  Its mirror C1 C2 S C2 fails
  the same way, with a cycle through s and C2.
- C1 C2 S S: s has two neighbours in S.  This is the only pattern left
  for every vertex of S, so S induces a 2-regular graph on at most three
  vertices: a triangle.  The two S-edges at s sit in adjacent slots, so
  C1 and C2 lie on one side of the triangle.  Three disjoint paths from
  a vertex of C1 to the three corners (a tripod) split that side into
  three regions, each touching only two corners, and the connected C2
  lies in one of them; it misses the third corner, against fullness.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Iterator, NamedTuple, Union

from .maps import CurveIndex, DisconnectedError, MapError, NotAVertexError, PlaneGraph, RotationMap
from .validate import validate


class SameVertexError(MapError):
    """Disjoint paths need two distinct endpoints."""


class NotDistanceTwoError(MapError):
    """Proof-path construction needs u, v non-adjacent with common neighbour z."""


class NotVGraphError(MapError):
    """Proof-path construction is only defined on V-graphs."""


class VacuousCertificationError(MapError):
    """No distance-2 pairs exist, so pairwise certification says nothing."""


class Segment(NamedTuple):
    """The vertices of curve ``curve`` from position ``start`` to position
    ``end``, both included, stepping by ``step`` (+1 or -1) and wrapping
    round; positions index the curve's tuple in
    :attr:`~venngraph.maps.PlaneGraph.curve_index`."""

    curve: int
    start: int
    end: int
    step: int

    def vertices(self, index: CurveIndex) -> tuple[int, ...]:
        """The segment's vertices in its order, read off ``index``."""
        if self.step not in (1, -1):
            raise ValueError(f"{self} steps by neither 1 nor -1")
        cycle = index.curve_vertices[self.curve]
        lo, hi = (self.start, self.end) if self.step == 1 else (self.end, self.start)
        run = cycle[lo:hi + 1] if lo <= hi else cycle[lo:] + cycle[:hi + 1]
        return run if self.step == 1 else run[::-1]


Piece = Union[tuple[int, ...], Segment]


@dataclass(frozen=True, eq=False, slots=True)
class PathCertificate:
    """k internally disjoint u,v-paths.

    Each path is a tuple of pieces, every piece starting at the vertex
    where the one before it (or u) ended: vertex runs and
    :class:`Segment` s over ``index``, which a certificate of runs alone,
    such as flow paths (one run each), leaves None.  The pieces are all
    it keeps: ``paths`` expands every path to its vertex tuple on each
    access, and :meth:`iter_paths` one at a time.  Certificates are
    slotted records, with no instance dict, and compare by identity.
    """

    u: int
    v: int
    pieces: tuple[tuple[Piece, ...], ...]
    index: CurveIndex | None = field(default=None, repr=False)

    def iter_paths(self) -> Iterator[tuple[int, ...]]:
        return (_expand(self.index, path) for path in self.pieces)

    @property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.iter_paths())

    @property
    def k(self) -> int:
        return len(self.pieces)


@dataclass(frozen=True)
class CutCertificate:
    """A separating vertex set and two sides it separates."""

    cut: frozenset[int]
    sides: tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class ProofPathsResult:
    case: int
    roles: dict[str, int]
    certificate: PathCertificate
    used_fallback: bool


@dataclass(frozen=True)
class Counterexample:
    u: int
    v: int
    flow: int
    cut: CutCertificate


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


def _expand(index: CurveIndex | None, path: tuple[Piece, ...]) -> tuple[int, ...]:
    """One compact path as a vertex tuple.  A piece that starts where the
    one before it ended shares that vertex; any other piece is appended
    whole, so a junction that :func:`verify_certificate` rejects stays
    broken in the expansion."""
    out: list[int] = []
    for piece in path:
        if type(piece) is Segment:
            piece = piece.vertices(index)
        out.extend(piece[1:] if out and piece and piece[0] == out[-1] else piece)
    return tuple(out)


def _arc_crossings(xs: tuple[int, ...], seg: Segment) -> tuple[int, int]:
    """The positions in the sorted crossing list ``xs`` that ``seg``
    covers, ends included, as (i, k): they are ``xs[(i + j) % len(xs)]``
    for j < k."""
    lo, hi = (seg.start, seg.end) if seg.step == 1 else (seg.end, seg.start)
    i, j = bisect_left(xs, lo), bisect_right(xs, hi)
    return i, (j - i if lo <= hi else len(xs) - i + j)


def _segments_meet(g: PlaneGraph, index: CurveIndex, s: Segment, t: Segment) -> bool:
    """Whether segments on two different curves share a vertex other than
    an end of both.  Only the crossings of the two curves can be shared;
    bisection finds those on each segment, and the fewer are tested."""
    xs = index.crossings.get((s.curve, t.curve), ())
    ys = index.crossings.get((t.curve, s.curve), ())
    i, k = _arc_crossings(xs, s)
    i_t, k_t = _arc_crossings(ys, t)
    if k > k_t:
        s, t, xs, i, k = t, s, ys, i_t, k_t
    cycle = index.curve_vertices[s.curve]
    ls, lt = len(cycle), len(index.curve_vertices[t.curve])
    curve_of, position = g.curve_of, index.position
    # offsets along a segment from its start, modulo its curve's length;
    # a position is on the segment iff its offset is at most the end's
    s_start, s_step, t_curve, t_start, t_step = s.start, s.step, t.curve, t.start, t.step
    end_s = (s.end - s_start) * s_step % ls
    end_t = (t.end - t_start) * t_step % lt
    for j in range(i, i + k):
        p = xs[j % len(xs)]
        d = 4 * cycle[p]
        if curve_of[d] != t_curve:
            d += 1
        on_t = (position[d] - t_start) * t_step % lt
        if on_t <= end_t and not (
            (p - s_start) * s_step % ls in (0, end_s) and on_t in (0, end_t)
        ):
            return True
    return False


def verify_certificate(g: RotationMap, cert: PathCertificate) -> bool:
    """Every path simple, in the graph, from u to v, every piece starting
    where the one before it ended; u and v distinct vertices of g; the
    paths pairwise internally disjoint.  Checked without expanding any
    segment; see the module docstring for the argument, which holds on
    every map with simple curves, V-graph or not.

    Reads only ``g``'s adjacency sets and the certificate's own numbers
    until it meets a :class:`Segment`, so a certificate of vertex runs,
    such as flow paths, verifies on any :class:`RotationMap`.  A segment
    is accepted only on a :class:`PlaneGraph` without
    :attr:`~venngraph.maps.PlaneGraph.self_crossings`, from a certificate
    that carries that graph's own :attr:`PlaneGraph.curve_index`, from
    which its ``paths`` expand.
    """
    adj = g.adjacency_sets
    n = g.vertex_count
    u, v = cert.u, cert.v
    if u == v or not (0 <= u < n and 0 <= v < n):
        return False
    index = None               # g.curve_index, read at the first segment
    points: list[int] = []     # every path's vertices after u, one per junction
    explicit: list[int] = [u, v]
    segments: list[Segment] = []
    for path in cert.pieces:
        at = u
        for piece in path:
            if type(piece) is Segment:
                if index is None:
                    if (not isinstance(g, PlaneGraph) or g.self_crossings
                            or cert.index is not g.curve_index):
                        return False
                    index = cert.index
                    curves = index.curve_vertices
                c, start, end, step = piece
                if not 0 <= c < len(curves):
                    return False
                cycle = curves[c]
                if (not (0 <= start < len(cycle) and 0 <= end < len(cycle))
                        or step not in (1, -1) or cycle[start] != at):
                    return False
                at = cycle[end]
                segments.append(piece)
                points.append(at)
            else:
                if type(piece) is not tuple or not piece or piece[0] != at:
                    return False
                rest = piece[1:]
                a = at
                for b in rest:
                    if b not in adj[a]:
                        return False
                    a = b
                explicit += rest
                points += rest
                at = piece[-1]
        if at != v:
            return False
        points.pop()
    seen = set(points)
    if len(seen) != len(points) or u in seen or v in seen:
        return False
    if index is None:
        return True            # vertex runs only: every check is done
    curve_of, position = g.curve_of, index.position
    # offsets along a segment from its start, modulo its curve's length:
    # position p lies strictly inside iff 0 < offset(p) < offset(end)
    for c, start, end, step in segments:
        length = len(curves[c])
        span = (end - start) * step % length
        for x in explicit:
            d = 4 * x
            if curve_of[d] != c:
                d += 1
                if curve_of[d] != c:
                    continue
            if 0 < (position[d] - start) * step % length < span:
                return False
    for i, s in enumerate(segments):
        for t in segments[i + 1:]:
            if s.curve != t.curve:
                if _segments_meet(g, index, s, t):
                    return False
                continue
            # no end of one strictly inside the other leaves two arcs with
            # the same ends on the same side, whose first steps coincide
            length = len(curves[s.curve])
            span_s = (s.end - s.start) * s.step % length
            span_t = (t.end - t.start) * t.step % length
            if (0 < (t.start - s.start) * s.step % length < span_s
                    or 0 < (t.end - s.start) * s.step % length < span_s
                    or 0 < (s.start - t.start) * t.step % length < span_t
                    or 0 < (s.end - t.start) * t.step % length < span_t
                    or 0 < (t.start + t.step - s.start) * s.step % length < span_s):
                return False
    return True


def verify_cut(g: RotationMap, cert: CutCertificate) -> bool:
    """Sides nonempty, disjoint from the cut, and unreachable from each
    other; every vertex named in 0..V-1."""
    a, b = cert.sides
    if not a or not b or a & b or (a | b) & cert.cut:
        return False
    named = a | b | cert.cut
    if min(named) < 0 or max(named) >= g.vertex_count:
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
        ends = [(2 * w, 2 * w + 1) for w in range(g.vertex_count)]
        for d in g.edges():
            a, b = g.edge_endpoints(d)
            if a != b:
                ends += ((2 * a + 1, 2 * b), (2 * b + 1, 2 * a))
        self.target: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(2 * g.vertex_count)]
        self.source_side: Collection[int] | None = None
        target, adj = self.target, self.adj
        for x, y in ends:
            adj[x].append(len(target))
            adj[y].append(len(target) + 1)
            target += (y, x)
        # each list holds its arcs in rising order, so a stable sort by
        # target leaves arcs to one node in that order
        for arcs in adj:
            arcs.sort(key=target.__getitem__)
        self.initial = (1, 0) * len(ends)
        self.capacity: list[int] = list(self.initial)

    def max_flow(self, u: int, v: int, cap: float = math.inf) -> int:
        """Reset all capacities, then push up to ``cap`` units from u to v.

        A result below ``cap`` is the maximum flow, and ``source_side``
        then holds the nodes that the last, failed search reached in the
        residual network: the source side of a minimum cut.  Otherwise
        ``source_side`` is None.
        """
        self.source_side = None
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
                self.source_side = prev_arc.keys()
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
    """Decompose the flow into k verified vertex paths, lowest-id target first.

    No flow enters u, as u-in's only forward arc leads back to the source
    u-out; none leaves the sink v-in, where every search stops; every
    other vertex carries at most its in -> out arc's one unit.  So each
    flow arc out of u-out starts a chain that runs to v, meeting no other
    chain and not itself, and the path is read off by following it.  A
    walk past V vertices, a dead end, a path count other than k or a
    failed :func:`verify_certificate` raises :class:`AssertionError`.
    """
    source, sink = 2 * u + 1, 2 * v
    capacity, target = net.capacity, net.target
    paths = []
    for first in net.adj[source]:
        if first % 2 or not capacity[first ^ 1]:
            continue  # not a forward arc carrying flow
        path = [u]
        node = target[first]
        while node != sink:
            if node % 2 == 0:
                path.append(node >> 1)
                if len(path) > g.vertex_count:
                    raise AssertionError("flow path longer than V: the flow holds a cycle")
            for arc in net.adj[node]:
                if arc % 2 == 0 and capacity[arc ^ 1]:
                    break
            else:
                raise AssertionError("flow decomposition lost conservation")
            node = target[arc]
        path.append(v)
        paths.append(tuple(path))
    if len(paths) != k:
        raise AssertionError(f"{len(paths)} flow paths leave u, expected {k}")
    cert = PathCertificate(u, v, tuple((p,) for p in paths))
    if not verify_certificate(g, cert):
        raise AssertionError("flow paths failed verification")
    return cert


def _extract_cut(net: _FlowNet, g: RotationMap, u: int, v: int, k: int) -> CutCertificate:
    """The minimum cut of the flow ``net`` holds after a maximum u,v-flow
    of value k, read off its ``source_side``."""
    reach = net.source_side
    if reach is None:
        raise AssertionError("the flow reached its cap, so it holds no cut")
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


def max_disjoint_paths(
    g: RotationMap, u: int, v: int
) -> tuple[int, PathCertificate, CutCertificate | None]:
    """Maximum internally disjoint u,v-paths, with verified witnesses.

    The cut certificate is returned only for non-adjacent pairs; adjacent
    vertices cannot be separated by vertex removal.
    """
    if u == v:
        raise SameVertexError(f"u = v = {u}")
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise NotAVertexError(f"u = {u}, v = {v}: not both in 0..{g.vertex_count - 1}")
    net = _FlowNet(g)
    k = net.max_flow(u, v)
    cut = None if v in g.adjacency_sets[u] else _extract_cut(net, g, u, v, k)
    return k, _trace_paths(net, g, u, v, k), cut


def _unique_pairs(g: RotationMap) -> dict[tuple[int, int], int]:
    """Every distance-2 pair u < v, in sorted order, with its smallest
    common neighbour: the pairs of :meth:`RotationMap.distance2_pairs`,
    each once, kept from their first triple, as the triples come sorted
    by u, v, then z."""
    pairs: dict[tuple[int, int], int] = {}
    for u, z, v in g.distance2_pairs():
        pairs.setdefault((u, v), z)
    return pairs


def _straight_pairs(g: PlaneGraph) -> dict[tuple[int, int], int]:
    """The far ends u < v of each curve through each vertex z, when not
    adjacent, each with its smallest z: the pairs of the module
    docstring's lemma, all case 1 of :func:`proof_paths`."""
    adj = g.adjacency_sets
    pairs: dict[tuple[int, int], int] = {}
    for z in range(g.vertex_count):
        for s in (0, 1):
            a, b = g.twin(4 * z + s) >> 2, g.twin(4 * z + s + 2) >> 2
            if b not in adj[a]:
                pairs.setdefault((min(a, b), max(a, b)), z)
    return pairs


def vertex_connectivity(g: RotationMap) -> tuple[int, CutCertificate | None]:
    """Exact vertex connectivity with a witness cut when one exists.

    Connectivity is the minimum path count over the distance-2 pairs
    alone: each vertex of a minimum separator S has neighbours on two
    sides of S, and two of them form a distance-2 pair that S separates.
    It is also at most the minimum simple degree δ: the neighbours of a
    vertex s of that degree are a cut with sides ``{s}`` and the rest.
    Both bounds come from one loop over the stream of
    :func:`_proof_bundles`, read item by item and kept by no one: it
    certifies the pairs from k = δ, each counterexample lowers k to its
    flow, and the last one's verified cut is the upper bound, or with
    none the verified cut around s.  On any map but a V-graph the
    pairs are every distance-2 pair, and ``(vertex_count - 1, None)`` is
    the answer for complete graphs, which have none and which no vertex
    set separates.

    On a V-graph (a :class:`PlaneGraph` that ``validate`` accepts) the
    pairs are the straight-through pairs alone, by the lemma in the
    module docstring: about 2V pairs, each one curve segment and three
    short paths, with no flow at all.  V-graphs are simple and 4-regular
    (see the module docstring), so δ = 4, no pair has a counterexample
    (a flow below 4 raises), and the verified cut around s has size 4.
    """
    n = g.vertex_count
    comps = g.components
    if len(comps) > 1:
        side_a = frozenset(comps[0])
        side_b = frozenset(x for c in comps[1:] for x in c)
        return 0, CutCertificate(frozenset(), (side_a, side_b))
    adj = g.adjacency_sets
    s = min(range(n), key=lambda v: (len(adj[v] - {v}), v))
    around = adj[s] - {s}
    kappa = len(around)
    cut = CutCertificate(around, (frozenset((s,)), frozenset(range(n)) - around - {s}))
    vgraph = _is_vgraph(g)
    pairs = _straight_pairs(g) if vgraph else _unique_pairs(g)
    if not pairs and not vgraph:
        return n - 1, None
    low = None
    for _, _, _, cert, _ in _proof_bundles(g, pairs, kappa):
        if type(cert) is Counterexample:
            low = cert
    if low is not None:
        return low.flow, low.cut
    if not verify_cut(g, cut):
        raise AssertionError(f"the neighbours of vertex {s} do not separate it")
    return kappa, cut


# ---------------------------------------------------------------------------
# constructive four-path builder
# ---------------------------------------------------------------------------

class _ConstructionSurprise(Exception):
    """The curve structure around z is not the one the construction needs."""


def _around(
    g: PlaneGraph, index: CurveIndex, z: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """z's neighbours by slot, and its corner arcs: the arc of slot s
    walks :attr:`~venngraph.maps.RotationMap.face_next` round the face of
    dart 4z + s, z's corner face between slots s - 1 and s, from
    neighbour(s) to neighbour(s - 1), without z."""
    succ, vertex_of = g.face_next, g._vertex_of
    nbr, corners = [], []
    for d in range(4 * z, 4 * z + 4):
        nbr.append(g.twin(d) >> 2)
        arc, x = [], succ[d]
        while x != d:
            arc.append(vertex_of[x])
            x = succ[x]
        corners.append(tuple(arc))
    return tuple(nbr), tuple(corners)


def _curve_rest(g: PlaneGraph, index: CurveIndex, d: int) -> Segment:
    """The rest of the curve through dart d, which leaves z: from d's far
    vertex all the way round to the far vertex of the opposite dart."""
    return Segment(g.curve_of[d], index.position[g.twin(d)],
                   index.position[g.twin(d ^ 2)], index.step[d])


def _switch_path(g: PlaneGraph, index: CurveIndex, du: int, dv: int) -> tuple[Segment, ...]:
    """Ride u's curve from u away from z to the switch vertex w, then ride
    v's curve from w to v, where du and dv are z's darts towards u and v
    on two different curves.

    w is the first crossing of the two curves reached when walking v's
    curve from v away from z (v itself when v lies on both curves),
    which makes the second segment crossing-free; it is found by
    bisection in the crossing list.  The first segment then cannot meet
    the second anywhere except w, and neither can touch z, the far
    neighbours of z, or the faces around z.
    """
    curve_of, position = g.curve_of, index.position
    along, across = curve_of[du], curve_of[dv]
    xs = index.crossings[across, along]
    pv = position[g.twin(dv)]
    away = index.step[dv]
    if away == 1:
        i = bisect_left(xs, pv)
        pw = xs[i] if i < len(xs) else xs[0]
    else:
        pw = xs[bisect_right(xs, pv) - 1]
    w = index.curve_vertices[across][pw]
    if w == du >> 2:
        raise _ConstructionSurprise("curve closed before the switch vertex")
    dw = 4 * w if curve_of[4 * w] == along else 4 * w + 1
    head = Segment(along, position[g.twin(du)], position[dw], index.step[du])
    return (head,) if pw == pv else (head, Segment(across, pw, pv, -away))


def _four_paths(
    g: PlaneGraph,
    index: CurveIndex,
    z: int,
    around: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]],
    su: int,
    v: int,
) -> tuple[tuple[Piece, ...], ...]:
    """The pieces of :func:`proof_paths` from z's neighbour in slot su to
    its neighbour v, given ``around = _around(g, index, z)``."""
    nbr, corners = around
    if len(set(nbr)) != 4:
        raise _ConstructionSurprise("corner neighbours of z are not distinct")
    u = nbr[su]
    # z's corner arcs counterclockwise from u: arc[i] runs from the
    # neighbour in slot su + i + 1 back to the one in slot su + i
    arc = corners[su + 1:] + corners[:su + 1]
    du = 4 * z + su
    if nbr[(su + 2) % 4] == v:
        return (
            ((u, z, v),),
            (_curve_rest(g, index, du),),
            (arc[0][::-1] + arc[1][-2::-1],),   # u ~ a ~ v
            (arc[3] + arc[2][1:],),             # u ~ b ~ v
        )
    if nbr[(su + 1) % 4] == v:
        return ((arc[0][::-1],), (arc[3] + arc[2][1:] + arc[1][1:],),
                _switch_path(g, index, du, 4 * z + (su + 1) % 4), ((u, z, v),))
    return ((arc[3],), (arc[0][::-1] + arc[1][-2::-1] + arc[2][-2::-1],),
            _switch_path(g, index, du, 4 * z + (su + 3) % 4), ((u, z, v),))


def proof_paths(g: PlaneGraph, u: int, z: int, v: int) -> ProofPathsResult:
    """Four internally disjoint u,v-paths read off the structure around z.

    z must be a common neighbour of the non-adjacent pair u, v, all three
    vertices of g; otherwise :class:`NotDistanceTwoError`.  The curve
    through the z-u edge plays the 'along' role.  If v is z's opposite
    neighbour on that curve (case 1), the paths are u-z-v, the rest of
    that curve, and the two halves of the perimeter of the four faces
    around z.  Otherwise (case 2) v sits on the crossing curve and the
    four paths are the two complementary perimeter arcs, a path switching
    between the two curves at their crossing nearest v, and u-z-v.

    The bundle is a compact :class:`PathCertificate`: the long path is
    one curve :class:`Segment` in case 1 and one or two in case 2, and the
    perimeter paths are runs of z's corner arcs (:func:`_around`).  It costs
    O(face degree + log V) to build and to verify with
    :func:`verify_certificate`, which checks flow paths too; ``paths``
    expands it.  The bundle is the one item that :func:`_proof_bundles`,
    the loop every certification takes, yields for the pair; there a
    verification failure swaps in flow paths, one vertex run each, which
    flags ``used_fallback``.  g is validated first, on every call:
    anything but a V-graph raises :class:`NotVGraphError`.
    """
    if not validate(g).is_vgraph:
        raise NotVGraphError("construction requires a valid V-graph")
    n = g.vertex_count
    for x in (u, z, v):
        if not 0 <= x < n:
            raise NotDistanceTwoError(f"vertex {x} is not in 0..{n - 1}")
    adj = g.adjacency_sets
    if u == v or v in adj[u]:
        raise NotDistanceTwoError(f"{u} and {v} must be distinct and non-adjacent")
    if u not in adj[z] or v not in adj[z]:
        raise NotDistanceTwoError(f"{z} must neighbour both {u} and {v}")

    nbr = [g.twin(d) >> 2 for d in range(4 * z, 4 * z + 4)]
    su = nbr.index(u)
    if nbr[(su + 2) % 4] == v:
        case = 1
        a, b = nbr[(su + 1) % 4], nbr[(su + 3) % 4]
    else:
        case = 2
        b = nbr[(su + 2) % 4]
        a = nbr[(su + 3) % 4] if nbr[(su + 1) % 4] == v else nbr[(su + 1) % 4]
    roles = {"z": z, "a": a, "b": b}
    _, _, _, cert, fallback = next(_proof_bundles(g, {(u, v): z}))
    return ProofPathsResult(case, roles, cert, used_fallback=fallback)


def _is_vgraph(g: RotationMap) -> bool:
    return isinstance(g, PlaneGraph) and validate(g).is_vgraph


def _proof_bundles(
    g: RotationMap, pairs: dict[tuple[int, int], int], k: int = 4
) -> Iterator[tuple[int, int, int, PathCertificate | Counterexample, bool]]:
    """k verified disjoint paths for every pair of ``pairs``, each given
    with a common neighbour z, yielded in the order of ``pairs`` as
    ``(u, z, v, certificate, fallback)``: the one loop behind
    :func:`certify_distance_two`, :func:`proof_paths` and
    :func:`vertex_connectivity`.  It keeps no certificate.

    At k = 4 on a :class:`PlaneGraph` with simple curves, a pair first
    gets the :func:`proof_paths` bundle around its z (z's neighbours and
    corner arcs are read once per z), kept if :func:`verify_certificate`
    accepts it.  Every other pair takes flow paths, capped at k, from one
    :class:`_FlowNet` built for the first such pair; :func:`_trace_paths`
    checks them with the same verifier.  A pair whose flow f falls short
    of k first comes with a :class:`Counterexample` holding its verified
    cut; then k drops to f, leaving the construction for good, and the
    pair comes again with its f traced paths.

    A V-graph has four paths for every pair (module docstring), so there a
    pair without a verified bundle is a fallback, flagged ``True``, and a
    flow below 4 raises :class:`AssertionError`; whether g is one is asked
    only when such a pair comes.  On any other map the flag stays False.
    """
    index = None
    if k == 4 and isinstance(g, PlaneGraph) and not g.self_crossings:
        index = g.curve_index
        arounds = [None] * g.vertex_count  # _around(g, index, z), on first use
    net = None
    vgraph = False
    for (u, v), z in pairs.items():
        if index is not None:
            around = arounds[z]
            if around is None:
                around = arounds[z] = _around(g, index, z)
            try:
                cert = PathCertificate(
                    u, v, _four_paths(g, index, z, around, around[0].index(u), v), index)
            except _ConstructionSurprise:
                cert = None
            if cert is not None and verify_certificate(g, cert):
                yield u, z, v, cert, False
                continue
        if net is None:
            net = _FlowNet(g)
            vgraph = index is not None and _is_vgraph(g)
        flow = net.max_flow(u, v, k)
        if flow < k:
            if vgraph:
                raise AssertionError(
                    f"only {flow} disjoint paths between {u} and {v}; "
                    "input cannot be 4-connected"
                )
            yield u, z, v, Counterexample(u, v, flow, _extract_cut(net, g, u, v, flow)), False
            k, index = flow, None
        yield u, z, v, _trace_paths(net, g, u, v, k), vgraph


def certify_distance_two(g: RotationMap, k: int) -> Distance2Certification:
    """Certify k disjoint paths for every distance-2 pair.

    By the distance-2 reduction of Menger's criterion, success proves the
    graph k-connected.  The pairs go through :func:`_proof_bundles` in
    sorted order: at k = 4 on every map with simple curves, V-graph or
    not, a pair takes its verified constructive bundle, and flow paths
    from one shared network, each flow stopping at k, serve the pairs that
    no verified bundle covers and every pair at other k, on plain
    rotation maps and on maps whose curves cross themselves.  Flow paths
    count as fallbacks only on a V-graph.  Every certificate is collected
    up to the first pair whose flow falls short of k, if any, which is
    returned as a counterexample with its flow value and minimum cut.
    ``k`` must be positive: asking for zero paths per pair would certify
    anything.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not g.is_connected:
        raise DisconnectedError("certification requires a connected graph")
    pairs = _unique_pairs(g)
    if not pairs:
        raise VacuousCertificationError("no distance-2 pairs; pairwise criterion is vacuous")
    certs: list[tuple[int, int, int, PathCertificate]] = []
    fallbacks = 0
    for u, z, v, cert, fallback in _proof_bundles(g, pairs, k):
        if type(cert) is Counterexample:
            return Distance2Certification(k, len(pairs), tuple(certs), fallbacks, cert)
        certs.append((u, z, v, cert))
        fallbacks += fallback
    return Distance2Certification(k, len(pairs), tuple(certs), fallbacks, None)
