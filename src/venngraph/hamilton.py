"""Hamilton cycles by deterministic backtracking over edge choices.

Each edge of the (parallel-collapsed) graph is included or excluded.
Three pruning tiers run after every decision.  Forced edges and
premature-subcycle rejection propagate to a fixpoint: a vertex with
exactly two admissible incident edges must use both, a vertex with two
included edges excludes the rest, and an included edge may close a cycle
only when it completes the full tour.  Then the node is rejected when the
admissible graph is disconnected or has a cut vertex; a Hamilton cycle on
three or more vertices is 2-connected, and so is every spanning graph
containing it.

That last tier costs O(1) per excluded edge on a plane map.  Edges only
ever leave the admissible graph, so 2-connectivity, once lost, is never
regained, and it suffices to test each exclusion as it happens.  The root
checks the whole graph with one Tarjan low-link pass; after that, each
exclusion is judged by the faces beside the edge:

    **Lemma.** Let G be a 2-connected simple plane graph and xy an edge
    of G, with faces F1 and F2 on its two sides.  Then G - xy is
    2-connected iff F1 != F2 and F1, F2 share no vertex besides x and y.

    *Proof.* The faces of a 2-connected plane graph are bounded by
    cycles (Diestel, *Graph Theory*, Prop. 4.2.6), so F1 != F2 always
    holds, and removing xy from the two boundary cycles leaves two x-y
    paths P1 and P2 in G - xy; the face of G - xy that replaces F1 and
    F2 has boundary walk P1 followed by P2 reversed.  Let c be a cut
    vertex of G - xy.  It is not x or y, since G - xy - x = G - x is
    connected, and likewise for y.  G - c is connected, so xy joins two
    components of G - xy - c: c separates x from y in G - xy.  If P1 and
    P2 share no vertex besides x and y, one of them avoids c, which is a
    contradiction; so G - xy is 2-connected.  Conversely, if w != x, y
    lies on both P1 and P2, the boundary walk of the merged face visits
    w twice, once between x and y on each side.  A closed curve through
    the face that touches the drawing only at w separates the part of
    the walk through x from the part through y, so every x-y path of
    G - xy passes through w, which is a cut vertex.  QED.

So the faces are built once, kept in a union-find by vertex-set size
without path compression, with one vertex set per root.  Excluding xy
merges its two faces and rejects the node when they share a third
vertex.  That one test also rejects F1 = F2: the search graph is simple
and 2-connected, so each face, and each union of faces, holds three
vertices or more.  A node is therefore rejected exactly when a
Tarjan pass over the admissible graph would reject it, and the search
tree, the cycle and the expansion count do not depend on which test runs.
The lemma needs a plane embedding, so a map whose collapsed graph is not
plane (V - E + F != 2) keeps one Tarjan pass per node.

Branching extends the included path: it picks the path end with the
fewest admissible edges (lowest id on ties) and decides its
lowest-numbered undecided edge, inclusion first; before any edge is
included it decides the lowest undecided edge.  The path ends are kept in
a set that inclusions and undos update, so choosing costs nothing like a
scan of all vertices.  Identical inputs therefore yield identical cycles.
The decisions live on an explicit stack, so the search depth is not
bounded by Python's recursion limit.

Each decided edge e = ab leaves one trail entry (e, x, y), and undoing
it reads what was decided off ``state[e]``.  An exclusion gives a and b
back an admissible edge and, if it merged faces, splits face y off its
root x.  An inclusion lowers the included count and the included
degrees of a and b and, if it joined two paths, sets ``mate[x], mate[y]
= a, b``: before the join, x = mate[a] was the far end of a's path and
pointed back to a (or was a itself, when a was isolated), likewise y
for b, and the join changed no other mate.  x = y = -1 marks an
inclusion that closed the tour, which changed no mate, and an exclusion
that merged no faces.

Finding Hamilton cycles in arbitrary crossing-structure graphs is
NP-complete, hence the node-expansion budget; on 4-connected planar inputs
a cycle always exists and exhaustion would falsify the guarantee, which
callers treat as a hard failure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .maps import MapError, RotationMap

DEFAULT_BUDGET = 2_000_000

_UNDECIDED, _INCLUDED, _EXCLUDED = 0, 1, 2


class BudgetExceededError(MapError):
    """Search stopped after spending its node-expansion budget."""

    def __init__(self, expanded: int):
        super().__init__(f"search budget exhausted after {expanded} expansions")
        self.expanded = expanded


@dataclass(frozen=True)
class HamiltonCycle:
    """A cyclic vertex order visiting every vertex exactly once."""

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)


def verify_cycle(g: RotationMap, order: Sequence[int]) -> bool:
    """True iff order is a Hamilton cycle of g: a cycle of its collapsed
    simple graph, so on three or more vertices, as the search finds them."""
    n = g.vertex_count
    if n < 3 or len(order) != n or len(set(order)) != n:
        return False
    if any(not 0 <= v < n for v in order):
        return False
    adj = g.adjacency_sets
    return all(order[(i + 1) % n] in adj[order[i]] for i in range(n))


def _plane_faces(
    g: RotationMap, darts: Sequence[int]
) -> tuple[list[tuple[int, int]], list[set[int]]] | None:
    """The faces beside each search edge and every face's vertex set, or
    None when the search graph's rotation system is not a plane map.

    ``darts[i]`` is a dart of g on search edge i, one per edge of the
    connected simple graph that collapsing g's parallel edges and
    dropping its loops leaves, in which every vertex keeps an edge.  Its
    embedding is g's rotation restricted to those darts; on a simple map
    that is g itself.
    """
    if len(darts) == g.edge_count:
        sub, sub_darts = g, darts
    else:
        # darts are numbered vertex by vertex in rotation order, so the
        # kept ones in ascending order are the restricted rotation
        keep = sorted(x for d in darts for x in (d, g.twin(d)))
        index = {d: i for i, d in enumerate(keep)}
        degrees = [0] * g.vertex_count
        for d in keep:
            degrees[g.dart_vertex(d)] += 1
        sub = RotationMap(degrees, [index[g.twin(d)] for d in keep])
        sub_darts = [index[d] for d in darts]
    if sub.euler_characteristic != 2:
        return None
    face_of = sub.face_of
    sides = [(face_of[d], face_of[sub.twin(d)]) for d in sub_darts]
    return sides, [{sub.dart_vertex(d) for d in boundary} for boundary in sub.faces]


def find_hamilton(
    g: RotationMap, budget: int = DEFAULT_BUDGET
) -> HamiltonCycle | None:
    """A verified Hamilton cycle, or None when exhaustive search rules one out.

    Raises :class:`BudgetExceededError` when the budget runs out first, a
    distinct outcome from definitive exhaustion, and ValueError for a
    budget below 1, which allows no expansion.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    n = g.vertex_count

    # collapse parallel edges and drop loops, ordered by canonical dart
    edges: list[tuple[int, int]] = []
    darts: list[int] = []
    seen: set[tuple[int, int]] = set()
    for d in g.edges():
        a, b = g.edge_endpoints(d)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            edges.append(key)
            darts.append(d)
    m = len(edges)
    # (neighbour, edge) pairs at each vertex, in edge order
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ei, (a, b) in enumerate(edges):
        incident[a].append((b, ei))
        incident[b].append((a, ei))
    if any(len(incident[v]) < 2 for v in range(n)):
        return None

    state = [_UNDECIDED] * m
    deg_inc = [0] * n
    deg_adm = [len(incident[v]) for v in range(n)]
    mate = list(range(n))  # opposite end of the included path at each endpoint
    ends: set[int] = set()  # the vertices with exactly one included edge
    included = 0
    # plane maps: faces beside each edge, and per face a union-find parent
    # and, at roots, the merged face's vertex set
    sides: list[tuple[int, int]] | None = None
    face_up: list[int] = []
    face_verts: list[set[int]] = []

    # one entry (e, x, y) per decided edge e, as the module docstring says
    trail: list[tuple[int, int, int]] = []
    pending: deque[tuple[bool, int]] = deque()

    def include(e: int) -> bool:
        nonlocal included
        if state[e] != _UNDECIDED:
            return state[e] == _INCLUDED
        a, b = edges[e]
        if deg_inc[a] == 2 or deg_inc[b] == 2:
            return False
        ea, eb = mate[a], mate[b]
        if ea == b:
            if included + 1 != n:
                return False  # would close a short cycle
            trail.append((e, -1, -1))
        else:
            trail.append((e, ea, eb))
            mate[ea], mate[eb] = eb, ea
        state[e] = _INCLUDED
        included += 1
        for x in (a, b):
            deg_inc[x] += 1
            if deg_inc[x] == 1:
                ends.add(x)
            else:  # x is full: exclude its other edges
                ends.discard(x)
                for _, other in incident[x]:
                    if state[other] == _UNDECIDED:
                        pending.append((False, other))
        return True

    def exclude(e: int) -> bool:
        """Exclude e; False when an end keeps fewer than two admissible
        edges or, on a plane map, a cut vertex appears (the lemma above)."""
        if state[e] != _UNDECIDED:
            return state[e] == _EXCLUDED
        trail.append((e, -1, -1))
        state[e] = _EXCLUDED
        a, b = edges[e]
        deg_adm[a] -= 1
        deg_adm[b] -= 1
        if deg_adm[a] < 2 or deg_adm[b] < 2:
            return False
        for x in (a, b):
            if deg_adm[x] == 2:
                for _, other in incident[x]:
                    if state[other] == _UNDECIDED:
                        pending.append((True, other))
        if sides is None:
            return True
        f, h = sides[e]
        while face_up[f] != f:
            f = face_up[f]
        while face_up[h] != h:
            h = face_up[h]
        if len(face_verts[f]) < len(face_verts[h]):
            f, h = h, f
        # both faces hold e's ends, so any third common vertex is a cut;
        # f == h shares the whole face, which holds three vertices or more
        if len(face_verts[f] & face_verts[h]) > 2:
            return False
        trail[-1] = (e, f, h)
        face_up[h] = f
        face_verts[f] |= face_verts[h]
        return True

    def propagate() -> bool:
        while pending:
            want_in, e = pending.popleft()
            ok = include(e) if want_in else exclude(e)
            if not ok:
                pending.clear()
                return False
        return True

    def undo(mark: int) -> None:
        """Undecide the edges decided since the trail held mark entries,
        reading each one's decision off ``state``."""
        nonlocal included
        while len(trail) > mark:
            e, x, y = trail.pop()
            a, b = edges[e]
            if state[e] == _INCLUDED:
                included -= 1
                for v in (a, b):
                    deg_inc[v] -= 1
                    if deg_inc[v] == 1:
                        ends.add(v)
                    else:
                        ends.discard(v)
                if x >= 0:
                    mate[x], mate[y] = a, b
            else:
                deg_adm[a] += 1
                deg_adm[b] += 1
                if x >= 0:
                    face_up[y] = y
                    face_verts[x] -= face_verts[y]
                    face_verts[x].update((a, b))
            state[e] = _UNDECIDED

    def no_cut_vertex() -> bool:
        """One iterative Tarjan low-link pass over the admissible graph:
        True iff it is connected and has no cut vertex."""
        disc = [0] * n  # DFS discovery time, 0 while unvisited
        low = [0] * n
        nxt = [0] * n  # next position in incident[x] to scan
        parent = [-1] * n
        disc[0] = low[0] = clock = 1
        root_children = 0
        path = [0]
        while path:
            x = path[-1]
            row = incident[x]
            i = nxt[x]
            while i < len(row):
                y, ei = row[i]
                i += 1
                if state[ei] == _EXCLUDED:
                    continue
                if disc[y] == 0:
                    clock += 1
                    disc[y] = low[y] = clock
                    parent[y] = x
                    if x == 0:
                        root_children += 1
                        if root_children > 1:
                            return False
                    path.append(y)
                    break
                if y != parent[x] and disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                path.pop()
                p = parent[x]
                if p > 0 and low[x] >= disc[p]:
                    return False  # removing p separates x's subtree
                if p >= 0 and low[x] < low[p]:
                    low[p] = low[x]
            nxt[x] = i
        return clock == n

    def choose_branch() -> int | None:
        """The lowest undecided edge at the path end with the fewest
        admissible edges (lowest id on ties), or the lowest undecided edge
        overall while nothing is included."""
        if ends:
            _, end = min((deg_adm[v], v) for v in ends)
            pool = (e for _, e in incident[end])
        else:
            pool = range(m)
        return next((e for e in pool if state[e] == _UNDECIDED), None)

    # decisions on the current search path: (edge, trail mark, included?)
    stack: list[tuple[int, int, bool]] = []

    def decide(want_in: bool, e: int) -> bool:
        """Decide e and propagate, or undo it all and answer False; on a
        plane map the exclusions have tested 2-connectivity already."""
        mark = len(trail)
        pending.clear()
        pending.append((want_in, e))
        if propagate() and (sides is not None or no_cut_vertex()):
            stack.append((e, mark, want_in))
            return True
        undo(mark)
        return False

    # the root: the whole graph must be 2-connected, which also makes it
    # connected, as the Euler check on its faces needs
    if not no_cut_vertex():
        return None
    faces = _plane_faces(g, darts)
    if faces is not None:
        sides, face_verts = faces
        face_up = list(range(len(face_verts)))
    for v in range(n):
        if deg_adm[v] == 2:
            for _, e in incident[v]:
                pending.append((True, e))
    if not propagate() or sides is None and not no_cut_vertex():
        return None
    expansions = 0
    while True:  # one search node per iteration
        expansions += 1
        if expansions > budget:
            raise BudgetExceededError(expansions - 1)
        if included == n:
            break
        branch = choose_branch()
        if branch is None or not (decide(True, branch) or decide(False, branch)):
            # backtrack to the latest inclusion and exclude its edge instead
            while True:
                if not stack:
                    return None
                e, mark, was_in = stack.pop()
                undo(mark)
                if was_in and decide(False, e):
                    break

    # walk the included edges from vertex 0, towards its lower neighbour first
    order = [0, min(y for y, e in incident[0] if state[e] == _INCLUDED)]
    while len(order) < n:
        prev, x = order[-2], order[-1]
        order.append(next(y for y, e in incident[x] if state[e] == _INCLUDED and y != prev))
    cycle = HamiltonCycle(tuple(order))
    if not verify_cycle(g, cycle.order):
        raise AssertionError("search produced an invalid cycle")
    return cycle
