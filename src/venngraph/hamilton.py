"""Hamilton cycles by deterministic backtracking over edge choices.

Each edge of the (parallel-collapsed) graph is included or excluded.
Three pruning tiers run after every decision.  Forced edges and
premature-subcycle rejection propagate to a fixpoint: a vertex with
exactly two admissible incident edges must use both, a vertex with two
included edges excludes the rest, and an included edge may close a cycle
only when it completes the full tour.  Then one Tarjan low-link pass
rejects the node when the admissible graph is disconnected or has a cut
vertex; a Hamilton cycle on three or more vertices is 2-connected, and so
is every spanning graph containing it.

Branching extends the included path: it picks the path end with the
fewest admissible edges (lowest id on ties) and decides its
lowest-numbered undecided edge, inclusion first; before any edge is
included it decides the lowest undecided edge.  Identical inputs
therefore yield identical cycles.  The decisions live on an explicit
stack, so the search depth is not bounded by Python's recursion limit.

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
    """True iff order is a Hamilton cycle of g."""
    n = g.vertex_count
    if len(order) != n or len(set(order)) != n:
        return False
    if any(not 0 <= v < n for v in order):
        return False
    adj = g.adjacency_sets
    return all(order[(i + 1) % n] in adj[order[i]] for i in range(n))


def find_hamilton(
    g: RotationMap, budget: int = DEFAULT_BUDGET
) -> HamiltonCycle | None:
    """A verified Hamilton cycle, or None when exhaustive search rules one out.

    Raises :class:`BudgetExceededError` when the budget runs out first, a
    distinct outcome from definitive exhaustion.
    """
    n = g.vertex_count
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")

    # collapse parallel edges and drop loops, ordered by canonical dart
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for d in g.edges():
        a, b = g.edge_endpoints(d)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            edges.append(key)
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
    included = 0

    # trail entries: (0, e, old_state) (1, v, old_mate) (2, v) inc-- (3, v) adm++ (4,) included--
    trail: list[tuple] = []
    pending: deque[tuple[bool, int]] = deque()

    def include(e: int) -> bool:
        nonlocal included
        if state[e] == _INCLUDED:
            return True
        if state[e] == _EXCLUDED:
            return False
        a, b = edges[e]
        if deg_inc[a] == 2 or deg_inc[b] == 2:
            return False
        ea, eb = mate[a], mate[b]
        if ea == b and included + 1 != n:
            return False  # would close a short cycle
        trail.append((0, e, _UNDECIDED))
        state[e] = _INCLUDED
        trail.append((4,))
        included += 1
        for x in (a, b):
            trail.append((2, x))
            deg_inc[x] += 1
        if ea != b:
            trail.append((1, ea, mate[ea]))
            mate[ea] = eb
            trail.append((1, eb, mate[eb]))
            mate[eb] = ea
        for x in (a, b):
            if deg_inc[x] == 2:
                for _, other in incident[x]:
                    if state[other] == _UNDECIDED:
                        pending.append((False, other))
        return True

    def exclude(e: int) -> bool:
        if state[e] == _EXCLUDED:
            return True
        if state[e] == _INCLUDED:
            return False
        trail.append((0, e, _UNDECIDED))
        state[e] = _EXCLUDED
        for x in edges[e]:
            trail.append((3, x))
            deg_adm[x] -= 1
            if deg_adm[x] < 2:
                return False
            if deg_adm[x] == 2:
                for _, other in incident[x]:
                    if state[other] == _UNDECIDED:
                        pending.append((True, other))
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
        nonlocal included
        while len(trail) > mark:
            entry = trail.pop()
            kind = entry[0]
            if kind == 0:
                state[entry[1]] = entry[2]
            elif kind == 1:
                mate[entry[1]] = entry[2]
            elif kind == 2:
                deg_inc[entry[1]] -= 1
            elif kind == 3:
                deg_adm[entry[1]] += 1
            else:
                included -= 1

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
        end = -1
        for v in range(n):
            if deg_inc[v] == 1 and (end < 0 or deg_adm[v] < deg_adm[end]):
                end = v
        pool = (e for _, e in incident[end]) if end >= 0 else range(m)
        return next((e for e in pool if state[e] == _UNDECIDED), None)

    # decisions on the current search path: (edge, trail mark, included?)
    stack: list[tuple[int, int, bool]] = []

    def decide(want_in: bool, e: int) -> bool:
        mark = len(trail)
        pending.clear()
        pending.append((want_in, e))
        if propagate() and no_cut_vertex():
            stack.append((e, mark, want_in))
            return True
        undo(mark)
        return False

    for v in range(n):
        if deg_adm[v] == 2:
            for _, e in incident[v]:
                pending.append((True, e))
    if not propagate() or not no_cut_vertex():
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

    cycle_adj: list[list[int]] = [[] for _ in range(n)]
    for ei, (a, b) in enumerate(edges):
        if state[ei] == _INCLUDED:
            cycle_adj[a].append(b)
            cycle_adj[b].append(a)
    order = [0, min(cycle_adj[0])]
    while len(order) < n:
        x, prev = order[-1], order[-2]
        order.append(cycle_adj[x][1] if cycle_adj[x][0] == prev else cycle_adj[x][0])
    cycle = HamiltonCycle(tuple(order))
    if not verify_cycle(g, cycle.order):
        raise AssertionError("search produced an invalid cycle")
    return cycle
