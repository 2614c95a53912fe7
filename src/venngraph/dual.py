"""Planar duals and extension of a diagram by one new curve.

The dual has one vertex per face; its rotation at a face follows that
face's boundary order, so every dual dart crosses exactly one primal
dart.  A Hamilton cycle in the dual visits every region once, and
threading a new closed curve along it - entering and leaving each
region through one crossing apiece - turns an n-curve diagram realising
all 2^n regions into an (n+1)-curve diagram realising all 2^(n+1).
Whether a face order is such a cycle, and which primal edge each step
crosses, is read off the primal face table alone; the dual is built
only when a cycle has to be searched for.

The cycle is read off the diagram rather than searched for.  A curve C
with 2^(n-1) edges is *removable*: it splits every region of the other
curves exactly once (Winkler 1984; Chilakamarri, Hamburger and Pippert
1996).  A simple Venn diagram has unique face incidence, so each face
meets C in at most one edge, and the 2 * 2^(n-1) faces flanking C's
edges are all 2^n faces.  Walking the faces on C's right in curve order,
then those on its left in reverse, is a Hamilton cycle of the dual (the
prism C_m x K_2 lies in it): faces consecutive on one side share the
half-edge of the curve crossing C between them, and the two sides join
across C's first and last edges.  The curve added by
:func:`winkler_extend` crosses 2^n edges, so it is removable in the
result, and it has the highest curve id because its darts are the ones
on the appended vertices - which survive an ARR round trip - so the
next extension finds it first.
"""

from __future__ import annotations

import warnings
from itertools import chain
from typing import Sequence

from .hamilton import DEFAULT_BUDGET, find_hamilton
from .maps import MapError, PlaneGraph, RotationMap
from .validate import venn_check


class NotVennError(MapError):
    """Extension requires a diagram realising all 2^n regions exactly once."""


class DualNotHamiltonianError(MapError):
    """Exhaustive search found no Hamilton cycle in the dual.

    For diagrams with five or fewer curves this would overturn a verified
    result; it is surfaced loudly and never suppressed.
    """

    def __init__(self, curve_count: int):
        super().__init__(
            f"the dual of this {curve_count}-curve diagram has no Hamilton cycle"
        )
        self.curve_count = curve_count


def dual(g: PlaneGraph) -> RotationMap:
    """The planar dual as a rotation system: one vertex per face of g,
    with one dart per dart of its boundary.  Dual dart i crosses the
    i-th dart of :attr:`~venngraph.maps.RotationMap.faces`, read face
    after face, so the rotation at a face follows its boundary."""
    to_primal = list(chain.from_iterable(g.faces))
    to_dual = [0] * len(to_primal)
    for i, x in enumerate(to_primal):
        to_dual[x] = i
    return RotationMap(list(map(len, g.faces)), [to_dual[g._twin[x]] for x in to_primal])


def prism_order(g: PlaneGraph, c: int) -> list[int]:
    """The faces flanking curve ``c``: those on its right along its
    canonical orbit (:attr:`PlaneGraph.curves`), then those on its left in
    reverse.

    This is a Hamilton cycle of the dual exactly when the curve is
    removable in a simple Venn diagram (2^(n-1) edges); otherwise faces
    repeat or are missed, which :func:`_crossed_edges` reports.
    """
    face_of, darts = g.face_of, g.curves[c]
    right = [face_of[x] for x in darts]
    left = [face_of[g.twin(x)] for x in darts]
    return right + left[::-1]


def _crossed_edges(g: PlaneGraph, order: Sequence[int]) -> list[int] | None:
    """Per face of ``order``, the lowest primal edge it shares with the
    next face round the cycle, read off :attr:`~venngraph.maps.RotationMap.faces`.

    None unless ``order`` is a Hamilton cycle of the dual: every face
    exactly once, each sharing an edge with the next, the test that
    :func:`~venngraph.hamilton.verify_cycle` makes on ``dual(g)``.
    """
    faces, face_of, twin = g.faces, g.face_of, g._twin
    nf = len(faces)
    if len(order) != nf or set(order) != set(range(nf)):
        return None
    chosen = []
    for i, f in enumerate(order):
        after = order[(i + 1) % nf]
        shared = [min(x, twin[x]) for x in faces[f] if face_of[twin[x]] == after]
        if not shared:
            return None
        chosen.append(min(shared))
    return chosen


def winkler_extend(g: PlaneGraph, budget: int | None = None) -> PlaneGraph:
    """Add one curve along a Hamilton cycle of the dual.

    The cycle runs around the highest-id removable curve (one with
    2^(n-1) edges; see the module docstring for why it is a Hamilton
    cycle) and is always checked on the primal faces by
    :func:`_crossed_edges`.  When no curve is removable or the check
    fails, a :class:`RuntimeWarning` is issued and :func:`find_hamilton`
    searches :func:`dual` within ``budget`` instead;
    :class:`DualNotHamiltonianError` is raised if it proves no cycle
    exists.

    For each consecutive pair of regions on the cycle, the lowest shared
    primal edge is subdivided by a new crossing; consecutive crossings
    are joined by a new edge through the region they flank.  The chain
    of new edges is the added curve: it crosses each chosen edge
    transversally and splits every old region in two.  The output is
    re-validated before it is returned.
    """
    report = venn_check(g)
    if not report.is_simple_venn:
        raise NotVennError(
            f"{report.curve_count} curves but {report.distinct_labels} distinct "
            f"labels over {report.face_count} regions"
        )
    half = 1 << (report.curve_count - 1)
    curves = g.curves
    c = next((c for c in reversed(range(len(curves))) if len(curves[c]) == half), None)
    order = None if c is None else prism_order(g, c)
    chosen = None if order is None else _crossed_edges(g, order)
    if chosen is None:
        warnings.warn(
            f"no removable curve yields a dual Hamilton cycle of this "
            f"{report.curve_count}-curve diagram; searching the dual instead",
            RuntimeWarning,
            stacklevel=2,
        )
        cycle = find_hamilton(dual(g), budget=DEFAULT_BUDGET if budget is None else budget)
        if cycle is None:
            raise DualNotHamiltonianError(report.curve_count)
        order = cycle.order    # verified by the search, so never refused
        chosen = _crossed_edges(g, order)
    nf = len(order)
    v0 = g.vertex_count
    face_of = g.face_of

    twin = list(g._twin) + [-1] * (4 * nf)
    # own[i]: crossing i's new dart on the side of order[i]; its dart on
    # the side of order[i + 1] is own[i] ^ 2
    own = [0] * nf
    for i, e in enumerate(chosen):
        t = g.twin(e)
        x = 4 * (v0 + i)
        # subdivide: x sits in the middle of e; slots 0/2 continue the old
        # curve, slots 1/3 carry the new one.  Face orbits run with their
        # face on the right of each directed dart, so e's own face flanks
        # slot 3 and the twin's face flanks slot 1.
        twin[x + 0] = t
        twin[t] = x + 0
        twin[x + 2] = e
        twin[e] = x + 2
        own[i] = x + 3 if face_of[e] == order[i] else x + 1
    for i in range(nf):
        a, b = own[i - 1] ^ 2, own[i]
        twin[a] = b
        twin[b] = a

    out = PlaneGraph(v0 + nf, twin)
    check = venn_check(out)
    if not (check.is_simple_venn and check.curve_count == report.curve_count + 1):
        raise AssertionError("extension produced an invalid arrangement")
    return out
