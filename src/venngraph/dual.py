"""Planar duals and extension of a diagram by one new curve.

The dual has one vertex per face; its rotation at a face follows that
face's boundary order, so every dual dart corresponds to exactly one
primal dart (the crossing map).  A Hamilton cycle in the dual visits every
region once, and threading a new closed curve along it - entering and
leaving each region through one crossing apiece - turns an n-curve diagram
realising all 2^n regions into an (n+1)-curve diagram realising all
2^(n+1).

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

from .hamilton import find_hamilton, verify_cycle
from .maps import Curve, MapError, PlaneGraph, RotationMap
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


class DualGraph(RotationMap):
    """Rotation system over the faces of a primal plane graph.

    Vertex degrees equal primal face boundary lengths, so the degree-4
    constraint of :class:`PlaneGraph` is relaxed; the rotation-system
    algebra (twin involution, face orbits) is unchanged.  ``primal_dart``
    and ``dual_dart`` expose the crossing bijection between dual and
    primal darts (and hence between dual and primal edges).
    """

    def __init__(
        self,
        degrees: tuple[int, ...],
        twin: tuple[int, ...],
        primal: PlaneGraph,
        to_primal: tuple[int, ...],
    ):
        super().__init__(degrees, twin)
        self.primal = primal
        self._to_primal = to_primal
        to_dual = [-1] * len(to_primal)
        for dd, pd in enumerate(to_primal):
            to_dual[pd] = dd
        self._to_dual = tuple(to_dual)

    def primal_dart(self, dual_dart: int) -> int:
        return self._to_primal[dual_dart]

    def dual_dart(self, primal_dart: int) -> int:
        return self._to_dual[primal_dart]

    def crossing_edges(self) -> dict[int, int]:
        """Canonical dual edge dart -> canonical primal edge dart."""
        return {
            d: self.primal.edge_of(self._to_primal[d]) for d in self.edges()
        }


def dual(g: PlaneGraph) -> DualGraph:
    """The planar dual as a rotation system, with the crossing map attached."""
    faces = g.faces
    degrees = tuple(f.degree for f in faces)
    to_primal: list[int] = []
    for f in faces:
        to_primal.extend(f.boundary)
    to_dual = [-1] * g.dart_count
    for dd, pd in enumerate(to_primal):
        to_dual[pd] = dd
    twin = tuple(to_dual[g.twin(pd)] for pd in to_primal)
    return DualGraph(degrees, twin, g, tuple(to_primal))


def prism_order(g: PlaneGraph, curve: Curve) -> list[int]:
    """The faces flanking ``curve``: those on its right in curve order, then
    those on its left in reverse.

    This is a Hamilton cycle of the dual exactly when the curve is
    removable in a simple Venn diagram (2^(n-1) edges); otherwise faces
    repeat or are missed, which :func:`verify_cycle` reports.
    """
    face_of = g.face_of
    right = [face_of[x] for x in curve.darts]
    left = [face_of[g.twin(x)] for x in curve.darts]
    return right + left[::-1]


def winkler_extend(g: PlaneGraph, budget: int | None = None) -> PlaneGraph:
    """Add one curve along a Hamilton cycle of the dual.

    The cycle runs around the highest-id removable curve (one with
    2^(n-1) edges; see the module docstring for why it is a Hamilton
    cycle) and is always checked with :func:`verify_cycle`.  When no curve
    is removable or the check fails, a :class:`RuntimeWarning` is issued
    and :func:`find_hamilton` searches the dual within ``budget``
    instead; :class:`DualNotHamiltonianError` is raised if it proves no
    cycle exists.

    For each consecutive pair of regions on the cycle, the lowest shared
    primal edge is subdivided by a new crossing; consecutive crossings are
    joined by a new edge through the region they flank.  The chain of new
    edges is the added curve: it crosses each chosen edge transversally and
    splits every old region in two.  The output is re-validated before it
    is returned.
    """
    report = venn_check(g)
    if not report.is_simple_venn:
        raise NotVennError(
            f"{report.curve_count} curves but {report.distinct_labels} distinct "
            f"labels over {report.face_count} regions"
        )
    d = dual(g)
    half = 1 << (report.curve_count - 1)
    curve = next((c for c in reversed(g.curves) if c.edge_count == half), None)
    order = None if curve is None else prism_order(g, curve)
    if order is None or not verify_cycle(d, order):
        warnings.warn(
            f"no removable curve yields a dual Hamilton cycle of this "
            f"{report.curve_count}-curve diagram; searching the dual instead",
            RuntimeWarning,
            stacklevel=2,
        )
        kwargs = {} if budget is None else {"budget": budget}
        cycle = find_hamilton(d, **kwargs)
        if cycle is None:
            raise DualNotHamiltonianError(report.curve_count)
        order = cycle.order
    nf = len(order)
    v0 = g.vertex_count

    # shared primal edges per unordered face pair, lowest dart first
    shared: dict[tuple[int, int], list[int]] = {}
    face_of = g.face_of
    for e in g.edges():
        fa, fb = face_of[e], face_of[g.twin(e)]
        key = (fa, fb) if fa < fb else (fb, fa)
        shared.setdefault(key, []).append(e)
    chosen: list[int] = []
    for i in range(nf):
        fa, fb = order[i], order[(i + 1) % nf]
        key = (fa, fb) if fa < fb else (fb, fa)
        chosen.append(min(shared[key]))

    twin = list(g._twin) + [-1] * (4 * nf)
    side: dict[tuple[int, int], int] = {}  # (step, flanking face) -> new dart
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
        side[(i, face_of[e])] = x + 3
        side[(i, face_of[t])] = x + 1
    for i in range(nf):
        f = order[i]
        a = side[((i - 1) % nf, f)]
        b = side[(i, f)]
        twin[a] = b
        twin[b] = a

    out = PlaneGraph(v0 + nf, twin)
    check = venn_check(out)
    if not (check.is_simple_venn and check.curve_count == report.curve_count + 1):
        raise AssertionError("extension produced an invalid arrangement")
    return out
