"""Dart-based combinatorial maps for plane arrangements of closed curves.

A collection of simple closed curves crossing transversally induces a
4-regular plane multigraph: vertices are the crossings, edges are the curve
segments between them.  The embedding is stored purely combinatorially as a
rotation system.  Every vertex of degree k owns k *darts* (edge ends)
numbered counterclockwise, and an involution ``twin`` pairs the two darts of
each edge.  Faces and curves are orbits of permutations composed from
``twin`` and the rotation, each walked by the same orbit loop over a
successor table, so the whole structure lives in one int table.

Darts are plain ints.  For the 4-regular :class:`PlaneGraph`, the dart of
vertex ``v`` in rotation slot ``s`` (0..3) is ``4 * v + s``.

Maps are immutable once constructed; faces, curves and adjacency are
derived lazily and cached, so instances are safe to share across
concurrent readers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence


class MapError(Exception):
    """Base class for combinatorial-map errors."""


class BadSlotError(MapError):
    """A dart reference is out of range or malformed."""


class SelfTwinError(MapError):
    """The twin table maps a dart to itself."""


class NonInvolutiveTwinError(MapError):
    """twin(twin(d)) != d for some dart d."""


class SelfCrossingCurveError(MapError):
    """A recovered curve passes through the same vertex twice."""


class SameCurveCrossingError(MapError):
    """Both straight-through dart pairs at a vertex belong to one curve.

    Such a curve revisits the vertex, so graphs raise
    :class:`SelfCrossingCurveError` for it; the class stays exported."""


class DisconnectedError(MapError):
    """Operation requires a connected graph."""


def _orbits(succ: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The cycles of the permutation ``succ`` of its indices, each from its
    smallest element and in order of that element, and the cycle id of
    every element."""
    orbit_of = [-1] * len(succ)
    orbits: list[tuple[int, ...]] = []
    for d0 in range(len(succ)):
        if orbit_of[d0] >= 0:
            continue
        oid = len(orbits)
        orbit = []
        d = d0
        while orbit_of[d] < 0:
            orbit_of[d] = oid
            orbit.append(d)
            d = succ[d]
        orbits.append(tuple(orbit))
    return tuple(orbits), tuple(orbit_of)


@dataclass(frozen=True)
class Face:
    """One face of the embedding: an orbit of ``rot(twin(d))``.

    ``boundary`` lists the orbit's darts starting from the smallest one;
    consecutive darts are consecutive directed boundary edges.
    """

    id: int
    boundary: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)


@dataclass(frozen=True)
class Curve:
    """One closed curve, as the canonically oriented orbit of
    :meth:`PlaneGraph.curve_next`.

    Of the two orientation orbits of each curve, the one containing the
    smallest dart is kept.  The orbit has one dart per edge of the curve.
    """

    id: int
    darts: tuple[int, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(d >> 2 for d in self.darts)

    @property
    def edge_count(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class CurveIndex:
    """Where every vertex sits on its curves and faces, built in O(V).

    Paths that follow a curve or a face boundary can then be named by
    positions instead of walked.  Positions refer to the canonical
    orientation of each curve (:class:`Curve`) and to each face's
    boundary order (:class:`Face`).

    - ``curve_vertices[c]``: curve c's vertices in curve order;
    - ``position[d]``: the position of dart d's vertex on d's curve;
    - ``step[d]``: +1 if d leaves its vertex in curve order, else -1;
    - ``crossings[a, b]``: the sorted positions on curve a of the
      vertices where it crosses curve b (absent when they never cross);
    - ``face_vertices[f]``: face f's vertices in boundary order;
    - ``face_position[d]``: d's index in its face's boundary.

    The curve and face of a dart are :attr:`PlaneGraph.curve_of` and
    :attr:`RotationMap.face_of`.
    """

    curve_vertices: tuple[tuple[int, ...], ...]
    position: tuple[int, ...]
    step: tuple[int, ...]
    crossings: Mapping[tuple[int, int], tuple[int, ...]]
    face_vertices: tuple[tuple[int, ...], ...]
    face_position: tuple[int, ...]


class RotationMap:
    """Immutable rotation system with arbitrary vertex degrees.

    Used directly for planar duals (whose vertices inherit the primal face
    degrees); the 4-regular specialisation is :class:`PlaneGraph`.
    """

    def __init__(self, degrees: Sequence[int], twin: Sequence[int]):
        degrees = tuple(int(x) for x in degrees)
        if not degrees:
            raise BadSlotError("a map needs at least one vertex")
        if any(x <= 0 for x in degrees):
            raise BadSlotError("every vertex needs positive degree")
        offsets = [0]
        for x in degrees:
            offsets.append(offsets[-1] + x)
        n_darts = offsets[-1]
        twin = tuple(int(x) for x in twin)
        if len(twin) != n_darts:
            raise BadSlotError(
                f"twin table has {len(twin)} entries, expected {n_darts}"
            )
        vertex_of = [0] * n_darts
        for v, deg in enumerate(degrees):
            for d in range(offsets[v], offsets[v + 1]):
                vertex_of[d] = v
        for d, t in enumerate(twin):
            if not 0 <= t < n_darts:
                raise BadSlotError(f"twin({d}) = {t} is out of range")
            if t == d:
                raise SelfTwinError(f"twin({d}) = {d}")
            if twin[t] != d:
                raise NonInvolutiveTwinError(
                    f"twin({t}) = {twin[t]}, expected {d}"
                )
        self._degrees = degrees
        self._offsets = tuple(offsets)
        self._twin = twin
        self._vertex_of = tuple(vertex_of)

    # -- dart primitives ------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._degrees)

    @property
    def dart_count(self) -> int:
        return len(self._twin)

    @property
    def edge_count(self) -> int:
        return len(self._twin) // 2

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def dart(self, v: int, s: int) -> int:
        if not 0 <= s < self._degrees[v]:
            raise BadSlotError(f"vertex {v} has no slot {s}")
        return self._offsets[v] + s

    def dart_vertex(self, d: int) -> int:
        return self._vertex_of[d]

    def darts_of(self, v: int) -> range:
        return range(self._offsets[v], self._offsets[v + 1])

    def twin(self, d: int) -> int:
        return self._twin[d]

    def rot(self, d: int) -> int:
        """Next dart counterclockwise around the same vertex."""
        v = self._vertex_of[d]
        base = self._offsets[v]
        return base + (d - base + 1) % self._degrees[v]

    # -- edges ----------------------------------------------------------

    def edges(self) -> tuple[int, ...]:
        """Canonical darts, one per edge (the smaller dart of each pair)."""
        t = self._twin
        return tuple(d for d in range(len(t)) if d < t[d])

    def edge_of(self, d: int) -> int:
        return min(d, self._twin[d])

    def edge_endpoints(self, d: int) -> tuple[int, int]:
        return self._vertex_of[d], self._vertex_of[self._twin[d]]

    @cached_property
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets; parallel edges collapse, loops keep v in its own set."""
        sets: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for d, t in enumerate(self._twin):
            sets[self._vertex_of[d]].add(self._vertex_of[t])
        return tuple(frozenset(s) for s in sets)

    # -- faces ----------------------------------------------------------

    @cached_property
    def _face_data(self) -> tuple[tuple[Face, ...], tuple[int, ...]]:
        # after[d] = rot(d): d + 1, wrapping to the vertex's first dart
        after = list(range(1, self.dart_count + 1))
        offsets = self._offsets
        for base, end in zip(offsets, offsets[1:]):
            after[end - 1] = base
        orbits, face_of = _orbits([after[t] for t in self._twin])
        return tuple(Face(fid, o) for fid, o in enumerate(orbits)), face_of

    @property
    def faces(self) -> tuple[Face, ...]:
        return self._face_data[0]

    @property
    def face_of(self) -> tuple[int, ...]:
        """Face id per dart."""
        return self._face_data[1]

    def face_vertices(self, face: Face) -> tuple[int, ...]:
        return tuple(self._vertex_of[d] for d in face.boundary)

    # -- connectivity / Euler -------------------------------------------

    def reachable(
        self, sources: Iterable[int], blocked: Collection[int] = ()
    ) -> frozenset[int]:
        """Vertices reachable from ``sources`` without entering ``blocked``.

        Sources are included even when blocked; the search never passes
        through a blocked vertex.
        """
        adj = self.adjacency_sets
        seen = set(sources)
        queue = deque(seen)
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen and y not in blocked:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        comps = []
        for start in range(self.vertex_count):
            if start not in seen:
                comp = self.reachable((start,))
                seen |= comp
                comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    @property
    def euler_characteristic(self) -> int:
        """V - E + F; equals 2 exactly for connected genus-0 maps."""
        return self.vertex_count - self.edge_count + len(self.faces)

    @property
    def is_planar(self) -> bool:
        """True iff every connected component embeds in the sphere.

        Each face lies in one component, and component i of a rotation
        system satisfies V_i - E_i + F_i = 2 - 2g_i with genus g_i >= 0.
        Summed over c components, V - E + F = 2c - 2(g_1 + ... + g_c),
        which is 2c exactly when every component has genus zero.
        """
        return self.euler_characteristic == 2 * len(self.components)

    # -- distance-2 structure --------------------------------------------

    def distance2_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """All (u, z, v) with u < v non-adjacent and z adjacent to both.

        Each unordered pair {u, v} appears once per witnessing z.
        """
        adj = self.adjacency_sets
        out = []
        for z in range(self.vertex_count):
            around = sorted(adj[z] - {z})
            for i, u in enumerate(around):
                for v in around[i + 1:]:
                    if v not in adj[u]:
                        out.append((u, z, v))
        out.sort(key=lambda t: (t[0], t[2], t[1]))
        return tuple(out)


class PlaneGraph(RotationMap):
    """4-regular rotation system of a curve arrangement.

    ``twin`` is a sequence of ``4 * vertex_count`` dart ints; dart
    ``4 * v + s`` is vertex v's slot-s edge end, slots counterclockwise.
    Slots s and s+2 continue the same curve straight through the crossing.

    Optional ``coords`` (vertex -> (x, y), for every vertex or none) and
    ``outer_dart`` are rendering metadata only; no combinatorial operation
    reads them.
    """

    def __init__(
        self,
        vertex_count: int,
        twin: Sequence[int],
        coords: Mapping[int, tuple[float, float]] | None = None,
        outer_dart: int | None = None,
    ):
        if vertex_count < 1:
            raise BadSlotError("vertex_count must be at least 1")
        super().__init__((4,) * vertex_count, twin)
        if coords is not None:
            bad = [v for v in coords if not 0 <= v < vertex_count]
            if bad:
                raise BadSlotError(f"coordinates for unknown vertex {bad[0]}")
            if coords and len(coords) < vertex_count:
                missing = next(v for v in range(vertex_count) if v not in coords)
                raise MapError(f"no coordinates for vertex {missing}; give all or none")
        if outer_dart is not None and not 0 <= outer_dart < 4 * vertex_count:
            raise BadSlotError(f"outer dart {outer_dart} out of range")
        self.coords = dict(coords) if coords else None
        self.outer_dart = outer_dart

    def curve_next(self, d: int) -> int:
        """Successor of d along its curve: cross the edge, continue straight."""
        return self._twin[d] ^ 2

    # -- curve recovery ---------------------------------------------------

    @cached_property
    def curve_orbit_data(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Raw orbits of ``curve_next`` and the orbit id of every dart.

        Purely structural: no simplicity or transversality checks, so
        validators can inspect degenerate inputs without tripping the
        exceptions that :attr:`curves` raises.
        """
        return _orbits([t ^ 2 for t in self._twin])

    @cached_property
    def curve_of(self) -> tuple[int, ...]:
        """Curve id per dart, defined on every map and never raising.

        The two orientation orbits of a curve (the orbit of ``d ^ 2`` is
        the orbit of ``d`` reversed) share an id, and ids are numbered in
        order of each curve's smallest dart.  A curve that revisits a
        vertex simply carries its id on both dart pairs there
        (:attr:`self_crossings`).
        """
        orbits, orbit_of = self.curve_orbit_data
        curve_of = [-1] * self.dart_count
        cid = 0
        for orbit in orbits:
            if curve_of[orbit[0]] < 0:
                for d in orbit + orbits[orbit_of[orbit[0] ^ 2]]:
                    curve_of[d] = cid
                cid += 1
        return tuple(curve_of)

    @cached_property
    def self_crossings(self) -> tuple[int, ...]:
        """The vertices some curve revisits, ascending: those whose two
        dart pairs carry one curve id (proof in the
        :mod:`venngraph.validate` docstring).  This one test also covers
        two pairs of one curve crossing at a vertex."""
        curve_of = self.curve_of
        return tuple(
            v for v, (a, b) in enumerate(zip(curve_of[0::4], curve_of[1::4])) if a == b
        )

    @cached_property
    def curves(self) -> tuple[Curve, ...]:
        """The recovered curves, one per orientation-orbit pair, in id order.

        Raises :class:`SelfCrossingCurveError`, at the smallest vertex a
        curve revisits, when the arrangement is not a family of simple
        closed curves in general position.
        :class:`SameCurveCrossingError` is kept for callers that catch
        it, but no graph raises it: a curve whose two dart pairs cross at
        a vertex revisits that vertex.
        """
        if self.self_crossings:
            raise SelfCrossingCurveError(
                f"curve revisits vertex {self.self_crossings[0]}; "
                "not a simple closed curve"
            )
        curve_of = self.curve_of
        curves: list[Curve] = []
        for orbit in self.curve_orbit_data[0]:
            # ids rise in orbit order, so each curve's first orbit is the
            # first one met carrying the next id
            if curve_of[orbit[0]] == len(curves):
                curves.append(Curve(len(curves), orbit))
        return tuple(curves)

    @cached_property
    def curve_index(self) -> CurveIndex:
        """Positions on curves and faces (see :class:`CurveIndex`).

        Raises :class:`SelfCrossingCurveError`, like :attr:`curves`, when
        the arrangement is not a family of simple closed curves in general
        position.
        """
        n = self.dart_count
        curve_of = self.curve_of
        position = [0] * n
        step = [0] * n
        crossings: dict[tuple[int, int], list[int]] = {}
        for curve in self.curves:
            for i, d in enumerate(curve.darts):
                position[d] = position[d ^ 2] = i
                step[d], step[d ^ 2] = 1, -1
                crossings.setdefault((curve.id, curve_of[d ^ 1]), []).append(i)
        face_position = [0] * n
        for face in self.faces:
            for i, d in enumerate(face.boundary):
                face_position[d] = i
        return CurveIndex(
            curve_vertices=tuple(c.vertices for c in self.curves),
            position=tuple(position),
            step=tuple(step),
            crossings={k: tuple(x) for k, x in crossings.items()},
            face_vertices=tuple(self.face_vertices(f) for f in self.faces),
            face_position=tuple(face_position),
        )

    def vertex_curves(self, v: int) -> tuple[int, int]:
        """The two curves crossing at v (slot parity 0, slot parity 1)."""
        c = self.curve_of
        return c[4 * v], c[4 * v + 1]
