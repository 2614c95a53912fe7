"""Dart-based combinatorial maps for plane arrangements of closed curves.

A collection of simple closed curves crossing transversally induces a
4-regular plane multigraph: vertices are the crossings, edges are the curve
segments between them.  The embedding is stored purely combinatorially as a
rotation system.  Every vertex of degree k owns k *darts* (edge ends)
numbered counterclockwise, and an involution ``twin`` pairs the two darts of
each edge.  Faces and curves are orbits of permutations composed from
``twin`` and the rotation.

Darts are plain ints.  For the 4-regular :class:`PlaneGraph`, the dart of
vertex ``v`` in rotation slot ``s`` (0..3) is ``4 * v + s``.

The derived structure is held as int tables, each filled by one pass:
the face successor of every dart, with each dart's face id and each
face's first dart; each dart's curve id and each curve's first dart;
and the connected components, by a search over the twin table.  The
checks in :mod:`venngraph.validate` read only these tables.  A face or
a curve is nothing more than its orbit, a tuple of darts:
:attr:`RotationMap.faces` and :attr:`PlaneGraph.curves` walk each orbit
from its first dart on first request, with the tables' numbering.
:attr:`PlaneGraph.curve_orbit_data` and :attr:`RotationMap.adjacency_sets`
are likewise built from the tables on first request.

Maps are immutable once constructed; everything derived is computed
lazily and cached, so instances are safe to share across concurrent
readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import isfinite
from operator import eq, index, itemgetter, xor
from typing import Collection, Iterable, Mapping, Sequence


class MapError(Exception):
    """Base class for combinatorial-map errors."""


class BadSlotError(MapError):
    """A dart reference is out of range or malformed."""


class SelfTwinError(MapError):
    """The twin table maps a dart to itself; ``dart`` names it."""

    def __init__(self, message: str, dart: int):
        super().__init__(message)
        self.dart = dart


class NonInvolutiveTwinError(MapError):
    """twin(twin(d)) != d for some dart d, named by ``dart``."""

    def __init__(self, message: str, dart: int):
        super().__init__(message)
        self.dart = dart


class SelfCrossingCurveError(MapError):
    """A recovered curve passes through the same vertex twice."""


class DisconnectedError(MapError):
    """Operation requires a connected graph."""


def _orbit_table(succ: Sequence[int]) -> tuple[list[int], list[int]]:
    """The cycle id of every element of the permutation ``succ`` of its
    indices, cycles numbered in order of their smallest elements, and
    that smallest element of each cycle."""
    orbit_of = [-1] * len(succ)
    first: list[int] = []
    for d0 in range(len(succ)):
        if orbit_of[d0] < 0:
            oid = len(first)
            first.append(d0)
            d = d0
            while orbit_of[d] < 0:
                orbit_of[d] = oid
                d = succ[d]
    return orbit_of, first


def _walk(succ: Sequence[int], d0: int) -> tuple[int, ...]:
    """The cycle of ``succ`` through ``d0``, starting there."""
    orbit = [d0]
    d = succ[d0]
    while d != d0:
        orbit.append(d)
        d = succ[d]
    return tuple(orbit)


@dataclass(frozen=True)
class CurveIndex:
    """Where every vertex sits on its curves and faces, built in O(V).

    Paths that follow a curve or a face boundary can then be named by
    positions instead of walked.  Positions refer to each curve's
    canonical orbit (:attr:`PlaneGraph.curves`) and to each face's
    boundary orbit (:attr:`RotationMap.faces`).

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
        degrees = tuple(map(int, degrees))
        if not degrees:
            raise BadSlotError("a map needs at least one vertex")
        if min(degrees) <= 0:
            raise BadSlotError("every vertex needs positive degree")
        offsets = tuple(accumulate(degrees, initial=0))
        n_darts = offsets[-1]
        twin = tuple(map(int, twin))
        if len(twin) != n_darts:
            raise BadSlotError(
                f"twin table has {len(twin)} entries, expected {n_darts}"
            )
        # whole-table tests first; the walk below only names the first bad dart
        ids = tuple(range(n_darts))
        if (min(twin) < 0 or max(twin) >= n_darts or any(map(eq, twin, ids))
                or itemgetter(*twin)(twin) != ids):
            for d, t in enumerate(twin):
                if not 0 <= t < n_darts:
                    raise BadSlotError(f"twin({d}) = {t} is out of range")
                if t == d:
                    raise SelfTwinError(f"twin({d}) = {d}", d)
                if twin[t] != d:
                    raise NonInvolutiveTwinError(
                        f"twin({t}) = {twin[t]}, expected {d}", d
                    )
        self._degrees = degrees
        self._offsets = offsets
        self._twin = twin

    # -- dart primitives ------------------------------------------------

    @cached_property
    def _vertex_of(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(repeat, range(len(self._degrees)), self._degrees)))

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
        nbr = list(map(self._vertex_of.__getitem__, self._twin))
        offsets = self._offsets
        return tuple(map(frozenset, map(nbr.__getitem__, map(slice, offsets, offsets[1:]))))

    # -- faces ----------------------------------------------------------

    @cached_property
    def _face_table(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        # after[d] = rot(d): d + 1, wrapping to the vertex's first dart
        after = list(range(1, self.dart_count + 1))
        offsets = self._offsets
        for base, end in zip(offsets, offsets[1:]):
            after[end - 1] = base
        succ = tuple(map(after.__getitem__, self._twin))
        face_of, first = _orbit_table(succ)
        return succ, tuple(face_of), tuple(first)

    @property
    def face_next(self) -> tuple[int, ...]:
        """Per dart, ``rot(twin(d))``: the next dart round d's face."""
        return self._face_table[0]

    @property
    def face_of(self) -> tuple[int, ...]:
        """Face id per dart, faces numbered in order of their smallest darts."""
        return self._face_table[1]

    @property
    def face_first(self) -> tuple[int, ...]:
        """Per face, its smallest dart, where its boundary starts."""
        return self._face_table[2]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Per face id, its darts in boundary order from its smallest one
        (:attr:`face_first`); consecutive darts are consecutive directed
        boundary edges."""
        succ = self.face_next
        return tuple(_walk(succ, d0) for d0 in self.face_first)

    # -- connectivity / Euler -------------------------------------------

    def _reach(self, found: list[int], seen: list[bool]) -> list[int]:
        """Extend ``found``, whose vertices are all marked in ``seen``, by
        every vertex reachable from them through unmarked vertices,
        marking each; the one search over the twin table."""
        twin, vertex_of, offsets = self._twin, self._vertex_of, self._offsets
        for x in found:
            for t in twin[offsets[x]:offsets[x + 1]]:
                y = vertex_of[t]
                if not seen[y]:
                    seen[y] = True
                    found.append(y)
        return found

    def reachable(
        self, sources: Iterable[int], blocked: Collection[int] = ()
    ) -> frozenset[int]:
        """Vertices reachable from ``sources`` without entering ``blocked``.

        Sources are included even when blocked; the search never passes
        through a blocked vertex.
        """
        n = self.vertex_count
        seen = [False] * n
        for x in blocked:
            if 0 <= x < n:
                seen[x] = True
        found = list(sources)
        for x in found:
            seen[x] = True
        return frozenset(self._reach(found, seen))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the connected components, each ascending, in
        order of their smallest vertices."""
        seen = [False] * self.vertex_count
        comps = []
        for start in range(self.vertex_count):
            if not seen[start]:
                seen[start] = True
                comps.append(tuple(sorted(self._reach([start], seen))))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    @property
    def euler_characteristic(self) -> int:
        """V - E + F; equals 2 exactly for connected genus-0 maps."""
        return self.vertex_count - self.edge_count + len(self.face_first)

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
    reads them.  Coordinates are stored as Python floats under int
    vertex ids; a key that :func:`operator.index` refuses, or a
    coordinate that does not convert to a finite float, raises
    :class:`MapError`.
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
            ids = []
            for v in coords:
                try:
                    ids.append(index(v))
                except TypeError:
                    raise MapError(f"coordinate key {v!r} is not an int vertex id") from None
            bad = [v for v in ids if not 0 <= v < vertex_count]
            if bad:
                raise BadSlotError(f"coordinates for unknown vertex {bad[0]}")
            present = set(ids)
            if ids and len(present) < vertex_count:
                missing = next(v for v in range(vertex_count) if v not in present)
                raise MapError(f"no coordinates for vertex {missing}; give all or none")
            try:
                coords = {v: (float(x), float(y)) for v, (x, y) in zip(ids, coords.values())}
            except (TypeError, ValueError):
                raise MapError("coordinates must be pairs of numbers") from None
            bad = next((v for v, xy in coords.items() if not all(map(isfinite, xy))), None)
            if bad is not None:
                raise MapError(f"coordinates of vertex {bad} are not finite")
        if outer_dart is not None and not 0 <= outer_dart < 4 * vertex_count:
            raise BadSlotError(f"outer dart {outer_dart} out of range")
        self.coords = coords or None
        self.outer_dart = outer_dart

    def curve_next(self, d: int) -> int:
        """Successor of d along its curve: cross the edge, continue straight."""
        return self._twin[d] ^ 2

    # -- curve recovery ---------------------------------------------------

    @cached_property
    def _curve_table(self) -> tuple[tuple[int, ...], ...]:
        succ = tuple(map(xor, self._twin, repeat(2)))
        orbit_of, orbit_first = _orbit_table(succ)
        # the orbit of d ^ 2 is the orbit of d reversed (see the
        # venngraph.validate docstring); one id covers both, and ids rise
        # with each curve's smallest dart, which starts its first orbit
        curve_of_orbit = [-1] * len(orbit_first)
        curve_first: list[int] = []
        for oid, d0 in enumerate(orbit_first):
            if curve_of_orbit[oid] < 0:
                curve_of_orbit[oid] = curve_of_orbit[orbit_of[d0 ^ 2]] = len(curve_first)
                curve_first.append(d0)
        curve_of = tuple(map(curve_of_orbit.__getitem__, orbit_of))
        return succ, tuple(orbit_of), tuple(orbit_first), curve_of, tuple(curve_first)

    @cached_property
    def curve_orbit_data(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Raw orbits of ``curve_next`` and the orbit id of every dart.

        Purely structural: no simplicity or transversality checks, so
        validators can inspect degenerate inputs without tripping the
        exceptions that :attr:`curves` raises.
        """
        succ, orbit_of, orbit_first = self._curve_table[:3]
        return tuple(_walk(succ, d0) for d0 in orbit_first), orbit_of

    @property
    def curve_of(self) -> tuple[int, ...]:
        """Curve id per dart, defined on every map and never raising.

        The two orientation orbits of a curve (the orbit of ``d ^ 2`` is
        the orbit of ``d`` reversed) share an id, and ids are numbered in
        order of each curve's smallest dart.  A curve that revisits a
        vertex simply carries its id on both dart pairs there
        (:attr:`self_crossings`).
        """
        return self._curve_table[3]

    @property
    def curve_first(self) -> tuple[int, ...]:
        """Per curve id, its smallest dart, where its canonical orbit starts."""
        return self._curve_table[4]

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
    def curves(self) -> tuple[tuple[int, ...], ...]:
        """Per curve id, its canonical orbit of :meth:`curve_next`: of the
        curve's two orientation orbits, the one from its smallest dart
        (:attr:`curve_first`), one dart per edge.  Defined on every map
        and never raising; a curve that revisits a vertex is reported by
        :attr:`self_crossings` and refused by :attr:`curve_index`."""
        succ = self._curve_table[0]
        return tuple(_walk(succ, d0) for d0 in self.curve_first)

    @cached_property
    def curve_index(self) -> CurveIndex:
        """Positions on curves and faces (see :class:`CurveIndex`).

        Raises :class:`SelfCrossingCurveError`, at the smallest vertex a
        curve revisits, when the arrangement is not a family of simple
        closed curves in general position.
        """
        if self.self_crossings:
            raise SelfCrossingCurveError(
                f"curve revisits vertex {self.self_crossings[0]}; "
                "not a simple closed curve"
            )
        n = self.dart_count
        curve_of = self.curve_of
        position = [0] * n
        step = [0] * n
        crossings: dict[tuple[int, int], list[int]] = {}
        for c, darts in enumerate(self.curves):
            for i, d in enumerate(darts):
                position[d] = position[d ^ 2] = i
                step[d], step[d ^ 2] = 1, -1
                crossings.setdefault((c, curve_of[d ^ 1]), []).append(i)
        face_position = [0] * n
        for boundary in self.faces:
            for i, d in enumerate(boundary):
                face_position[d] = i
        return CurveIndex(
            curve_vertices=tuple(tuple(d >> 2 for d in darts) for darts in self.curves),
            position=tuple(position),
            step=tuple(step),
            crossings={k: tuple(x) for k, x in crossings.items()},
            face_vertices=tuple(tuple(d >> 2 for d in boundary) for boundary in self.faces),
            face_position=tuple(face_position),
        )

    def vertex_curves(self, v: int) -> tuple[int, int]:
        """The two curves crossing at v (slot parity 0, slot parity 1)."""
        c = self.curve_of
        return c[4 * v], c[4 * v + 1]
