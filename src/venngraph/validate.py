"""Checks for the defining properties of curve-arrangement graphs.

An arrangement qualifies as a V-graph when it has at least three curves,
is connected, lies in general position (simple closed curves, transverse
crossings, two curves per crossing, plane embedding), and satisfies unique
face incidence: no curve contributes more than one boundary edge to any
face.  :func:`validate` decides that and nothing more, in O(V).

A simple Venn diagram additionally realises every interior/exterior
combination of its n curves in exactly one of its 2^n regions.  That
census is :func:`venn_check`'s alone, and it stays O(F): the labels
missing from it are listed only when 2^n <= F, since past that there are
too many to list.  Faces met by exactly two curves are :func:`two_faces`'s.

Self-crossings are read off curve ids alone, by
:attr:`PlaneGraph.self_crossings <venngraph.maps.PlaneGraph.self_crossings>`,
which this lemma backs.  Lemma: in a :class:`~venngraph.maps.PlaneGraph`,
a curve orbit visits vertex v twice exactly when
``curve_of[4v] == curve_of[4v + 1]``.  Proof:

- Write f(d) = twin(d) ^ 2 for the step along a curve.  If e = f(d) then
  f(e ^ 2) = twin(twin(d)) ^ 2 = d ^ 2, so the orbit of d ^ 2 is the
  orbit of d reversed, dart by dart under d -> d ^ 2.  The two share a
  curve id, and so do the darts 4v and 4v + 2, and 4v + 1 and 4v + 3.
- If both pairs at v carry curve c, then the orbit kept for c holds 4v
  or 4v + 2, and 4v + 1 or 4v + 3: it visits v twice.
- Conversely, an orbit O that visits v twice holds either one dart of
  each pair, and then both pairs carry its id, or d and d ^ 2 but no dart
  of the other pair.  In the second case O and its reversal share d, so
  they are one orbit, and d -> d ^ 2 reverses the cyclic order of O
  without fixing any dart.  A fixed-point-free reflection of a cycle
  maps some dart e to its successor: e ^ 2 = f(e) = twin(e) ^ 2, so
  twin(e) = e, which a rotation map never allows.

So the self-crossing vertices and the vertices where one curve crosses
itself are the same set, found in O(V).

Region labels need the map to be plane, which this lemma backs.  Lemma:
if :func:`venn_check`'s labels disagree across some edge, the map is not
plane, whatever its connectivity.  Proof:

- A disagreement closes a walk through the faces of the root face's
  component, each step crossing one edge, whose crossings toggle a
  nonzero set of curve bits.  Taken mod 2, the crossed edges form a
  cycle of the dual: every face is entered as often as it is left.
- If that component is plane, so is its dual, and the dual's cycles
  over GF(2) are spanned by its face boundaries.  A face of the dual is
  the walk round a single vertex v, which crosses the four edges at v,
  a loop at v twice.
- Darts 4v and 4v + 2 share a curve id, and so do 4v + 1 and 4v + 3
  (the first lemma), so the walk round v crosses each curve at v twice
  and toggles no bit.  Neither, then, does any sum of such walks.

So a plane component labels consistently, and a disagreement proves its
component, and with it the map, not plane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import xor
from typing import NamedTuple

from .maps import DisconnectedError, NotPlaneError, PlaneGraph


class UfiViolation(NamedTuple):
    face: int
    curve: int
    count: int


@dataclass(frozen=True)
class GeneralPositionReport:
    """What the general-position verdict is read from.

    4-regularity and closedness of curves are structural (the dart
    representation cannot express anything else), so the checkable content
    is: no curve revisits a vertex, the two dart pairs at each vertex
    belong to distinct curves, and the embedding is genus zero.
    ``self_crossings`` are the vertices whose two dart pairs share a curve
    id, which are also the vertices a curve revisits (see the module
    docstring).
    """

    self_crossings: tuple[int, ...]
    is_planar: bool


@dataclass(frozen=True)
class VennReport:
    curve_count: int
    face_count: int
    labels: tuple[int, ...]
    distinct_labels: int
    missing_labels: tuple[int, ...] | None
    duplicated_labels: tuple[int, ...]
    is_simple_venn: bool


@dataclass(frozen=True)
class ValidationReport:
    is_general_position: bool
    is_connected: bool
    curve_count: int
    ufi_violations: tuple[UfiViolation, ...]
    is_vgraph: bool
    general_position: GeneralPositionReport


def check_ufi(g: PlaneGraph) -> tuple[UfiViolation, ...]:
    """Per-face, per-curve boundary-edge counts of two or more.

    Every dart lies on one face and one curve, so UFI holds exactly when
    no two darts share a (face, curve) pair; the pairs are counted only
    when some do, keyed ``face * n + curve``, and only the repeated keys
    are sorted.
    """
    if len(_face_curve_pairs(g)) == g.dart_count:
        return ()
    n = len(g.curve_first)
    counts = Counter(f * n + c for f, c in zip(g.face_of, g.curve_of))
    repeats = sorted(key for key, k in counts.items() if k >= 2)
    return tuple(UfiViolation(*divmod(key, n), counts[key]) for key in repeats)


def _face_curve_pairs(g: PlaneGraph) -> set[int]:
    """The (face, curve) pairs of all darts, each as face * n + curve."""
    n = len(g.curve_first)
    return {f * n + c for f, c in zip(g.face_of, g.curve_of)}


def two_faces(g: PlaneGraph) -> tuple[int, ...]:
    """Faces incident to exactly two curves (not merely the digons)."""
    n = len(g.curve_first)
    curves_at = Counter(key // n for key in _face_curve_pairs(g))
    return tuple(f for f in range(len(g.face_first)) if curves_at[f] == 2)


def venn_check(g: PlaneGraph) -> VennReport:
    """Label every region with its curve-membership bit vector.

    Crossing an edge of curve c toggles bit c, so labels are propagated by
    breadth-first search over face adjacency from face 0 and are well
    defined up to one global XOR offset (the unknown label of face 0).  For
    reporting, the offset is normalised so the most frequent label becomes
    zero (smallest such label on ties); a diagram has all labels distinct,
    which makes the normalisation the identity on its own output.

    ``missing_labels`` lists the absent labels when 2^n <= F and is None
    otherwise, when at least 2^n - F labels are absent; every field costs
    O(F).  A map whose curve crosses itself is never a simple diagram.

    A disagreement proves the map not plane (the module docstring's
    second lemma) and raises :class:`NotPlaneError`; else a disconnected
    map, in which the search misses a face, raises :class:`DisconnectedError`.
    """
    n = len(g.curve_first)
    curve_of, face_next, first = g.curve_of, g.face_next, g.face_first
    across = list(map(g.face_of.__getitem__, g._twin))
    bit = list(map((1).__lshift__, curve_of))
    labels: list[int | None] = [None] * len(first)
    labels[0] = 0
    queue = [0]
    for f in queue:
        here = labels[f]
        d = d0 = first[f]
        while True:
            other = across[d]
            lab = here ^ bit[d]
            seen = labels[other]
            if seen is None:
                labels[other] = lab
                queue.append(other)
            elif seen != lab:
                raise NotPlaneError(
                    f"faces {f} and {other} disagree across curve {curve_of[d]}"
                )
            d = face_next[d]
            if d == d0:
                break
    if len(queue) < len(first):
        raise DisconnectedError("region labels need a connected arrangement")
    counts = Counter(labels)
    top = max(counts.values())
    offset = min(lab for lab, c in counts.items() if c == top)
    norm = tuple(map(xor, labels, repeat(offset)))
    present = Counter(norm)
    missing = None
    if (1 << n) <= len(first):
        missing = tuple(x for x in range(1 << n) if x not in present)
    duplicated = tuple(sorted(x for x, c in present.items() if c > 1))
    is_simple = (len(first) == (1 << n) and len(present) == len(first)
                 and not g.self_crossings)
    return VennReport(
        curve_count=n,
        face_count=len(first),
        labels=norm,
        distinct_labels=len(present),
        missing_labels=missing,
        duplicated_labels=duplicated,
        is_simple_venn=is_simple,
    )


def validate(g: PlaneGraph) -> ValidationReport:
    """Decide whether g is a V-graph; total on any built graph, O(V)."""
    gp = GeneralPositionReport(g.self_crossings, g.is_planar)
    general = not gp.self_crossings and gp.is_planar
    connected = g.is_connected
    n = len(g.curve_first)
    ufi = check_ufi(g)
    return ValidationReport(
        is_general_position=general,
        is_connected=connected,
        curve_count=n,
        ufi_violations=ufi,
        is_vgraph=general and connected and n >= 3 and not ufi,
        general_position=gp,
    )
