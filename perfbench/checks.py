"""Output checks: each returns None when an op's output is right, or a
one-line description of what is wrong.

The checks call the package's own parser, writer and verifiers through
names bound here at import, before any trace wrapper is installed, so
checking is never charged to a layer.  Where a check can be made without
the code under test (cut separation, label sets, XML structure), it is.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import deque

from venngraph.arrio import ArrSemanticError, ArrSyntaxError, parse_arr, write_arr
from venngraph.hamilton import verify_cycle
from venngraph.maps import MapError
from venngraph.validate import venn_check

SVG_NS = "{http://www.w3.org/2000/svg}"
ARR_ERRORS = (ArrSyntaxError, ArrSemanticError)


def unique_pairs(g) -> int:
    """Number of unordered distance-2 pairs, as certification counts them."""
    return len({(u, v) for u, _, v in g.distance2_pairs()})


def check_roundtrip(g, text: str) -> str | None:
    """``g`` was parsed from ``text``; writing it back must give ``text``."""
    return None if write_arr(g) == text else "write_arr(parse_arr(text)) differs from text"


def check_extension(text: str, n: int) -> str | None:
    """Output of the step n -> n+1: a simple (n+1)-Venn diagram with
    2^(n+1) - 2 crossings, written canonically."""
    try:
        g = parse_arr(text)
    except ARR_ERRORS as exc:
        return f"extension output does not parse: {exc}"
    if write_arr(g) != text:
        return "extension output does not round-trip"
    want = 2 ** (n + 1) - 2
    if g.vertex_count != want:
        return f"extension output has {g.vertex_count} crossings, want {want}"
    try:
        report = venn_check(g)
    except MapError as exc:
        return f"extension output fails venn_check: {exc}"
    if not report.is_simple_venn or report.curve_count != n + 1:
        return (f"extension output is not a simple {n + 1}-Venn diagram "
                f"({report.curve_count} curves, {report.distinct_labels} labels)")
    return None


def check_rejected(exc: Exception | None, want_class: str, want_line: int) -> str | None:
    """A corrupted text must raise ``want_class`` at ``want_line``."""
    if exc is None:
        return f"corrupted text parsed; expected {want_class} at line {want_line}"
    if type(exc).__name__ != want_class or exc.line != want_line:
        return (f"corrupted text raised {type(exc).__name__} at line {exc.line}; "
                f"expected {want_class} at line {want_line}")
    return None


def _line_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    return None


def check_cli_validate(rc: int, stdout: str) -> str | None:
    if rc != 0 or _line_value(stdout, "v-graph") != "yes":
        return f"validate: exit {rc}, v-graph {_line_value(stdout, 'v-graph')!r}"
    return None


def check_cli_venn(rc: int, stdout: str, n: int) -> str | None:
    regions = _line_value(stdout, "regions")
    if rc != 0 or _line_value(stdout, "simple-venn") != "yes" or regions != str(2 ** n):
        return f"venn-check: exit {rc}, regions {regions!r}"
    return None


def check_cli_certify(rc: int, stdout: str, g) -> str | None:
    """``certified: yes`` with one pair line and four path lines for each
    distance-2 pair."""
    if rc != 0 or _line_value(stdout, "certified") != "yes":
        return f"certify: exit {rc}, certified {_line_value(stdout, 'certified')!r}"
    want = unique_pairs(g)
    pairs = _line_value(stdout, "pairs")
    if pairs != str(want):
        return f"certify: {pairs} pairs, distance2_pairs gives {want}"
    lines = stdout.splitlines()
    pair_lines = sum(1 for x in lines if x.startswith("pair "))
    path_lines = sum(1 for x in lines if x.startswith("path: "))
    if pair_lines != want or path_lines != 4 * want:
        return f"certify: {pair_lines} pair and {path_lines} path lines for {want} pairs"
    return None


def check_cli_connectivity(rc: int, stdout: str) -> str | None:
    value = _line_value(stdout, "connectivity")
    if rc != 0 or value != "4":
        return f"connectivity: exit {rc}, connectivity {value!r}"
    return None


def check_cli_hamilton(rc: int, stdout: str, g) -> str | None:
    cycle = _line_value(stdout, "cycle")
    if rc != 0 or cycle is None:
        return f"hamilton: exit {rc}, no cycle printed"
    try:
        order = [int(x) for x in cycle.split()]
    except ValueError:
        return "hamilton: cycle is not a list of vertex ids"
    if not verify_cycle(g, order):
        return "hamilton: printed cycle is not a Hamilton cycle"
    return None


def check_svg(svg: str, g, n: int) -> str | None:
    """Well-formed XML, one ``<path>`` per edge, and the 2^n region labels
    each once."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"render: SVG is not XML: {exc}"
    paths = sum(1 for _ in root.iter(SVG_NS + "path"))
    if paths != g.edge_count:
        return f"render: {paths} <path> elements for {g.edge_count} edges"
    labels = [el.text for el in root.iter(SVG_NS + "text")
              if el.get("class") == "region-label"]
    want = {format(x, f"0{n}b") for x in range(2 ** n)}
    if len(labels) != 2 ** n or set(labels) != want:
        return f"render: {len(labels)} region labels, want the {2 ** n} {n}-bit labels"
    return None


def check_validate_report(report, curves: int, connected: bool) -> str | None:
    """``validate`` on a random input: connectivity agrees with the set-up's
    own search; a circle family (``curves`` > 0) is in general position,
    planar, with one curve per circle; the V-graph verdict, yes or no,
    equals its definition on the report's own fields."""
    if report.is_connected != connected:
        return f"validate: connected={report.is_connected}, expected {connected}"
    if curves and not (report.is_general_position
                       and report.general_position.is_planar
                       and report.curve_count == curves):
        return (f"validate: circle family of {curves} reported "
                f"general-position={report.is_general_position}, "
                f"curves={report.curve_count}")
    defined = (report.is_general_position and report.is_connected
               and report.curve_count >= 3 and not report.ufi_violations)
    if report.is_vgraph != defined:
        return f"validate: V-graph verdict {report.is_vgraph} contradicts its own report"
    return None


def _separates(g, cut: frozenset, u: int, v: int) -> bool:
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for d in g.darts_of(x):
            y = g.dart_vertex(g.twin(d))
            if y == v:
                return False
            if y not in cut and y not in seen:
                seen.add(y)
                queue.append(y)
    return True


def check_certification(result, exc: Exception | None, g, is_vgraph: bool) -> str | None:
    """``certify_distance_two(g, 4)`` on a random connected input.

    No distance-2 pairs must raise VacuousCertificationError; a V-graph
    must certify; a counterexample carries a flow below 4 and, when it has
    a cut, a cut of that size that separates the pair.
    """
    pairs = unique_pairs(g)
    if exc is not None:
        if type(exc).__name__ == "VacuousCertificationError" and pairs == 0:
            return None
        return f"certify raised {type(exc).__name__}: {exc}"
    if pairs == 0:
        return "certify returned a result with no distance-2 pairs"
    if result.certified:
        if result.pair_count != pairs or len(result.certificates) != pairs:
            return f"certify: {result.pair_count} pairs, distance2_pairs gives {pairs}"
        if any(len(cert.paths) != 4 for *_, cert in result.certificates):
            return "certify: a certificate does not hold four paths"
        return None
    if is_vgraph:
        return "certify: a V-graph failed to certify at k = 4"
    cx = result.counterexample
    if cx.flow >= 4:
        return f"certify: counterexample {cx.u},{cx.v} has flow {cx.flow}"
    if cx.cut is not None and (len(cx.cut.cut) != cx.flow
                               or not _separates(g, cx.cut.cut, cx.u, cx.v)):
        return f"certify: cut for {cx.u},{cx.v} does not separate them"
    return None
