"""Command-line interface.

Every verb but ``gen`` is a function of one map.  ``main`` reads the map
in ARR format from the file argument (or stdin when the argument is
``-`` or omitted) and calls the verb, which writes its results to
stdout and returns the exit code: 0 the checked property holds or the
artifact was produced, 1 it fails.

``FAILURES`` is the exit-code policy for every error the library
raises: ``main`` prints the first matching row's prefix and the error
to stderr and exits with the row's code.

- ``input error``, 2: the text does not parse; the message has its line;
- ``budget``, 2: the search budget ran out;
- ``vacuous``, 1: ``certify`` on a map with no distance-2 pairs;
- ``layout``, 1: ``render`` finds no drawing;
- ``not plane``, 1: region labels disagree across a curve;
- ``not connected``, 1: the map is in more than one piece;
- ``not a v-graph``, 1: ``paths`` off a V-graph;
- ``not a diagram``, 1: ``extend`` on a map that is no simple diagram;
- ``error``, 2: any other map, value or file error, a usage error.

Three judgements stay with their verbs.  Exit 3 means a guaranteed
result was contradicted, which would be news rather than a bug in the
input: ``hamilton`` prints ``contradiction`` when a 4-connected plane
map has no Hamilton cycle, and ``extend`` prints ``unextendable`` when
the dual of a diagram has none, exit 3 up to five curves and 1 past
them.  ``render --hamilton`` exits 1 with ``no Hamilton cycle to
overlay``.  Exit 141 (128 + SIGPIPE): stdout's reader went away, as in
``venngraph certify --verbose big.arr | head -1``; nothing is printed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain

from . import arrio, generators
from .connectivity import (
    NotVGraphError,
    VacuousCertificationError,
    certify_distance_two,
    proof_paths,
    vertex_connectivity,
)
from .dual import DualNotHamiltonianError, NotVennError, dual, winkler_extend
from .hamilton import DEFAULT_BUDGET, BudgetExceededError, find_hamilton
from .maps import DisconnectedError, MapError, NotPlaneError, PlaneGraph
from .render import LayoutUnavailableError, render_svg
from .validate import two_faces, validate, venn_check

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONTRADICTION = 3
EXIT_BROKEN_PIPE = 141


def _read_graph(path: str) -> PlaneGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return arrio.parse_arr(text)


def _fmt_label(label: int, width: int) -> str:
    return format(label, f"0{max(width, 1)}b")


def _cmd_validate(g, args) -> int:
    report = validate(g)
    gp = report.general_position
    print(f"general-position: {'ok' if report.is_general_position else 'fail'}")
    if gp.self_crossings:
        # one curve-id test finds the vertices where a curve crosses
        # itself, which are those it revisits (validate docstring)
        print("self-crossing-at:", *gp.self_crossings)
    print(f"planar: {'yes' if gp.is_planar else 'no'}")
    print(f"connected: {'yes' if report.is_connected else 'no'}")
    print(f"curves: {report.curve_count}")
    if report.ufi_violations:
        print(f"ufi: {len(report.ufi_violations)} violations")
        for vio in report.ufi_violations:
            print(f"  face {vio.face} meets curve {vio.curve} {vio.count} times")
    else:
        print("ufi: ok")
    print("two-faces:", *(two_faces(g) or ("none",)))
    print(f"v-graph: {'yes' if report.is_vgraph else 'no'}")
    return EXIT_OK if report.is_vgraph else EXIT_PROPERTY_FAIL


def _cmd_venn_check(g, args) -> int:
    report = venn_check(g)
    print(f"curves: {report.curve_count}")
    print(f"regions: {report.face_count}")
    print(f"distinct-labels: {report.distinct_labels}")
    width = report.curve_count
    if report.missing_labels is None:
        print(f"missing: {(1 << report.curve_count) - report.distinct_labels} labels")
    elif report.missing_labels:
        print("missing:", *(_fmt_label(x, width) for x in report.missing_labels))
    if report.duplicated_labels:
        print("duplicated:", *(_fmt_label(x, width) for x in report.duplicated_labels))
    print(f"simple-venn: {'yes' if report.is_simple_venn else 'no'}")
    return EXIT_OK if report.is_simple_venn else EXIT_PROPERTY_FAIL


def _cmd_connectivity(g, args) -> int:
    kappa, cut = vertex_connectivity(g)
    print(f"connectivity: {kappa}")
    if cut is not None:
        sys.stdout.write(arrio.format_cut_certificate(cut))
    return EXIT_OK if kappa == 4 else EXIT_PROPERTY_FAIL


def _cmd_certify(g, args) -> int:
    result = certify_distance_two(g, args.k)
    print(f"k: {result.k}")
    print(f"pairs: {result.pair_count}")
    print(f"fallbacks: {result.fallback_count}")
    if result.certified:
        print("certified: yes")
        if args.verbose:
            names = arrio.PathNames(g)
            for u, z, v, cert in result.certificates:
                sys.stdout.write(f"pair {u} {v} via {z}\n"
                                 + arrio.format_path_certificate(cert, names))
        return EXIT_OK
    cx = result.counterexample
    print("certified: no")
    print(f"counterexample: {cx.u} {cx.v} flow {cx.flow}")
    sys.stdout.write(arrio.format_cut_certificate(cx.cut))
    return EXIT_PROPERTY_FAIL


def _cmd_paths(g, args) -> int:
    result = proof_paths(g, args.u, args.z, args.v)
    print(f"case: {result.case}")
    print(f"z: {result.roles['z']} a: {result.roles['a']} b: {result.roles['b']}")
    print(f"fallback: {'yes' if result.used_fallback else 'no'}")
    sys.stdout.write(arrio.format_path_certificate(result.certificate, arrio.PathNames(g)))
    return EXIT_OK


def _cmd_hamilton(g, args) -> int:
    cycle = find_hamilton(g, budget=args.budget)
    if cycle is not None:
        print("cycle:", *cycle.order)
        return EXIT_OK
    print("exhausted: no Hamilton cycle exists")
    kappa, _ = vertex_connectivity(g)
    if kappa >= 4 and g.is_planar:
        print(
            f"contradiction: graph is {kappa}-connected and planar, "
            "which guarantees a Hamilton cycle",
            file=sys.stderr,
        )
        return EXIT_CONTRADICTION
    return EXIT_PROPERTY_FAIL


def _cmd_dual(g, args) -> int:
    d = dual(g)
    print(f"dual {d.vertex_count} {d.edge_count}")
    crossed = list(chain.from_iterable(g.faces))
    for dd in d.edges():
        a, b = d.edge_endpoints(dd)
        pe = g.edge_of(crossed[dd])
        print(f"edge {a} {b} via {pe >> 2}.{pe & 3}")
    return EXIT_OK


def _cmd_extend(g, args) -> int:
    try:
        out = winkler_extend(g)
    except DualNotHamiltonianError as exc:
        print(f"unextendable: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION if exc.curve_count <= 5 else EXIT_PROPERTY_FAIL
    sys.stdout.write(arrio.write_arr(out))
    return EXIT_OK


def _cmd_gen(_, args) -> int:
    if args.kind == "venn3":
        g = generators.gen_venn3()
    elif args.n is None:
        need = "a curve count" if args.kind == "venn" else "a crossing parameter"
        raise ValueError(f"gen {args.kind} needs {need}")
    elif args.kind == "venn":
        g = generators.gen_venn(args.n)
    else:
        g = generators.gen_weave(args.n)
    sys.stdout.write(arrio.write_arr(g))
    return EXIT_OK


def _cmd_render(g, args) -> int:
    cycle = None
    if args.hamilton:
        found = find_hamilton(g)
        if found is None:
            print("no Hamilton cycle to overlay", file=sys.stderr)
            return EXIT_PROPERTY_FAIL
        cycle = found.order
    cert = None
    if args.paths:
        u, z, v = args.paths
        cert = proof_paths(g, u, z, v).certificate
    svg = render_svg(g, labels=args.labels, hamilton=cycle, cert=cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` leaves the parser as it was
    and starts each call from the defaults."""
    parser = argparse.ArgumentParser(
        prog="venngraph",
        description="Inspect, certify and extend curve-arrangement graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, run, help, *vertices):
        """A verb that reads a map: its vertex arguments, then the input."""
        p = sub.add_parser(name, help=help)
        for vertex in vertices:
            p.add_argument(vertex, type=int)
        p.add_argument("input", nargs="?", default="-", help="ARR file, or - for stdin")
        p.set_defaults(run=run)
        return p

    verb("validate", _cmd_validate, "general position, UFI, V-graph")
    verb("venn-check", _cmd_venn_check, "region label census")
    verb("connectivity", _cmd_connectivity, "exact vertex connectivity")
    p = verb("certify", _cmd_certify, "disjoint paths for all distance-2 pairs")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--verbose", action="store_true")
    verb("paths", _cmd_paths, "four disjoint paths around a common neighbour", "u", "z", "v")
    p = verb("hamilton", _cmd_hamilton, "find a Hamilton cycle")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verb("dual", _cmd_dual, "planar dual with the crossing map")
    verb("extend", _cmd_extend, "add one curve through a dual Hamilton cycle")
    p = sub.add_parser("gen", help="emit a reference arrangement")
    p.add_argument("kind", choices=["venn3", "venn", "weave"])
    p.add_argument("n", type=int, nargs="?")
    p.set_defaults(run=_cmd_gen, input=None)
    p = verb("render", _cmd_render, "straight-line SVG drawing")
    p.add_argument("--labels", action="store_true")
    p.add_argument("--hamilton", action="store_true")
    p.add_argument("--paths", type=int, nargs=3, metavar=("U", "Z", "V"))
    p.add_argument("--out", "-o")
    return parser


# The exit-code policy: the first row whose types match an error gives
# its stderr prefix and exit code.  Subclasses come before the last row,
# which catches every error main handles.
FAILURES = (
    ((arrio.ArrSyntaxError, arrio.ArrSemanticError), "input error", EXIT_USAGE),
    (BudgetExceededError, "budget", EXIT_USAGE),
    (VacuousCertificationError, "vacuous", EXIT_PROPERTY_FAIL),
    (LayoutUnavailableError, "layout", EXIT_PROPERTY_FAIL),
    (NotPlaneError, "not plane", EXIT_PROPERTY_FAIL),
    (DisconnectedError, "not connected", EXIT_PROPERTY_FAIL),
    (NotVGraphError, "not a v-graph", EXIT_PROPERTY_FAIL),
    (NotVennError, "not a diagram", EXIT_PROPERTY_FAIL),
    ((MapError, ValueError, OSError), "error", EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        g = None if args.input is None else _read_graph(args.input)
        code = args.run(g, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except FAILURES[-1][0] as exc:
        prefix, code = next((p, c) for types, p, c in FAILURES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def run() -> None:
    code = main()
    if code == EXIT_BROKEN_PIPE:
        # stdout's reader is gone; send the interpreter's exit-time flush
        # of whatever is still buffered to nowhere instead of the pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
