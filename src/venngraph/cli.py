"""Command-line interface.

All verbs read an arrangement in ARR format from a file argument (or
stdin when the argument is ``-`` or omitted) and write results to stdout.

Exit codes: 0 the checked property holds or the artifact was produced;
1 the property fails; 2 input or usage error (including a spent search
budget); 3 a guaranteed result was contradicted (no Hamilton cycle in a
certified 4-connected planar graph, or an unextendable diagram with five
or fewer curves), which would be reportable news rather than a bug in the
input; 141 (128 + SIGPIPE) the reader of stdout went away, as in
``venngraph certify --verbose big.arr | head -1``, and nothing is printed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import arrio, generators
from .connectivity import (
    PathCertificate,
    VacuousCertificationError,
    certify_distance_two,
    proof_paths,
    vertex_connectivity,
)
from .dual import DualNotHamiltonianError, NotVennError, dual, winkler_extend
from .hamilton import DEFAULT_BUDGET, BudgetExceededError, find_hamilton
from .maps import MapError, PlaneGraph
from .render import LayoutUnavailableError, render_svg
from .validate import validate, venn_check

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


def _cmd_validate(args) -> int:
    g = _read_graph(args.input)
    report = validate(g, with_venn=False)
    gp = report.general_position
    print(f"general-position: {'ok' if report.is_general_position else 'fail'}")
    if gp.self_crossings:
        print("self-crossing-at:", *gp.self_crossings)
    if gp.same_curve_crossings:
        print("same-curve-at:", *gp.same_curve_crossings)
    print(f"planar: {'yes' if gp.is_planar else 'no'}")
    print(f"connected: {'yes' if report.is_connected else 'no'}")
    print(f"curves: {report.curve_count}")
    if report.ufi_violations:
        print(f"ufi: {len(report.ufi_violations)} violations")
        for vio in report.ufi_violations:
            print(f"  face {vio.face} meets curve {vio.curve} {vio.count} times")
    else:
        print("ufi: ok")
    print("two-faces:", *(report.two_faces or ("none",)))
    print(f"v-graph: {'yes' if report.is_vgraph else 'no'}")
    return EXIT_OK if report.is_vgraph else EXIT_PROPERTY_FAIL


def _cmd_venn_check(args) -> int:
    g = _read_graph(args.input)
    report = venn_check(g)
    print(f"curves: {report.curve_count}")
    print(f"regions: {report.face_count}")
    print(f"distinct-labels: {report.distinct_labels}")
    width = report.curve_count
    if report.missing_labels:
        print("missing:", *(_fmt_label(x, width) for x in report.missing_labels))
    if report.duplicated_labels:
        print("duplicated:", *(_fmt_label(x, width) for x in report.duplicated_labels))
    print(f"simple-venn: {'yes' if report.is_simple_venn else 'no'}")
    return EXIT_OK if report.is_simple_venn else EXIT_PROPERTY_FAIL


def _cmd_connectivity(args) -> int:
    g = _read_graph(args.input)
    kappa, cut = vertex_connectivity(g)
    print(f"connectivity: {kappa}")
    if cut is not None and kappa < g.vertex_count - 1:
        sys.stdout.write(arrio.format_cut_certificate(cut))
    return EXIT_OK if kappa == 4 else EXIT_PROPERTY_FAIL


def _cmd_certify(args) -> int:
    g = _read_graph(args.input)
    result = certify_distance_two(g, args.k)
    print(f"k: {result.k}")
    print(f"pairs: {result.pair_count}")
    print(f"fallbacks: {result.fallback_count}")
    if result.certified:
        print("certified: yes")
        if args.verbose:
            for u, z, v, cert in result.certificates:
                print(f"pair {u} {v} via {z}")
                sys.stdout.write(arrio.format_path_certificate(cert))
        return EXIT_OK
    cx = result.counterexample
    print("certified: no")
    print(f"counterexample: {cx.u} {cx.v} flow {cx.flow}")
    if cx.cut is not None:
        sys.stdout.write(arrio.format_cut_certificate(cx.cut))
    return EXIT_PROPERTY_FAIL


def _cmd_paths(args) -> int:
    g = _read_graph(args.input)
    result = proof_paths(g, args.u, args.z, args.v)
    print(f"case: {result.case}")
    print(f"z: {result.roles['z']} a: {result.roles['a']} b: {result.roles['b']}")
    print(f"fallback: {'yes' if result.used_fallback else 'no'}")
    cert = PathCertificate(args.u, args.v, result.paths)
    sys.stdout.write(arrio.format_path_certificate(cert))
    return EXIT_OK


def _cmd_hamilton(args) -> int:
    g = _read_graph(args.input)
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


def _cmd_dual(args) -> int:
    g = _read_graph(args.input)
    d = dual(g)
    print(f"dual {d.vertex_count} {d.edge_count}")
    for dd, pe in sorted(d.crossing_edges().items()):
        a, b = d.edge_endpoints(dd)
        print(f"edge {a} {b} via {pe >> 2}.{pe & 3}")
    return EXIT_OK


def _cmd_extend(args) -> int:
    g = _read_graph(args.input)
    try:
        out = winkler_extend(g)
    except NotVennError as exc:
        print(f"not a diagram: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAIL
    except DualNotHamiltonianError as exc:
        print(f"unextendable: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION if exc.curve_count <= 5 else EXIT_PROPERTY_FAIL
    sys.stdout.write(arrio.write_arr(out))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "venn3":
        g = generators.gen_venn3()
    elif args.kind == "venn":
        if args.n is None:
            print("gen venn needs a curve count", file=sys.stderr)
            return EXIT_USAGE
        g = generators.gen_venn(args.n)
    else:
        if args.n is None:
            print("gen weave needs a crossing parameter", file=sys.stderr)
            return EXIT_USAGE
        g = generators.gen_weave(args.n)
    sys.stdout.write(arrio.write_arr(g))
    return EXIT_OK


def _cmd_render(args) -> int:
    g = _read_graph(args.input)
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
        cert = proof_paths(g, u, z, v)
    svg = render_svg(g, labels=args.labels, hamilton=cycle, cert=cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venngraph",
        description="Inspect, certify and extend curve-arrangement graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="ARR file, or - for stdin")
        return p

    with_input(sub.add_parser("validate", help="general position, UFI, V-graph"))
    with_input(sub.add_parser("venn-check", help="region label census"))
    with_input(sub.add_parser("connectivity", help="exact vertex connectivity"))
    p = with_input(sub.add_parser("certify", help="disjoint paths for all distance-2 pairs"))
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--verbose", action="store_true")
    p = sub.add_parser("paths", help="four disjoint paths around a common neighbour")
    p.add_argument("u", type=int)
    p.add_argument("z", type=int)
    p.add_argument("v", type=int)
    with_input(p)
    p = with_input(sub.add_parser("hamilton", help="find a Hamilton cycle"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    with_input(sub.add_parser("dual", help="planar dual with the crossing map"))
    with_input(sub.add_parser("extend", help="add one curve through a dual Hamilton cycle"))
    p = sub.add_parser("gen", help="emit a reference arrangement")
    p.add_argument("kind", choices=["venn3", "venn", "weave"])
    p.add_argument("n", type=int, nargs="?")
    p = with_input(sub.add_parser("render", help="straight-line SVG drawing"))
    p.add_argument("--labels", action="store_true")
    p.add_argument("--hamilton", action="store_true")
    p.add_argument("--paths", type=int, nargs=3, metavar=("U", "Z", "V"))
    p.add_argument("--out", "-o")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "venn-check": _cmd_venn_check,
    "connectivity": _cmd_connectivity,
    "certify": _cmd_certify,
    "paths": _cmd_paths,
    "hamilton": _cmd_hamilton,
    "dual": _cmd_dual,
    "extend": _cmd_extend,
    "gen": _cmd_gen,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (arrio.ArrSyntaxError, arrio.ArrSemanticError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VacuousCertificationError as exc:
        print(f"vacuous: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAIL
    except LayoutUnavailableError as exc:
        print(f"layout: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAIL
    except (MapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


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
