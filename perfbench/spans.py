"""Spans around the calls into each venngraph layer, for the traced run.

A span is one call: name, start, end, parent span and op id.  Spans stay
in memory and are written out when the run ends.  Two kinds exist:

* spans the workloads open themselves around their direct calls into a
  layer (``dual.winkler_extend``, ``cli.main``, ...);
* spans opened by wrappers that replace, for the traced passes only, the
  public names modules bind at the layer boundaries (``WRAPPED``).  A call
  from ``dual.winkler_extend`` to ``find_hamilton`` goes through the name
  ``venngraph.dual.find_hamilton``, so replacing that module attribute
  records the call without touching the package's sources.

Self time is a span's duration minus its children's.  Summed over all
spans of a pass, self time is the pass's wall time, which is how the
per-layer figures add up to the traced ``wall_s``.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import program

# module -> public names it binds at a layer boundary
WRAPPED = {
    "cli": ("validate", "venn_check", "certify_distance_two",
            "vertex_connectivity", "find_hamilton", "render_svg"),
    "arrio": ("parse_arr", "write_arr"),
    "dual": ("dual", "venn_check", "find_hamilton"),
    "connectivity": ("validate", "proof_paths", "max_disjoint_paths"),
    "render": ("barycentric_layout", "vertex_connectivity", "venn_check"),
}

# span name -> layer that does the work inside it
LAYER = {
    "bench.pass": "bench",
    "bench.op": "bench",
    "cli.main": "cli",
    "arrio.parse_arr": "arrio",
    "arrio.write_arr": "arrio",
    "maps.force": "maps",
    "validate.validate": "validate",
    "cli.validate": "validate",
    "connectivity.validate": "validate",
    "cli.venn_check": "validate",
    "dual.venn_check": "validate",
    "render.venn_check": "validate",
    "dual.winkler_extend": "dual",
    "dual.dual": "dual",
    "dual.find_hamilton": "hamilton",
    "cli.find_hamilton": "hamilton",
    "connectivity.certify_distance_two": "connectivity",
    "cli.certify_distance_two": "connectivity",
    "connectivity.proof_paths": "connectivity",
    "connectivity.max_disjoint_paths": "connectivity",
    "cli.vertex_connectivity": "connectivity",
    "render.vertex_connectivity": "connectivity",
    "cli.render_svg": "render",
    "render.barycentric_layout": "render",
    "generators.from_circles": "generators",
    "generators.gen_venn3": "generators",
}

LAYERS = ("arrio", "maps", "validate", "dual", "hamilton", "connectivity",
          "render", "cli", "bench")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "expanded")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.error = None
        self.expanded = None
        self.end = 0.0
        self.start = perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager that closes one span, noting any exception."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = perf_counter()
        if exc is not None:
            self.span.error = exc_type.__name__
            self.span.expanded = getattr(exc, "expanded", None)
        self.tracer.stack.pop()
        return False


class _Nothing:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOTHING = _Nothing()


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    def span(self, name: str):
        return _NOTHING

    def begin_op(self) -> None:
        pass

    def count(self, key: str, amount: float = 1) -> None:
        pass


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def span(self, name: str) -> _Open:
        if name not in LAYER:
            raise KeyError(f"span {name!r} has no layer")
        parent = self.stack[-1] if self.stack else -1
        s = Span(name, parent, self.op_id)
        self.stack.append(len(self.spans))
        self.spans.append(s)
        return _Open(self, s)

    def begin_op(self) -> None:
        self.op_id += 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def write(self, path) -> None:
        """All spans as JSON rows: name, start, end, parent, op, error."""
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.error] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": rows}, fh, separators=(",", ":"))


# -- counters noted from results ------------------------------------------

def note_parsed(tracer, text: str, g) -> None:
    """Count the bytes parsed, then force the graph's cached orbit data
    under a ``maps`` span so its cost is not charged to the first caller."""
    tracer.count("arrio.bytes_parsed", len(text))
    with tracer.span("maps.force"):
        g.faces
        g.curve_orbit_data
        g.adjacency_sets
        g.components
    tracer.count("maps.darts", g.dart_count)


def note_validated(tracer, report) -> None:
    tracer.count("validate.calls")
    tracer.count("validate.vgraphs", int(report.is_vgraph))


def note_certified(tracer, result) -> None:
    tracer.count("connectivity.pairs", result.pair_count)
    tracer.count("connectivity.fallbacks", result.fallback_count)


_AFTER = {
    "arrio.parse_arr": lambda tracer, args, result: note_parsed(tracer, args[0], result),
    "cli.validate": lambda tracer, args, result: note_validated(tracer, result),
    "cli.certify_distance_two": lambda tracer, args, result: note_certified(tracer, result),
    "cli.render_svg": lambda tracer, args, result: tracer.count("render.svg_bytes",
                                                                len(result)),
}


def _wrap(tracer: Tracer, name: str, fn):
    after = _AFTER.get(name)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Replace the boundary names with recording wrappers; returns undo."""
    saved = []
    for modname, names in WRAPPED.items():
        mod = program.module(modname)
        for name in names:
            fn = getattr(mod, name)
            saved.append((mod, name, fn))
            setattr(mod, name, _wrap(tracer, f"{modname}.{name}", fn))

    def restore() -> None:
        for mod, name, fn in saved:
            setattr(mod, name, fn)

    return restore


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass, from all spans of ``tracer``.

    Names ending in ``self_s``, and ``render.layout_s``, are self times;
    every other ``*_s`` is the full duration of the named calls.
    """
    spans = tracer.spans
    own_time = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own_time[s.parent] -= s.duration
    proof_parents = {s.parent for s in spans if s.name == "connectivity.proof_paths"}

    def full(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def own(*names: str) -> float:
        return sum(own_time[i] for i, s in enumerate(spans) if s.name in names)

    certify = [i for i, s in enumerate(spans)
               if s.name.endswith(".certify_distance_two")]
    hamilton = [s for s in spans if s.name.endswith(".find_hamilton")]
    exhausted = [s for s in hamilton if s.error == "BudgetExceededError"]
    c = tracer.counts
    m = {
        "arrio.parse_s": full("arrio.parse_arr"),
        "arrio.write_s": full("arrio.write_arr"),
        "arrio.bytes_parsed": c["arrio.bytes_parsed"],
        "arrio.rejects_ok": c["arrio.rejects_ok"],
        "maps.orbits_s": full("maps.force"),
        "maps.darts": c["maps.darts"],
        "validate.validate_s": full("validate.validate", "cli.validate",
                                    "connectivity.validate"),
        "validate.venn_check_s": full("cli.venn_check", "dual.venn_check",
                                      "render.venn_check"),
        "dual.dual_s": full("dual.dual"),
        "dual.extend_self_s": own("dual.winkler_extend"),
        "hamilton.dual_s": full("dual.find_hamilton"),
        "hamilton.primal_s": full("cli.find_hamilton"),
        "hamilton.calls": len(hamilton),
        "hamilton.budget_exhausted": len(exhausted),
        "hamilton.expanded_at_exhaustion": sum(s.expanded or 0 for s in exhausted),
        "connectivity.certify_constructive_s": sum(
            spans[i].duration for i in certify if i in proof_parents),
        "connectivity.certify_flow_s": sum(
            spans[i].duration for i in certify if i not in proof_parents),
        "connectivity.pairs": c["connectivity.pairs"],
        "connectivity.fallbacks": c["connectivity.fallbacks"],
        "connectivity.kappa_s": full("cli.vertex_connectivity"),
        "connectivity.flow_calls": sum(
            1 for s in spans if s.name == "connectivity.max_disjoint_paths"),
        "connectivity.flow_s": full("connectivity.max_disjoint_paths"),
        "render.svg_self_s": own("cli.render_svg"),
        "render.layout_s": own("render.barycentric_layout"),
        "render.kappa_precheck_s": full("render.vertex_connectivity"),
        "render.svg_bytes": c["render.svg_bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own_time[i] for i, s in enumerate(spans) if LAYER[s.name] == layer)
    m = {k: v / passes for k, v in m.items()}
    # ratios of the run's totals, which equal ratios of the per-pass means
    m["validate.vgraph_ratio"] = (
        c["validate.vgraphs"] / c["validate.calls"] if c["validate.calls"] else 0.0)
    m["connectivity.fallback_ratio"] = (
        c["connectivity.fallbacks"] / c["connectivity.pairs"]
        if c["connectivity.pairs"] else 0.0)
    return m
