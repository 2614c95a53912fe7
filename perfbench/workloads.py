"""The three benchmark workloads.

Each workload is closed loop with one client: set-up builds every input
from the seed (or loads the fixed ones), and a pass runs ops on the inputs
in a fixed order, checking each output.  A cycle is ``CYCLE`` passes, the
passes numbered 0 to ``CYCLE - 1``, and runs every op on every input
once; where ``CYCLE`` is 1 each pass does.  ``PASS_SECONDS`` is the
nominal length of a pass, measured once on the reference machine (see
README.md); with ``CYCLE`` it fixes how many passes a run of a given
length makes.  Calls into the
package go through module attributes at call time, so the trace wrappers
see them when they are installed.

An op's outcome is one of

* ``ok``   - it returned the expected kind of result and the check passed;
* ``gap``  - a step beyond what the package reaches today spent the
  benchmark's expansion budget (``BENCH_BUDGET``), or its input is missing
  because an earlier step was a gap.  The package reported the limit as
  documented, so nothing is wrong, but the op produced no result;
* ``fail`` - anything else: an unexpected exception or exit code, a failed
  output check, a spent default budget, or an input missing because an
  earlier step failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import NamedTuple

import checks
import program
import spans
from venngraph.arrio import parse_arr, write_arr
from venngraph.generators import from_circles, gen_venn3
from venngraph.hamilton import BudgetExceededError

# Expansion budget for the searches the package cannot finish today: the
# extension steps to 9 and 10 curves and the primal Hamilton search at 8.
# About 3 s of search on the 8-curve graphs.
BENCH_BUDGET = 20_000


class OpResult(NamedTuple):
    kind: str
    curves: int          # curve count the op is about; 0 when not a diagram
    latency: float | None  # seconds in the program; None if it could not run
    outcome: str         # "ok", "gap" or "fail"
    note: str = ""


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- extend_chain ---------------------------------------------------------

class ExtendChain:
    """parse -> winkler_extend -> write for n = 3..9, the round trip that
    ``extend | extend`` makes.  Steps up to 8 curves use the package's
    default budget; the steps to 9 and 10 use ``BENCH_BUDGET``."""

    name = "extend_chain"
    PASS_SECONDS = 19.0
    CYCLE = 1
    FIRST, LAST = 3, 9
    DEFAULT_BUDGET_UP_TO = 8

    def setup(self, seed: int, tracer) -> None:
        with tracer.span("generators.gen_venn3"):
            g = gen_venn3()
        self.start = write_arr(g)

    def run_pass(self, tracer, index: int = 0) -> list[OpResult]:
        arrio = program.module("arrio")
        dual = program.module("dual")
        ops = []
        text = self.start
        previous = "ok"
        for n in range(self.FIRST, self.LAST + 1):
            tracer.begin_op()
            label = f"extend {n}->{n + 1}"
            if text is None:
                ops.append(OpResult(label, n + 1, None, previous,
                                    f"input missing: step to {n} produced no diagram"))
                continue
            budget = None if n + 1 <= self.DEFAULT_BUDGET_UP_TO else BENCH_BUDGET
            with tracer.span("bench.op"):
                start = perf_counter()
                try:
                    g = arrio.parse_arr(text)
                    with tracer.span("dual.winkler_extend"):
                        out = dual.winkler_extend(g, budget=budget)
                    text = arrio.write_arr(out)
                except BudgetExceededError as exc:
                    latency = perf_counter() - start
                    text = None
                    if budget is not None and exc.expanded == budget:
                        previous = "gap"
                        ops.append(OpResult(label, n + 1, latency, "gap",
                                            f"budget of {budget} expansions spent"))
                    else:
                        previous = "fail"
                        ops.append(OpResult(label, n + 1, latency, "fail", _failure(exc)))
                    continue
                except Exception as exc:  # any other outcome is a failed op
                    previous = "fail"
                    ops.append(OpResult(label, n + 1, perf_counter() - start,
                                        "fail", _failure(exc)))
                    text = None
                    continue
                latency = perf_counter() - start
                problem = checks.check_extension(text, n)
            if problem:
                previous = "fail"
                text = None
                ops.append(OpResult(label, n + 1, latency, "fail", problem))
            else:
                previous = "ok"
                ops.append(OpResult(label, n + 1, latency, "ok"))
        return ops


# -- certify_render -------------------------------------------------------

class FixedInputError(RuntimeError):
    """A stored input is missing or its content hash does not match."""


class CertifyRender:
    """The CLI pipeline validate | venn-check | certify | connectivity |
    hamilton | render on the stored n = 5..8 diagrams, one in-process
    ``venngraph.cli.main`` call per op with its output captured."""

    name = "certify_render"
    PASS_SECONDS = 15.0
    CYCLE = 1
    PRIMAL_DEFAULT_BUDGET_UP_TO = 7

    def setup(self, seed: int, tracer) -> None:
        manifest = json.loads((program.DATA / "manifest.json").read_text(encoding="utf-8"))
        self.inputs = []
        for name, entry in sorted(manifest.items(), key=lambda kv: kv[1]["curves"]):
            path = program.DATA / name
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise FixedInputError(f"{name}: {exc}") from None
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                raise FixedInputError(f"{name}: content hash does not match the manifest")
            g = parse_arr(data.decode("utf-8"))
            self.inputs.append((entry["curves"], str(path), g))
        program.OUT.mkdir(exist_ok=True)
        self.svg_path = program.OUT / f"render-{os.getpid()}.svg"

    def _argvs(self, n: int, path: str):
        hamilton = ["hamilton", path]
        if n > self.PRIMAL_DEFAULT_BUDGET_UP_TO:
            hamilton = ["hamilton", "--budget", str(BENCH_BUDGET), path]
        return [
            ("validate", ["validate", path]),
            ("venn-check", ["venn-check", path]),
            ("certify", ["certify", "--verbose", path]),
            ("connectivity", ["connectivity", path]),
            ("hamilton", hamilton),
            ("render", ["render", "--labels", "-o", str(self.svg_path), path]),
        ]

    def _check(self, verb: str, rc: int, out: str, n: int, g) -> str | None:
        if verb == "validate":
            return checks.check_cli_validate(rc, out)
        if verb == "venn-check":
            return checks.check_cli_venn(rc, out, n)
        if verb == "certify":
            return checks.check_cli_certify(rc, out, g)
        if verb == "connectivity":
            return checks.check_cli_connectivity(rc, out)
        if verb == "hamilton":
            return checks.check_cli_hamilton(rc, out, g)
        if rc != 0:
            return f"render: exit {rc}"
        return checks.check_svg(self.svg_path.read_text(encoding="utf-8"), g, n)

    def run_pass(self, tracer, index: int = 0) -> list[OpResult]:
        cli = program.module("cli")
        ops = []
        for n, path, g in self.inputs:
            for verb, argv in self._argvs(n, path):
                tracer.begin_op()
                label = f"{verb} n={n}"
                out, err = io.StringIO(), io.StringIO()
                with tracer.span("bench.op"):
                    start = perf_counter()
                    try:
                        with redirect_stdout(out), redirect_stderr(err):
                            with tracer.span("cli.main"):
                                rc = cli.main(argv)
                    except Exception as exc:  # main lets no error escape by design
                        ops.append(OpResult(label, n, perf_counter() - start,
                                            "fail", _failure(exc)))
                        continue
                    latency = perf_counter() - start
                    if (verb == "hamilton" and "--budget" in argv and rc == 2
                            and f"after {BENCH_BUDGET} expansions" in err.getvalue()):
                        ops.append(OpResult(label, n, latency, "gap",
                                            f"budget of {BENCH_BUDGET} expansions spent"))
                        continue
                    problem = self._check(verb, rc, out.getvalue(), n, g)
                ops.append(OpResult(label, n, latency, "fail" if problem else "ok",
                                    problem or ""))
        self.svg_path.unlink(missing_ok=True)
        return ops


# -- random_arrangements --------------------------------------------------

class Input(NamedTuple):
    kind: str            # "circles", "map" or "corrupt"
    curves: int          # circles in a family; 0 otherwise
    text: str
    connected: bool
    slot: int | None     # certified in the passes whose index is this mod CYCLE
    want: tuple[str, int] | None  # expected parse error class and line


def _arr_text(twin: list[int]) -> str:
    lines = [f"arrangement {len(twin) // 4}"]
    for v in range(len(twin) // 4):
        refs = " ".join(f"{t >> 2}.{t & 3}" for t in twin[4 * v:4 * v + 4])
        lines.append(f"v {v} {refs}")
    return "\n".join(lines) + "\n"


def _connected(twin: list[int]) -> bool:
    n = len(twin) // 4
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for d in range(4 * x, 4 * x + 4):
            y = twin[d] >> 2
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return all(seen)


class RandomArrangements:
    """Thousands of small seeded inputs handed over as ARR text: random
    circle families, random rotation maps, and corrupted texts.

    Every pass parses every text and validates every valid one.  Each pass
    certifies one connected input in ``CYCLE``, a different one in each
    pass of a cycle, so a cycle certifies every connected input once.  That
    keeps parse and validate the larger share of a pass (certifying all
    costs ~7x them), while the latency tail of a cycle is drawn from every
    input rather than from one seed-dependent seventh of them.
    """

    name = "random_arrangements"
    PASS_SECONDS = 3.75
    # 7 is prime to the 6 family sizes, so every pass certifies every size
    # equally
    CYCLE = 7
    CIRCLE_FAMILIES = 2000
    ROTATION_MAPS = 1000
    CORRUPTED = 1000

    def setup(self, seed: int, tracer) -> None:
        rng = random.Random(seed)
        valid: list[tuple[str, int, str, list[int]]] = []
        while len(valid) < self.CIRCLE_FAMILIES:
            k = 3 + len(valid) % 6  # as many families of each size, whatever the seed
            circles = [(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0), rng.uniform(0.8, 2.5))
                       for _ in range(k)]
            try:
                with tracer.span("generators.from_circles"):
                    g = from_circles(circles)
            except ValueError:
                continue  # tangent, concentric or isolated circles: draw again
            twin = [g.twin(d) for d in range(g.dart_count)]
            valid.append(("circles", k, write_arr(g), twin))
        for _ in range(self.ROTATION_MAPS):
            darts = list(range(4 * rng.randint(2, 20)))
            rng.shuffle(darts)
            twin = [0] * len(darts)
            for a, b in zip(darts[::2], darts[1::2]):
                twin[a], twin[b] = b, a
            valid.append(("map", 0, _arr_text(twin), twin))

        inputs = []
        for j, (kind, k, text, twin) in enumerate(valid):
            connected = _connected(twin)
            inputs.append(Input(kind, k, text, connected,
                                j % self.CYCLE if connected else None, None))
        for _ in range(self.CORRUPTED):
            _, _, text, twin = rng.choice(valid)
            inputs.append(self._corrupt(rng, text, twin))
        rng.shuffle(inputs)
        self.inputs = inputs

    @staticmethod
    def _corrupt(rng: random.Random, text: str, twin: list[int]) -> Input:
        """Drop one ``v`` line, or point one twin reference elsewhere.

        Line 1 is the header and vertex v's line is v + 2.  A dropped line
        is reported at the last line; a broken reference d -> r (r neither
        d nor its partner t) leaves exactly d and t unreciprocated, and the
        parser reports the first of them in dart order.
        """
        lines = text.splitlines()
        vertices = len(twin) // 4
        v = rng.randrange(vertices)
        if rng.random() < 0.5:
            del lines[v + 1]
            want = ("ArrSyntaxError", len(lines))
        else:
            d = 4 * v + rng.randrange(4)
            t = twin[d]
            r = rng.choice([x for x in range(len(twin)) if x not in (d, t)])
            tokens = lines[v + 1].split()
            tokens[2 + (d & 3)] = f"{r >> 2}.{r & 3}"
            lines[v + 1] = " ".join(tokens)
            want = ("ArrSemanticError", min(d, t) // 4 + 2)
        return Input("corrupt", 0, "\n".join(lines) + "\n", False, None, want)

    @staticmethod
    def _withheld(kinds: tuple[str, ...], curves: int, why: str) -> list[OpResult]:
        """Failed ops for the later steps an earlier failure left without input."""
        return [OpResult(kind, curves, None, "fail", f"input missing: {why}")
                for kind in kinds]

    def run_pass(self, tracer, index: int = 0) -> list[OpResult]:
        arrio = program.module("arrio")
        validate = program.module("validate")
        connectivity = program.module("connectivity")
        slot = index % self.CYCLE
        ops = []
        for inp in self.inputs:
            certify = inp.slot == slot
            tracer.begin_op()
            g = exc = None
            with tracer.span("bench.op"):
                start = perf_counter()
                try:
                    g = arrio.parse_arr(inp.text)
                except checks.ARR_ERRORS as caught:
                    exc = caught
                except Exception as caught:  # anything else is a failed op
                    ops.append(OpResult("parse", inp.curves, perf_counter() - start,
                                        "fail", _failure(caught)))
                    continue
                latency = perf_counter() - start
                if inp.want is not None:
                    problem = checks.check_rejected(exc, *inp.want)
                    if problem is None:
                        tracer.count("arrio.rejects_ok")
                elif exc is not None:
                    problem = f"valid text rejected: {exc}"
                else:
                    problem = checks.check_roundtrip(g, inp.text)
            ops.append(OpResult("parse", inp.curves, latency,
                                "fail" if problem else "ok", problem or ""))
            if g is None or problem:
                if inp.want is None:
                    later = ("validate", "certify") if certify else ("validate",)
                    ops.extend(self._withheld(later, inp.curves, "parse failed"))
                continue

            tracer.begin_op()
            with tracer.span("bench.op"):
                start = perf_counter()
                try:
                    with tracer.span("validate.validate"):
                        report = validate.validate(g)
                except Exception as caught:  # validate is total on built graphs
                    ops.append(OpResult("validate", inp.curves, perf_counter() - start,
                                        "fail", _failure(caught)))
                    if certify:
                        ops.extend(self._withheld(("certify",), inp.curves,
                                                  "validate failed"))
                    continue
                latency = perf_counter() - start
                spans.note_validated(tracer, report)
                problem = checks.check_validate_report(report, inp.curves, inp.connected)
            ops.append(OpResult("validate", inp.curves, latency,
                                "fail" if problem else "ok", problem or ""))
            if problem and certify:
                ops.extend(self._withheld(("certify",), inp.curves, "validate failed"))
            if not certify or problem:
                continue

            tracer.begin_op()
            result = exc = None
            with tracer.span("bench.op"):
                start = perf_counter()
                try:
                    with tracer.span("connectivity.certify_distance_two"):
                        result = connectivity.certify_distance_two(g, 4)
                except Exception as caught:  # judged by the check below
                    exc = caught
                latency = perf_counter() - start
                if result is not None:
                    spans.note_certified(tracer, result)
                problem = checks.check_certification(result, exc, g, report.is_vgraph)
            ops.append(OpResult("certify", inp.curves, latency,
                                "fail" if problem else "ok", problem or ""))
        return ops


WORKLOADS = {w.name: w for w in (ExtendChain, CertifyRender, RandomArrangements)}
