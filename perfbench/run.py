"""venngraph benchmark runner.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload extend_chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

A run sets up its workload, then makes a fixed number of passes over the
workload's inputs, checking every op's output: whole cycles of the
workload's ``CYCLE`` passes, as many as fit in ``--seconds`` (by default
``run_seconds`` from ``BENCHMARK.json``) at the workload's nominal pass
length, at least one.  The count depends on ``--seconds`` alone, never
on how fast the machine is, so every run takes as many samples.  It prints
its figures one per line with their units, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced and traced
passes and reports the per-layer ones.  ``perfbench/README.md`` defines
every metric.

Exit status: 0 when every op's output was right, 1 when an op failed, 2
when the run could not start (no sources to measure, a damaged fixed
input, a bad argument).
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import program  # noqa: E402

WORKLOAD_NAMES = ("extend_chain", "certify_render", "random_arrangements")
SETUP_REPEATS = 3
SHOWN_NOTES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "max_curves": "n",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("bytes_parsed") or name.endswith("svg_bytes"):
        return "bytes"
    return "count"


def run_seconds() -> int:
    """The run length every measurement uses, from ``BENCHMARK.json``."""
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"]


def _args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    return args


def pass_count(seconds: float, pass_seconds: float, cycle: int = 1) -> int:
    """Passes in a run of ``seconds``, for a workload whose pass takes about
    ``pass_seconds`` on the reference machine: whole cycles of ``cycle``
    passes, at least one cycle."""
    return cycle * max(1, round(seconds / (cycle * pass_seconds)))


def _setup(workload, seed: int, tracer) -> float:
    """Set the workload up SETUP_REPEATS times; return the set-up time.

    That is the time from the first line of this file to the end of the
    imports, taken once, plus the median time of one ``workload.setup``.
    """
    imports = perf_counter() - STARTED
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup(seed, tracer)
        times.append(perf_counter() - start)
    return imports + statistics.median(times)


class Tally:
    """What a run keeps of its ops: outcome counts, each cycle's latency
    percentiles, which curve counts every op reached, and the first few
    distinct outcomes that were not ok.  The ops themselves are dropped
    after each pass and their latencies after each cycle of ``cycle``
    passes, so memory does not grow with the number of passes."""

    def __init__(self, cycle: int = 1):
        self.cycle = cycle
        self.counts = {"ok": 0, "gap": 0, "fail": 0}
        self.p50s: list[float] = []
        self.p99s: list[float] = []
        self.timed = 0
        self.curves_ok: dict[int, bool] = {}
        self.notes: dict[tuple[str, str, str], None] = {}
        self._passes = 0
        self._latencies: list[float] = []

    def add(self, ops) -> None:
        for op in ops:
            self.counts[op.outcome] += 1
            if op.curves:
                self.curves_ok[op.curves] = (self.curves_ok.get(op.curves, True)
                                             and op.outcome == "ok")
            if op.outcome != "ok" and len(self.notes) <= SHOWN_NOTES:
                self.notes.setdefault((op.outcome, op.kind, op.note))
        self._latencies.extend(op.latency for op in ops if op.latency is not None)
        self._passes += 1
        if self._passes % self.cycle:
            return
        latencies = sorted(self._latencies)
        self._latencies = []
        self.timed = len(latencies)
        self.p50s.append(statistics.median(latencies))
        self.p99s.append(latencies[math.ceil(0.99 * len(latencies)) - 1])

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    def max_curves(self) -> int:
        """Largest n such that every op on a diagram of at most n curves was
        ok; one less than the smallest n when an op on it was not."""
        best = min(self.curves_ok) - 1
        for n in sorted(self.curves_ok):
            if not self.curves_ok[n]:
                break
            best = n
        return best

    def report(self, name: str, args, passes: int) -> None:
        c = self.counts
        print(f"# workload={name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} passes={passes}")
        print(f"# ops_attempted={self.attempted} ok={c['ok']} gap={c['gap']} "
              f"failed={c['fail']}")
        for outcome, kind, note in list(self.notes)[:SHOWN_NOTES]:
            print(f"# {outcome}: {kind}: {note}")
        if len(self.notes) > SHOWN_NOTES:
            print("# ... and more distinct outcomes")

    def emit(self, metrics: dict[str, tuple[float, str]]) -> int:
        """Print the result line; the exit status for the run."""
        print(json.dumps({
            "correct": self.counts["fail"] == 0,
            "attempted": self.attempted,
            "failed": self.counts["fail"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if self.counts["fail"] == 0 else 1


def run_untraced(args, workload) -> int:
    from spans import NullTracer

    null = NullTracer()
    setup_s = _setup(workload, args.seed, null)
    walls, tally = [], Tally(workload.CYCLE)
    for index in range(pass_count(args.seconds, workload.PASS_SECONDS, workload.CYCLE)):
        start = perf_counter()
        done = workload.run_pass(null, index)
        walls.append(perf_counter() - start)
        tally.add(done)
        del done
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally.report(workload.name, args, len(walls))
    beyond = tally.timed - math.ceil(0.99 * tally.timed)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p99_ms": statistics.median(tally.p99s) * 1000.0,
        "peak_rss_mb": rss_mb,
        "max_curves": tally.max_curves(),
    }
    notes = {
        "setup_s": f"imports once, plus the median of {SETUP_REPEATS} set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "op_p99_ms": f"median over cycles of each cycle's p99; cycles={len(tally.p99s)}, "
                     f"passes a cycle={workload.CYCLE}, {tally.timed} timed ops a cycle, "
                     f"{beyond} beyond p99"
                     + ("" if beyond >= 10 else " (fewer than ten: close to the slowest op)"),
    }
    for key, value in metrics.items():
        print(f"{key:<14} {value:<14.6g} {END_TO_END_UNITS[key]:<6} {notes.get(key, '')}")
    print(f"{'op_p50_ms':<14} {statistics.median(tally.p50s) * 1000.0:<14.6g} {'ms':<6} "
          f"median over cycles of each cycle's median (printed only, see README)")
    c = tally.counts
    print(f"{'fail_ratio':<14} {(c['fail'] + c['gap']) / tally.attempted:<14.6g} {'1':<6} "
          f"(failed + gap) / ops_attempted, ops_attempted={tally.attempted}")
    return tally.emit({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def run_traced(args, workload) -> int:
    import spans

    setup_tracer = spans.Tracer()
    workload.setup(args.seed, setup_tracer)
    null = spans.NullTracer()
    tracer = spans.Tracer()
    plain, traced, tally = [], [], Tally()
    # each round is one untraced and one traced pass with the same index
    for index in range(pass_count(args.seconds, 2 * workload.PASS_SECONDS)):
        start = perf_counter()
        workload.run_pass(null, index)
        plain.append(perf_counter() - start)
        restore = spans.install(tracer)
        try:
            with tracer.span("bench.pass") as whole:
                done = workload.run_pass(tracer, index)
        finally:
            restore()
        traced.append(whole.duration)
        tally.add(done)
        del done
    tracer.write(program.OUT / f"trace-{workload.name}-seed{args.seed}.json")

    tally.report(workload.name, args, len(traced))
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics["generators.from_circles_s"] = sum(s.duration for s in setup_tracer.spans)
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.overhead_ratio"] = statistics.fmean(traced) / statistics.fmean(plain)
    wall = metrics["trace.wall_s"]
    layer_self = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    for key in sorted(metrics):
        print(f"{key:<38} {metrics[key]:<14.6g} {per_layer_unit(key)}")
    print("# self time per traced pass, share of trace.wall_s:")
    for key, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"#   {key.split('.')[0]:<13} {value:10.4f} s  {value / wall:6.1%}")
    print(f"#   {'sum':<13} {sum(layer_self.values()):10.4f} s  "
          f"{sum(layer_self.values()) / wall:6.1%}")
    return tally.emit({k: (v, per_layer_unit(k)) for k, v in metrics.items()})


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=program.ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        program.load()
        import workloads

        workload = workloads.WORKLOADS[args.workload]()
        runner = run_traced if args.trace else run_untraced
        return runner(args, workload)
    except (program.ProgramMissingError, ImportError, OSError, RuntimeError,
            ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
