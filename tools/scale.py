"""Scale sweep: three CLI processes per verb, and three in-process calls
per layer, on simple Venn diagrams of 3 to 16 curves.

The maps are ``gen venn 3`` to ``gen venn 12``, and the 14- and 16-curve
diagrams that ``extend`` builds from the 12-curve one, two and four
steps on.  For each map the sweep records:

- per verb (``validate``, ``venn-check``, ``certify``, ``connectivity``,
  ``hamilton``, ``render -o``), over three ``python -m venngraph.cli``
  processes: the median wall time as ``wall_s`` and the fastest and
  slowest as ``wall_range_s``, the exit code, and the largest peak
  resident set size, each read from the child's own resource usage as
  ``os.wait4`` returns it (the accounting ``RUSAGE_CHILDREN`` sums);
- as ``build``, the same record for the last process of the pipeline
  that made the map: ``gen venn N``, or the last ``extend``;
- per layer, over three calls: the median ``perf_counter`` seconds as
  ``layers_s`` and the fastest and slowest as ``layers_range_s``, each
  call but ``parse_arr``'s on a map parsed afresh, so that no layer is
  charged or credited for the tables another call cached.  All of one
  map's layer calls run in a fresh interpreter, a ``multiprocessing``
  "spawn" child, so that none runs in a heap the maps before it left.

Run from the repository root::

    python3 tools/scale.py

It takes about three minutes and writes ``BENCH_scale.json`` beside
``tools/`` (or the ``-o`` path).  Nothing gates on it: a change that
claims speed names the layer, the n, and the before and after from that
file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from venngraph.arrio import parse_arr, write_arr  # noqa: E402
from venngraph.connectivity import certify_distance_two, vertex_connectivity  # noqa: E402
from venngraph.dual import winkler_extend  # noqa: E402
from venngraph.hamilton import find_hamilton  # noqa: E402
from venngraph.render import grid_layout  # noqa: E402
from venngraph.validate import validate, venn_check  # noqa: E402

VERBS = ("validate", "venn-check", "certify", "connectivity", "hamilton", "render")
# processes per verb and map, and calls per layer and map: one run's time
# varies by a third on a shared machine, which the median of three mostly
# resolves
REPEATS = 3

# each takes a freshly parsed map
LAYERS = {
    "validate": validate,
    "venn_check": venn_check,
    "write_arr": write_arr,
    "curve_index": lambda g: g.curve_index,
    "vertex_connectivity": vertex_connectivity,
    "certify_distance_two": lambda g: certify_distance_two(g, 4),
    "find_hamilton": find_hamilton,
    "grid_layout": grid_layout,
    "winkler_extend": winkler_extend,
}


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "venngraph.cli", *args]


def run_child(argv: list[str], stdout) -> dict:
    """Wall time, exit code and peak RSS of one child process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode}


def time_verb(argv: list[str]) -> dict:
    """Median wall time of ``REPEATS`` processes, with their range, the
    exit code they share and the largest of their peak RSS."""
    runs = [run_child(argv, subprocess.DEVNULL) for _ in range(REPEATS)]
    walls = sorted(r["wall_s"] for r in runs)
    exits = {r["exit"] for r in runs}
    if len(exits) > 1:
        raise SystemExit(f"{' '.join(argv)} exited with {sorted(exits)}")
    return {"wall_s": statistics.median(walls), "wall_range_s": [walls[0], walls[-1]],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs), "exit": exits.pop()}


def time_layers(text: str) -> dict[str, list[float]]:
    """``REPEATS`` timings of ``parse_arr`` on text and of each layer,
    every layer call on a map parsed afresh, in a "spawn" child process
    that times this map alone."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_layer_times, (text,))


def _layer_times(text: str) -> dict[str, list[float]]:
    times = {"parse_arr": [], **{name: [] for name in LAYERS}}
    for _ in range(REPEATS):
        start = time.perf_counter()
        parse_arr(text)
        times["parse_arr"].append(time.perf_counter() - start)
    for name, layer in LAYERS.items():
        for _ in range(REPEATS):
            g = parse_arr(text)
            start = time.perf_counter()
            layer(g)
            times[name].append(time.perf_counter() - start)
            del g
    return times


def build_maps(tmp: Path) -> dict[int, tuple[str, Path, dict]]:
    """The swept maps as ARR files, each with the pipeline that made it
    and the record of that pipeline's last process."""
    maps = {}
    for n in range(3, 13):
        path = tmp / f"venn{n}.arr"
        with open(path, "w") as out:
            built = run_child(cli("gen", "venn", str(n)), out)
        if built["exit"]:
            raise SystemExit(f"gen venn {n} failed")
        maps[n] = (f"gen venn {n}", path, built)
    source, path, _ = maps[12]
    for n in range(13, 17):
        step = tmp / f"venn{n}.arr"
        with open(step, "w") as out:
            built = run_child(cli("extend", str(path)), out)
        if built["exit"]:
            raise SystemExit(f"extend to {n} curves failed")
        source, path = f"{source} | extend", step
        if n in (14, 16):
            maps[n] = (source, path, built)
    return maps


def sweep() -> dict:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for n, (source, path, built) in build_maps(tmp).items():
            text = path.read_text()
            row = {"n": n, "source": source, "vertices": parse_arr(text).vertex_count,
                   "build": built, "cli": {}}
            for verb in VERBS:
                args = [verb, str(path)]
                if verb == "render":
                    args += ["-o", str(tmp / "out.svg")]
                row["cli"][verb] = time_verb(cli(*args))
            times = time_layers(text)
            row["layers_s"] = {name: round(statistics.median(t), 6) for name, t in times.items()}
            row["layers_range_s"] = {name: [round(min(t), 6), round(max(t), 6)]
                                     for name, t in times.items()}
            runs.append(row)
            print(f"n = {n}: V = {row['vertices']}, "
                  + ", ".join(f"{v} {r['wall_s']} s" for v, r in row["cli"].items()),
                  file=sys.stderr)
    return {
        "tool": "tools/scale.py",
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(), "arch": platform.machine(),
                    "cpus": os.cpu_count()},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args(argv)
    result = sweep()
    # one line per map, so that a diff shows which n moved
    rows = ",\n  ".join(json.dumps(row) for row in result.pop("runs"))
    args.out.write_text(json.dumps(result)[:-1] + ', "runs": [\n  ' + rows + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
