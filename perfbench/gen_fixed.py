"""Regenerate the fixed inputs of the ``certify_render`` workload.

Writes ``data/venn<n>.arr`` for n = 5..8, built by the package's own
extension chain from the 3-circle diagram, and ``data/manifest.json`` with
the SHA-256 of each file.  The workload checks those hashes at load, so a
later change to the generators cannot silently change what is measured.
The n = 8 step takes several seconds, which is why it happens here once
and not in the benchmark's set-up.

Usage: python3 perfbench/gen_fixed.py
"""

from __future__ import annotations

import hashlib
import json

import program

CURVES = range(5, 9)


def main() -> int:
    vg = program.load()
    g = vg.gen_venn3()
    manifest = {}
    for n in range(4, max(CURVES) + 1):
        g = vg.winkler_extend(g)
        if n not in CURVES:
            continue
        text = vg.write_arr(g)
        name = f"venn{n}.arr"
        (program.DATA / name).write_text(text, encoding="utf-8")
        manifest[name] = {
            "curves": n,
            "vertices": g.vertex_count,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        print(f"{name}: {g.vertex_count} vertices")
    (program.DATA / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
