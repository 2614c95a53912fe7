"""The CLI's exit-code contract, fuzzed in process.

Every case is an ARR text: a small arrangement, the same with one or two
twin pairs swapped (with and without the ``coord`` lines older versions
wrote for circle families), or its text with one line or one token
mutated.  Each case goes through every
verb, and the outcome must keep the contract that the ``cli`` module
docstring states.  The theorem is the oracle: a map that ``validate``
accepts is a V-graph, so it is 4-connected and certifies with no
fallback.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from venngraph.arrio import ArrSemanticError, ArrSyntaxError, parse_arr, write_arr
from venngraph.cli import main
from venngraph.generators import from_circles
from venngraph.maps import PlaneGraph

from conftest import (
    FLOWER_CIRCLES,
    LENS_CIRCLES,
    VENN3_CIRCLES,
    crossing_points,
    figure_eight,
    with_coord_lines,
)
from test_connectivity import KAPPA4_NON_V

APART = [(0, 0, 1), (1, 0, 1), (5, 0, 1), (6, 0, 1)]
# the circles of each source drawn from circles, for its coord lines
CIRCLES = {"venn3": VENN3_CIRCLES, "lens": LENS_CIRCLES, "flower": FLOWER_CIRCLES,
           "kappa4": KAPPA4_NON_V, "apart": APART}

# the stderr prefixes of a property failure, as the cli docstring lists them
PROPERTY_PREFIXES = ("not plane: ", "not connected: ", "not a v-graph: ", "not a diagram: ",
                     "layout: ", "vacuous: ", "no Hamilton cycle to overlay\n")


@pytest.fixture(scope="module")
def sources(venn_family, weaves, lens, flower) -> dict[str, PlaneGraph]:
    """gen_venn(3..5), the weaves k = 2, 3, the lens, the flower, the
    κ = 4 circle family, four circles in two pieces and the figure eight."""
    return {
        **{f"venn{n}": venn_family["graphs"][n] for n in (3, 4, 5)},
        "weave2": weaves[2],
        "weave3": weaves[3],
        "lens": lens,
        "flower": flower,
        "kappa4": from_circles(KAPPA4_NON_V),
        "apart": from_circles(APART),
        "eight": figure_eight(),
    }


def twin_swapped(rng: random.Random, g: PlaneGraph, swaps: int) -> PlaneGraph:
    """g with ``swaps`` random pairs of edges a-ta, b-tb rejoined as a-b,
    ta-tb."""
    twin = list(g._twin)
    for _ in range(swaps):
        a = rng.randrange(len(twin))
        b = rng.choice([d for d in range(len(twin)) if d not in (a, twin[a])])
        ta, tb = twin[a], twin[b]
        twin[a], twin[b], twin[ta], twin[tb] = b, a, tb, ta
    return PlaneGraph(g.vertex_count, twin)


def mutated(rng: random.Random, text: str) -> str:
    """text with one line deleted, doubled or swapped with another, or one
    token replaced or deleted."""
    lines = text.splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(j, lines[i])
    elif kind == 2:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split()
        k = rng.randrange(len(tokens))
        if kind == 3:
            del tokens[k]
        else:
            tokens[k] = rng.choice([*text.split(), str(rng.randrange(40)), "0.9", "x"])
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def corpus(sources: dict[str, PlaneGraph], seed: int = 30) -> list[tuple[str, str]]:
    """(name, ARR text) cases: each source as it is, with and without the
    coord lines of its circles, then its twin swaps and text mutations."""
    rng = random.Random(seed)
    cases = []
    for name, g in sources.items():
        points = crossing_points(CIRCLES[name]) if name in CIRCLES else ()
        for coords in (points, ()) if points else ((),):
            tag = f"{name}{'' if coords else '-bare'}"
            cases.append((tag, with_coord_lines(write_arr(twin_swapped(rng, g, 0)), coords)))
            for i in range(5):
                swapped = twin_swapped(rng, g, 1 + i % 2)
                cases.append((f"{tag}-swap{i}", with_coord_lines(write_arr(swapped), coords)))
        text = with_coord_lines(write_arr(g), points)
        cases += [(f"{name}-mutant{i}", mutated(rng, text)) for i in range(6)]
    return cases


def verbs(triple: tuple[int, int, int], svg: str) -> dict[str, list[str]]:
    """The argument lists run on each case, by name, without the input."""
    return {
        "validate": ["validate"],
        "venn-check": ["venn-check"],
        "connectivity": ["connectivity"],
        "certify": ["certify", "--verbose"],
        "hamilton": ["hamilton", "--budget", "20000"],
        "dual": ["dual"],
        "extend": ["extend"],
        "render-labels": ["render", "--labels", "-o", svg],
        "render-hamilton": ["render", "--hamilton", "-o", svg],
        "paths": ["paths", *map(str, triple)],
    }


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def outcomes(text: str, path: str, svg: str, rng: random.Random):
    """The parsed map, or the parse error, and each verb's outcome on text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        g = parse_arr(text)
    except (ArrSyntaxError, ArrSemanticError) as exc:
        g, triple = exc, (0, 1, 2)
    else:
        triples = g.distance2_pairs()
        triple = rng.choice(triples) if triples else (0, 1, 2)
    return g, {verb: run([*argv, path]) for verb, argv in verbs(triple, svg).items()}


def test_every_verb_keeps_the_exit_code_contract(tmp_path, sources):
    rng = random.Random(31)
    path, svg = str(tmp_path / "case.arr"), str(tmp_path / "case.svg")
    parsed = accepted = 0
    for name, text in corpus(sources):
        try:
            g, results = outcomes(text, path, svg, rng)
        except Exception as exc:  # the contract: nothing escapes main
            raise AssertionError(f"{name}: {exc!r} escaped main") from exc
        for verb, (code, out, err) in results.items():
            where = (name, verb, code, err)
            if not isinstance(g, PlaneGraph):
                assert code == 2 and err.startswith(f"input error: line {g.line}:"), where
            elif code == 2:
                assert err.startswith("budget: "), where
            elif code == 1:
                assert not err or err.startswith(PROPERTY_PREFIXES), where
            else:
                assert code == 0, where
        if isinstance(g, PlaneGraph):
            parsed += 1
        if results["validate"][0] == 0:
            accepted += 1
            assert results["connectivity"][1].startswith("connectivity: 4\n"), name
            code, out, _ = results["certify"]
            assert code == 0 and "fallbacks: 0" in out.splitlines(), name
    assert accepted >= 6 and parsed >= 90
