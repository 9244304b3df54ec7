"""Tests of the benchmark's own answer checks and span accounting.

Each check must accept a correct answer and reject a deliberately corrupted
one.  Run with ``python3 -m pytest perfbench -q`` from the repository root.
The LP reference needs scipy; its tests are skipped where scipy is missing.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

import checks
from checks import CheckFailed, EdgeList
from tracing import Tracer, self_times


def _brute_force(edges: EdgeList, nodes: list[str]) -> tuple[float, list[str], list[str]]:
    best = (0.0, [], [])
    subsets = [
        list(combo)
        for size in range(1, len(nodes) + 1)
        for combo in itertools.combinations(nodes, size)
    ]
    for s in subsets:
        for t in subsets:
            density = edges.density(s, t)
            if density > best[0]:
                best = (density, s, t)
    return best


def _random_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return rng.sample(pairs, m)


@pytest.fixture(params=[1, 2, 3])
def tiny(request):
    edges = EdgeList(_random_edges(5, 9, request.param))
    nodes = [str(i) for i in range(5)]
    return edges, _brute_force(edges, nodes)


def test_lp_reference_matches_brute_force(tiny):
    pytest.importorskip("scipy")
    edges, (optimum, _, _) = tiny
    assert checks.lp_applicable(edges)
    reference = checks.lp_reference_density(edges)
    assert math.isclose(reference, optimum, rel_tol=1e-7)
    checks.check_matches_reference(optimum, reference)
    with pytest.raises(CheckFailed):
        checks.check_matches_reference(optimum * 1.01, reference)


def test_exact_answer_passes_every_check(tiny):
    edges, (optimum, s, t) = tiny
    checks.check_pair(edges, s, t, optimum)
    checks.check_exact_bounds(optimum, checks.max_core_product(edges), checks.best_star_density(edges))


def test_flipped_node_is_rejected(tiny):
    edges, (optimum, s, t) = tiny
    outsider = next(str(i) for i in range(5) if str(i) not in s)
    with pytest.raises(CheckFailed):
        checks.check_pair(edges, [outsider] + s[1:], t, optimum)


def test_inflated_density_is_rejected(tiny):
    edges, (optimum, s, t) = tiny
    with pytest.raises(CheckFailed):
        checks.check_pair(edges, s, t, optimum * 1.01)
    with pytest.raises(CheckFailed):
        checks.check_exact_bounds(
            2.01 * math.sqrt(checks.max_core_product(edges)),
            checks.max_core_product(edges),
            checks.best_star_density(edges),
        )


def test_answer_below_best_star_is_rejected():
    star = EdgeList([(0, v) for v in range(1, 10)])
    with pytest.raises(CheckFailed):
        checks.check_exact_bounds(2.9, checks.max_core_product(star), checks.best_star_density(star))


def test_peels_match_program_peel():
    source = str(Path(__file__).resolve().parent.parent / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from repro.core.xycore import max_xy_core, xy_core
    from repro.graph.digraph import DiGraph

    for seed in range(5):
        for n, m in ((12, 40), (40, 200)):
            skewed = [(u, v) for u, v in _random_edges(n, m, seed) if u % 3 == 0 or v % 5 == 0]
            core = max_xy_core(DiGraph.from_edges(skewed))
            assert checks.max_core_product(EdgeList(skewed)) == core.x * core.y
        pairs = _random_edges(12, 40, seed)
        graph = DiGraph.from_edges(pairs)
        core = max_xy_core(graph)
        assert checks.max_core_product(EdgeList(pairs)) == core.x * core.y
        for x, y in ((1, 1), (2, 2), (3, 2), (2, 4)):
            program = xy_core(graph, x, y)
            s, t = checks.xy_core_nodes(EdgeList(pairs), x, y)
            assert s == {str(graph.label_of(i)) for i in program.s_nodes}
            assert t == {str(graph.label_of(i)) for i in program.t_nodes}


def test_xy_core_check():
    block = [(u, v) for u in range(3) for v in range(10, 14)]
    edges = EdgeList(block + [(20, 10), (3, 11)])
    s, t = [0, 1, 2], [10, 11, 12, 13]
    checks.check_xy_core(edges, s, t, 4, 3, edges.density(s, t))
    with pytest.raises(CheckFailed):  # a flipped node: 3 has one edge into T
        checks.check_xy_core(edges, [0, 1, 3], t, 4, 3, edges.density([0, 1, 3], t))
    with pytest.raises(CheckFailed):  # an inflated degree claim
        checks.check_xy_core(edges, s, t, 5, 3, edges.density(s, t))


def test_served_core_check():
    block = [(u, v) for u in range(3) for v in range(10, 13)]
    edges = EdgeList(block + [(20, 10), (3, 11)])
    s, t = ["0", "1", "2"], ["10", "11", "12"]

    def core(s_nodes, t_nodes, x=2, y=2, empty=False):
        return {"x": x, "y": y, "empty": empty, "s_size": len(s_nodes), "t_size": len(t_nodes),
                "s_nodes": s_nodes, "t_nodes": t_nodes}

    checks.check_core_answer(edges, core(s, t), 2, 2)
    checks.check_core_answer(edges, core([], [], 4, 4, True), 4, 4)
    with pytest.raises(CheckFailed):  # a flipped node
        checks.check_core_answer(edges, core(["0", "1", "3"], t), 2, 2)
    with pytest.raises(CheckFailed):  # a node missing: not the whole core
        checks.check_core_answer(edges, core(s[:2], t), 2, 2)
    with pytest.raises(CheckFailed):  # other parameters than asked for
        checks.check_core_answer(edges, core(s, t, 3, 3), 2, 2)
    with pytest.raises(CheckFailed):  # empty although the core exists
        checks.check_core_answer(edges, core([], [], empty=True), 2, 2)


def test_topk_check():
    edges = EdgeList([(0, 1), (0, 2), (1, 2)])

    def pair(s, t):
        count = len(edges.pair_edges(s, t))
        return {"density": count / math.sqrt(len(s) * len(t)),
                "edge_count": count, "s_size": len(s), "t_size": len(t)}

    checks.check_topk(edges, [pair([0, 1], [1, 2])])
    checks.check_topk(edges, [pair([0], [1, 2]), pair([1], [2])])
    with pytest.raises(CheckFailed):  # overlapping pairs share the edge 0 -> 2
        checks.check_topk(edges, [pair([0, 1], [1, 2]), pair([0], [2])])
    with pytest.raises(CheckFailed):  # densities must not increase
        checks.check_topk(edges, [pair([1], [2]), pair([0], [1, 2])])
    inflated = pair([0, 1], [1, 2])
    inflated["density"] *= 1.01
    with pytest.raises(CheckFailed):  # density disagrees with its counts
        checks.check_topk(edges, [inflated])


def test_repeat_and_update_checks():
    checks.check_repeat({"density": 2.0}, {"density": 2.0})
    with pytest.raises(CheckFailed):
        checks.check_repeat({"density": 2.0}, {"density": 2.5})
    edges = EdgeList([(0, 1), (0, 2), (1, 2)])
    checks.check_not_below(edges, edges.density([0, 1], [1, 2]), [0, 1], [1, 2])
    edges.apply([(1, 0)], [(1, 2)])
    with pytest.raises(CheckFailed):
        checks.check_not_below(edges, 0.5, [0, 1], [0, 1, 2])


def test_self_time_and_arming():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert tracer.spans == []  # disarmed: calls pass straight through
    tracer.begin(7)
    outer()
    tracer.end()
    rows = {name: (op, own, duration) for op, name, own, duration, _ in self_times(tracer.spans)}
    assert {op for op, _, _ in rows.values()} == {7}
    assert rows["outer"][1] == pytest.approx(rows["outer"][2] - rows["inner"][2])
    assert rows["op"][2] >= rows["outer"][2]
