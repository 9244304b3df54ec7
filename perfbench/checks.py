"""Independent answer checks for the benchmark.

Everything here works from the benchmark's own edge list (a set of
``(source, target)`` label pairs captured when the inputs were made) and
imports nothing from ``repro``: a fault in the program's reduction, peel or
solver cannot be reproduced by the code that judges its answers.  Labels are
compared as strings, because answers that cross the wire come back with
stringified node labels.

Every ``check_*`` function returns ``None`` when the answer passes and raises
:class:`CheckFailed` naming the violated property otherwise.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

#: Relative slack for floating-point density comparisons.  Densities are
#: ``e / sqrt(|S| |T|)`` computed in double precision on both sides, so only
#: rounding separates two correct values.
REL_TOL = 1e-9

#: Relative slack for the LP reference, whose optimum HiGHS reports to its
#: own feasibility tolerance rather than exactly.
LP_REL_TOL = 1e-6

#: Largest graph (nodes touching an edge) the LP reference is run on.  The
#: reference solves one LP per distinct ratio ``a/b``, so its cost grows with
#: the square of the node count.
LP_MAX_NODES = 16


class CheckFailed(AssertionError):
    """An answer violated a property the checks verify independently."""


class EdgeList:
    """The benchmark's own copy of a graph's edges, keyed by string label."""

    def __init__(self, edges) -> None:
        self.out: dict[str, set[str]] = {}
        self.inn: dict[str, set[str]] = {}
        for u, v in edges:
            self.add(u, v)

    def add(self, u, v) -> None:
        u, v = str(u), str(v)
        self.out.setdefault(u, set()).add(v)
        self.inn.setdefault(v, set()).add(u)

    def remove(self, u, v) -> None:
        u, v = str(u), str(v)
        self.out[u].remove(v)
        self.inn[v].remove(u)

    def apply(self, added, removed) -> None:
        """Apply one ``(added, removed)`` update batch to this copy."""
        for u, v in removed:
            self.remove(u, v)
        for u, v in added:
            self.add(u, v)

    @property
    def num_edges(self) -> int:
        return sum(len(targets) for targets in self.out.values())

    def pair_edges(self, s_nodes, t_nodes) -> set[tuple[str, str]]:
        """The edges running from ``s_nodes`` into ``t_nodes``."""
        targets = {str(v) for v in t_nodes}
        return {
            (str(u), v)
            for u in s_nodes
            for v in self.out.get(str(u), ())
            if v in targets
        }

    def density(self, s_nodes, t_nodes) -> float:
        """Directed density ``e(S, T) / sqrt(|S| |T|)`` from this edge list."""
        if not s_nodes or not t_nodes:
            return 0.0
        return len(self.pair_edges(s_nodes, t_nodes)) / math.sqrt(len(s_nodes) * len(t_nodes))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def check_pair(edges: EdgeList, s_nodes, t_nodes, density: float, edge_count=None) -> None:
    """Re-derive the density of a returned ``(S, T)`` from the edge list."""
    if not s_nodes or not t_nodes:
        raise CheckFailed("answer has an empty side")
    if len(set(map(str, s_nodes))) != len(s_nodes) or len(set(map(str, t_nodes))) != len(t_nodes):
        raise CheckFailed("answer repeats a node")
    count = len(edges.pair_edges(s_nodes, t_nodes))
    if edge_count is not None and edge_count != count:
        raise CheckFailed(f"reported {edge_count} edges, the pair spans {count}")
    actual = count / math.sqrt(len(s_nodes) * len(t_nodes))
    if not _close(density, actual):
        raise CheckFailed(f"reported density {density!r}, the pair has {actual!r}")


# ----------------------------------------------------------------------
# core bounds from the benchmark's own peel
# ----------------------------------------------------------------------
def _max_y_for_x(edges: EdgeList, x: int) -> int:
    """Largest ``y`` with a non-empty [x, y]-core, by one two-sided peel.

    Keeps every remaining source at out-degree >= ``x`` (cascading removals)
    while repeatedly deleting the target of least in-degree; the largest
    least in-degree met along the way is ``y_max(x)``.
    """
    out_deg = {u: len(vs) for u, vs in edges.out.items()}
    in_deg = {v: len(us) for v, us in edges.inn.items()}
    s_alive = {u for u, d in out_deg.items() if d > 0}
    t_alive = {v for v, d in in_deg.items() if d > 0}

    def drop_source(u: str) -> None:
        s_alive.discard(u)
        for v in edges.out[u]:
            if v in t_alive:
                in_deg[v] -= 1
                heapq.heappush(heap, (in_deg[v], v))

    heap = [(d, v) for v, d in in_deg.items() if v in t_alive]
    heapq.heapify(heap)
    pending = [u for u in s_alive if out_deg[u] < x]
    best = 0
    while True:
        while pending:
            u = pending.pop()
            if u in s_alive:
                drop_source(u)
        if not s_alive:
            return best
        while heap and (heap[0][1] not in t_alive or heap[0][0] != in_deg[heap[0][1]]):
            heapq.heappop(heap)
        if not heap:
            return best
        degree, v = heapq.heappop(heap)
        best = max(best, degree)
        t_alive.discard(v)
        for u in edges.inn[v]:
            if u in s_alive:
                out_deg[u] -= 1
                if out_deg[u] < x:
                    pending.append(u)


def max_core_product(edges: EdgeList) -> int:
    """``max x * y`` over the non-empty [x, y]-cores: the product ``P`` of the max core.

    Step ``j = 1, 2, ...`` peels ``y_max(j)`` and, on the reversed edges,
    ``x_max(j)``, and so counts every core with ``x = j`` or ``y = j``.  A
    core not counted before step ``j`` has ``x >= j`` and ``y >= j``, hence
    ``x <= x_max(j)`` and ``y <= y_max(j)``, since both maxima fall as their
    argument grows; so the search stops once ``x_max(j) * y_max(j)`` cannot
    beat the best found.
    """
    reverse = EdgeList(())
    reverse.out, reverse.inn = edges.inn, edges.out
    best = 0
    j = 1
    while True:
        y_of_j, x_of_j = _max_y_for_x(edges, j), _max_y_for_x(reverse, j)
        if x_of_j * y_of_j <= best:
            return best
        best = max(best, j * y_of_j, j * x_of_j)
        j += 1


def best_star_density(edges: EdgeList) -> float:
    """Density of the best single-node star: ``sqrt(max degree)``."""
    degree = max(
        max((len(vs) for vs in edges.out.values()), default=0),
        max((len(us) for us in edges.inn.values()), default=0),
    )
    return math.sqrt(degree)


def check_exact_bounds(density: float, core_product: int, star: float) -> None:
    """An exact optimum lies in ``[sqrt(P), 2 sqrt(P)]`` and beats every star."""
    low, high = math.sqrt(core_product), 2.0 * math.sqrt(core_product)
    slack = REL_TOL * max(1.0, high)
    if not low - slack <= density <= high + slack:
        raise CheckFailed(f"exact density {density!r} outside core bounds [{low!r}, {high!r}]")
    if density < star - slack:
        raise CheckFailed(f"exact density {density!r} below the best star {star!r}")


# ----------------------------------------------------------------------
# Charikar's directed LP
# ----------------------------------------------------------------------
def lp_reference_density(edges: EdgeList) -> float:
    """The optimum directed density by Charikar's LP over every ratio ``a/b``.

    For ``c = a/b`` the LP maximises ``sum x_uv`` subject to ``x_uv <= s_u``,
    ``x_uv <= t_v``, ``sum s_u <= sqrt(c)``, ``sum t_v <= 1/sqrt(c)`` and
    non-negativity; its value never exceeds the optimum density and reaches
    it at the optimum's own ``|S|/|T|``.  Solved with HiGHS.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    pairs = [(u, v) for u, vs in edges.out.items() for v in vs]
    if not pairs:
        return 0.0
    sources = sorted({u for u, _ in pairs})
    targets = sorted({v for _, v in pairs})
    s_index = {u: i for i, u in enumerate(sources)}
    t_index = {v: i for i, v in enumerate(targets)}
    m, ns, nt = len(pairs), len(sources), len(targets)
    # Columns: x_e (m), s_u (ns), t_v (nt).  Rows: x_e - s_u <= 0 (m),
    # x_e - t_v <= 0 (m), sum s <= sqrt(c), sum t <= 1/sqrt(c).
    rows, cols, vals = [], [], []
    for e, (u, v) in enumerate(pairs):
        rows += [e, e, m + e, m + e]
        cols += [e, m + s_index[u], e, m + ns + t_index[v]]
        vals += [1.0, -1.0, 1.0, -1.0]
    for i in range(ns):
        rows.append(2 * m)
        cols.append(m + i)
        vals.append(1.0)
    for j in range(nt):
        rows.append(2 * m + 1)
        cols.append(m + ns + j)
        vals.append(1.0)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(2 * m + 2, m + ns + nt)).tocsr()
    cost = np.zeros(m + ns + nt)
    cost[:m] = -1.0
    b_ub = np.zeros(2 * m + 2)
    best = 0.0
    for ratio in sorted({Fraction(a, b) for a in range(1, ns + 1) for b in range(1, nt + 1)}):
        root = math.sqrt(ratio)
        b_ub[2 * m] = root
        b_ub[2 * m + 1] = 1.0 / root
        solution = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        if solution.status != 0:
            raise RuntimeError(f"LP reference failed at ratio {ratio}: {solution.message}")
        best = max(best, -solution.fun)
    return best


def lp_applicable(edges: EdgeList) -> bool:
    """Whether the graph is small enough for :func:`lp_reference_density`."""
    touched = {u for u, vs in edges.out.items() if vs} | {v for v, us in edges.inn.items() if us}
    return len(touched) <= LP_MAX_NODES


def check_matches_reference(density: float, reference: float) -> None:
    """An exact answer equals the independently computed optimum."""
    if not _close(density, reference, LP_REL_TOL):
        raise CheckFailed(f"exact density {density!r} differs from the LP optimum {reference!r}")


# ----------------------------------------------------------------------
# approximate, top-k, repeat and update answers
# ----------------------------------------------------------------------
def check_xy_core(edges: EdgeList, s_nodes, t_nodes, x: int, y: int, density: float) -> None:
    """``(S, T)`` is a genuine [x, y]-core whose density is at least ``sqrt(x y)``."""
    if x < 1 or y < 1:
        raise CheckFailed(f"core parameters [{x}, {y}] are not positive")
    check_pair(edges, s_nodes, t_nodes, density)
    targets = {str(v) for v in t_nodes}
    sources = {str(u) for u in s_nodes}
    for u in sources:
        if len(edges.out.get(u, set()) & targets) < x:
            raise CheckFailed(f"source {u} has fewer than {x} out-neighbours in T")
    for v in targets:
        if len(edges.inn.get(v, set()) & sources) < y:
            raise CheckFailed(f"target {v} has fewer than {y} in-neighbours in S")
    if density < math.sqrt(x * y) * (1.0 - REL_TOL):
        raise CheckFailed(f"core density {density!r} below sqrt({x} * {y})")


def xy_core_nodes(edges: EdgeList, x: int, y: int) -> tuple[set[str], set[str]]:
    """The maximal [x, y]-core ``(S, T)``, by peeling to a fixed point.

    Repeatedly drops every source with fewer than ``x`` out-neighbours in
    ``T`` and every target with fewer than ``y`` in-neighbours in ``S``.
    """
    sources = {u for u, vs in edges.out.items() if len(vs) >= x}
    targets = {v for v, us in edges.inn.items() if len(us) >= y}
    while True:
        kept_s = {u for u in sources if len(edges.out[u] & targets) >= x}
        kept_t = {v for v in targets if len(edges.inn[v] & kept_s) >= y}
        if kept_s == sources and kept_t == targets:
            break
        sources, targets = kept_s, kept_t
    if not sources or not targets:
        return set(), set()
    return sources, targets


def check_core_answer(edges: EdgeList, core: dict, x: int, y: int) -> None:
    """A served ``xy-core`` answer is the whole [x, y]-core, empty exactly when none exists.

    ``core`` carries ``x``, ``y``, ``empty``, ``s_size``, ``t_size`` and the
    node lists; it has no density, so the sizes are checked instead.
    """
    if (core["x"], core["y"]) != (x, y):
        raise CheckFailed(f"asked for the [{x}, {y}]-core, got [{core['x']}, {core['y']}]")
    if (core["s_size"], core["t_size"]) != (len(core["s_nodes"]), len(core["t_nodes"])):
        raise CheckFailed("core sizes disagree with its node lists")
    want_s, want_t = xy_core_nodes(edges, x, y)
    if core["empty"] != (not want_s):
        raise CheckFailed(f"core reported empty={core['empty']}, the [{x}, {y}]-core has {len(want_s)} sources")
    if {str(u) for u in core["s_nodes"]} != want_s or {str(v) for v in core["t_nodes"]} != want_t:
        raise CheckFailed(f"the answer is not the whole [{x}, {y}]-core")


def check_topk(edges: EdgeList, pairs: list[dict]) -> None:
    """Top-k pairs are consistent, non-increasing and, by count, edge-disjoint.

    Each pair is a dict with ``density``, ``edge_count``, ``s_size`` and
    ``t_size``, which is all a served top-k answer carries.  Without node
    lists, disjointness is checked as far as the counts allow: together the
    pairs cannot span more edges than the graph has.
    """
    if not pairs:
        raise CheckFailed("top-k returned no pairs")
    total = 0
    previous = math.inf
    for rank, pair in enumerate(pairs, start=1):
        density, count = pair["density"], pair["edge_count"]
        if not _close(density, count / math.sqrt(pair["s_size"] * pair["t_size"])):
            raise CheckFailed(f"rank {rank}: density {density!r} disagrees with its counts")
        if density > previous * (1.0 + REL_TOL):
            raise CheckFailed(f"rank {rank}: density {density!r} above rank {rank - 1}")
        previous = density
        total += count
    if total > edges.num_edges:
        raise CheckFailed(f"pairs span {total} edges, the graph has {edges.num_edges}")


def check_repeat(first, again) -> None:
    """A repeated query returns its first answer."""
    if first != again:
        raise CheckFailed("a repeated query returned a different answer")


def check_not_below(edges: EdgeList, density: float, s_nodes, t_nodes) -> None:
    """The optimum is at least any pair's density on the current graph."""
    floor = edges.density(s_nodes, t_nodes)
    if density < floor * (1.0 - REL_TOL):
        raise CheckFailed(f"density {density!r} below an existing pair's {floor!r}")
