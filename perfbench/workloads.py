"""The benchmark's four workloads.

Each workload is a closed loop with one client: it sends the next operation
only after the previous one has answered.  A workload builds its inputs from
the seed in :meth:`Workload.setup`, hands the runner one *round* of
operations from :meth:`Workload.operations` (the runner repeats whole rounds),
and judges every recorded answer in :meth:`Workload.check` with the
independent checks of :mod:`checks`, outside the timed span.

An operation is a callable taking a :class:`Clock`.  It does its timed work
inside ``with clock:`` and returns a record: the answer to check plus ``obs``,
counters read after the clock stopped.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import checks
from checks import CheckFailed, EdgeList

import repro.graph.generators as gen
from repro import DDSSession
from repro.service.executor import BatchExecutor
from repro.service import planner
from repro.service.queries import payload_answer


class OperationFailed(RuntimeError):
    """An operation completed but not the way the workload requires."""


class Clock:
    """Times one operation and, when given a tracer, arms it for the operation."""

    def __init__(self, op: int, tracer: Any = None) -> None:
        self.op = op
        self.tracer = tracer
        self.seconds = 0.0

    @property
    def armed(self) -> bool:
        return self.tracer is not None

    def __enter__(self) -> "Clock":
        if self.tracer is not None:
            self.tracer.begin(self.op)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end()


def _nonempty(build: Callable[[int], Any], rng: random.Random):
    """``build(seed)`` with seeds drawn from ``rng`` until the graph has an edge."""
    while True:
        graph = build(rng.randrange(2**31))
        if graph.num_edges:
            return graph


def _planted(n_background: int, s_size: int, t_size: int, background_degree: float = 2.0):
    return lambda seed: gen.planted_dds_digraph(
        n_background, background_degree, s_size, t_size, 0.8, seed=seed
    )[0]


def _powerlaw(n: int):
    return lambda seed: gen.powerlaw_digraph(n, average_degree=3.0, exponent=2.3, seed=seed)


def _rmat(scale: int, edge_factor: int, partition=(0.57, 0.19, 0.19, 0.05)):
    return lambda seed: gen.rmat_digraph(scale, edge_factor, partition=partition, seed=seed)


def _uniform(n: int):
    return lambda seed: gen.gnm_random_digraph(n, 3 * n, seed=seed)


class Workload:
    """One benchmark workload; see the module docstring for the protocol."""

    name = ""

    def __init__(self, seed: int, run_dir: Path, trace: bool) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.trace = trace
        self.remote_spans: list = []
        self._references: dict[Any, tuple] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what :meth:`setup` started (the runner sets up several times)."""

    def prepare_checks(self) -> None:
        """Untimed bookkeeping the checks need before the first operation."""

    def operations(self) -> list[Callable[[Clock], dict]]:
        raise NotImplementedError

    def check(self, record: dict) -> None:
        raise NotImplementedError

    def extra_peak_rss_kb(self) -> int:
        """Peak resident memory of processes the workload started, in KiB."""
        return 0

    def exact_reference(self, key: Any, edges: EdgeList) -> tuple[int, float, float | None]:
        """``(P, best star, LP optimum or None)`` for one graph state, memoised."""
        reference = self._references.get(key)
        if reference is None:
            lp = checks.lp_reference_density(edges) if checks.lp_applicable(edges) else None
            reference = (checks.max_core_product(edges), checks.best_star_density(edges), lp)
            self._references[key] = reference
        return reference

    def check_exact(self, key: Any, edges: EdgeList, answer: dict) -> None:
        """Density re-derived, core and star bounds, and the LP where it applies."""
        checks.check_pair(
            edges, answer["s_nodes"], answer["t_nodes"], answer["density"], answer["edge_count"]
        )
        product, star, lp = self.exact_reference(key, edges)
        checks.check_exact_bounds(answer["density"], product, star)
        if lp is not None:
            checks.check_matches_reference(answer["density"], lp)


def _answer(result) -> dict:
    return {
        "density": result.density,
        "edge_count": result.edge_count,
        "s_nodes": list(result.s_nodes),
        "t_nodes": list(result.t_nodes),
        "method": result.method,
    }


def _session_obs(stats: dict, before: dict | None = None) -> dict:
    keys = ("queries", "result_cache_hits", "networks_built", "networks_reused", "local_research_runs")
    return {key: stats.get(key, 0) - (before or {}).get(key, 0) for key in keys}


# ----------------------------------------------------------------------
# exact-cold
# ----------------------------------------------------------------------
#: One round: (label prefix, shape, method, instances, solves per instance).
#: Cost bands, so that each percentile falls inside one band instead of
#: jumping across a gap between kinds of operation from seed to seed:
#:
#: * 4 tiny graphs the LP reference checks;
#: * 30 mid-size graphs of three shapes, about 100 ms each, which hold the
#:   median;
#: * 12 graphs of about 300 ms (a quarter of the round), which hold the 90th
#:   percentile;
#: * one 1.5k-node planted graph, solved twice, the slowest operations.
EXACT_POOL = (
    ("tiny-uniform", _uniform(10), "core-exact", 1, 1),
    ("tiny-uniform", _uniform(12), "dc-exact", 1, 1),
    ("tiny-powerlaw", _powerlaw(12), "core-exact", 1, 1),
    ("tiny-rmat", _rmat(3, 3), "dc-exact", 1, 1),
    ("planted", _planted(200, 5, 6), "core-exact", 6, 1),
    ("rmat", _rmat(6, 3), "core-exact", 5, 1),
    ("rmat", _rmat(6, 3), "dc-exact", 5, 1),
    ("uniform", _uniform(30), "core-exact", 7, 1),
    ("uniform", _uniform(30), "dc-exact", 7, 1),
    ("rmat", _rmat(7, 3), "core-exact", 8, 1),
    ("planted", _planted(300, 5, 6), "dc-exact", 4, 1),
    ("large-planted", _planted(1500, 5, 6, background_degree=1.0), "core-exact", 1, 2),
)


class ExactCold(Workload):
    """A fresh session per operation answering ``core-exact`` or ``dc-exact``.

    Each operation solves a copy of its pool graph made before the clock
    starts.  No session ever sees a pool graph itself, so the copy carries no
    cached adjacency lists or fingerprint: every operation, repeats of the
    same graph included, pays the cold graph path.
    """

    name = "exact-cold"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.pool = []
        for prefix, shape, method, instances, solves in EXACT_POOL:
            for _ in range(instances):
                entry = (f"{prefix}{len(self.pool)}", _nonempty(shape, rng), method)
                self.pool.extend([entry] * solves)
        DDSSession(self.pool[0][1].copy()).densest_subgraph(self.pool[0][2])

    def prepare_checks(self) -> None:
        self.edges = {label: EdgeList(graph.edges()) for label, graph, _ in self.pool}

    def operations(self) -> list[Callable[[Clock], dict]]:
        return [functools.partial(self._solve, label, graph, method) for label, graph, method in self.pool]

    @staticmethod
    def _solve(label: str, graph, method: str, clock: Clock) -> dict:
        cold = graph.copy()
        with clock:
            session = DDSSession(cold)
            result = session.densest_subgraph(method)
        return {"graph": label, "want": method, "answer": _answer(result),
                "obs": _session_obs(session.cache_stats())}

    def check(self, record: dict) -> None:
        answer = record["answer"]
        if answer["method"] != record["want"]:
            raise CheckFailed(f"asked for {record['want']}, got {answer['method']}")
        self.check_exact(record["graph"], self.edges[record["graph"]], answer)


# ----------------------------------------------------------------------
# approx-large
# ----------------------------------------------------------------------
#: Distinct graphs per run.  The peel's cost follows each graph's hubs, so
#: the medians need many instances to settle.
APPROX_GRAPHS = 24
APPROX_SHAPE = _rmat(12, 2, partition=(0.4, 0.25, 0.25, 0.1))


class ApproxLarge(Workload):
    """A fresh session per operation answering ``auto`` on a 4096-node R-MAT graph.

    Like :class:`ExactCold`, each operation solves an uncached copy of its
    pool graph.
    """

    name = "approx-large"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.pool = [(f"rmat{i}", _nonempty(APPROX_SHAPE, rng)) for i in range(APPROX_GRAPHS)]
        warm = _nonempty(_rmat(8, 2, partition=(0.4, 0.25, 0.25, 0.1)), rng)
        DDSSession(warm).densest_subgraph("auto")

    def prepare_checks(self) -> None:
        self.edges = {label: EdgeList(graph.edges()) for label, graph in self.pool}
        self.core_products: dict[str, int] = {}

    def operations(self) -> list[Callable[[Clock], dict]]:
        return [functools.partial(self._solve, label, graph) for label, graph in self.pool]

    @staticmethod
    def _solve(label: str, graph, clock: Clock) -> dict:
        cold = graph.copy()
        with clock:
            session = DDSSession(cold)
            result = session.densest_subgraph("auto")
        answer = _answer(result)
        answer["x"], answer["y"] = result.stats.get("core_x", 0), result.stats.get("core_y", 0)
        return {"graph": label, "answer": answer, "obs": _session_obs(session.cache_stats())}

    def check(self, record: dict) -> None:
        answer = record["answer"]
        if answer["method"] != "core-approx":
            raise CheckFailed(f"auto resolved to {answer['method']}, not core-approx")
        label = record["graph"]
        edges = self.edges[label]
        checks.check_xy_core(
            edges, answer["s_nodes"], answer["t_nodes"], answer["x"], answer["y"], answer["density"]
        )
        if label not in self.core_products:
            self.core_products[label] = checks.max_core_product(edges)
        if answer["x"] * answer["y"] != self.core_products[label]:
            raise CheckFailed(
                f"[{answer['x']}, {answer['y']}]-core is not the maximum, whose x*y is "
                f"{self.core_products[label]}"
            )


# ----------------------------------------------------------------------
# served-remote
# ----------------------------------------------------------------------
#: Graphs the daemon serves.  One shape and size, so every operation is
#: the same unit of work; the exact top-k inside it still costs a third more
#: or less from one graph to the next, so the medians need many graphs.
SERVED_GRAPHS = 32
SERVED_SHAPE = _rmat(5, 3, partition=(0.4, 0.25, 0.25, 0.1))

#: One operation: the whole query mix against one graph.  ``fixed-ratio``
#: is left out: on some graphs its bracket comes back inverted by one ulp
#: (lower > upper), which would fail operations on some seeds only.
QUERY_MIX = (
    {"query": "densest", "method": "core-exact", "show_nodes": True},
    {"query": "densest", "method": "core-approx", "show_nodes": True},
    {"query": "top-k", "method": "core-exact", "k": 3},
    {"query": "xy-core", "x": 2, "y": 2, "show_nodes": True},
    {"query": "summary"},
)

#: Resident sessions the daemon keeps.  Half the graph pool: the round-robin
#: order then evicts every session before it is asked again, so each request
#: rebuilds its session from the wire and warms it from the store.
SERVED_RESIDENT = SERVED_GRAPHS // 2


class Daemon:
    """A ``dds-repro serve`` process started through ``daemon_launcher.py``.

    Parses the ``{"serving": ...}`` ready line, and on :meth:`stop` drains the
    daemon, waits for the process, collects its spans (traced runs) and
    removes its store directory.
    """

    def __init__(self, run_dir: Path, trace: bool) -> None:
        self.store = run_dir / "store"
        self.spans_path = run_dir / "spans.json" if trace else None
        command = [
            sys.executable, str(Path(__file__).with_name("daemon_launcher.py")),
            "--store", str(self.store), "--max-sessions", str(SERVED_RESIDENT), "--jobs", "1",
        ]
        if self.spans_path is not None:
            command += ["--spans-out", str(self.spans_path)]
        source = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        line = self.process.stdout.readline()
        try:
            self.address = json.loads(line)["serving"]
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise RuntimeError(f"daemon did not report ready: {line!r}")

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> list:
        """Drain and reap the daemon; returns its spans (empty when untraced)."""
        from repro.net.client import ShardClient, parse_host_port

        try:
            host, port = parse_host_port(self.address)
            ShardClient(host, port).drain()
            self.process.stdout.read()
            self.process.wait(timeout=30)
        finally:
            self.kill()
        spans = []
        if self.spans_path is not None and self.spans_path.exists():
            spans = json.loads(self.spans_path.read_text())
            self.spans_path.unlink()
        shutil.rmtree(self.store, ignore_errors=True)
        return spans

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class ServedRemote(Workload):
    """Query-mix batches sent through ``BatchExecutor(remote_hosts=...)`` to one daemon."""

    name = "served-remote"

    def __init__(self, seed: int, run_dir: Path, trace: bool) -> None:
        super().__init__(seed, run_dir, trace)
        self.daemon: Daemon | None = None

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.graphs = {f"g{i}": _nonempty(SERVED_SHAPE, rng) for i in range(SERVED_GRAPHS)}
        self.daemon = Daemon(self.run_dir, self.trace)
        self.executor = BatchExecutor(
            lambda key: self.graphs[key.split("|")[0]],
            remote_hosts=[self.daemon.address],
            max_workers=1,
        )
        # Store every graph's densest answers, so that each timed request,
        # the first one included, warms its session from the store.
        for name in self.graphs:
            key = f"{name}|warm|0"
            self.executor.execute(planner.plan_batch([dict(spec, dataset=key) for spec in QUERY_MIX[:2]]))

    def teardown(self) -> None:
        if self.daemon is not None:
            self.remote_spans = self.daemon.stop()
            self.daemon = None

    def extra_peak_rss_kb(self) -> int:
        return self.daemon.peak_rss_kb() if self.daemon is not None else 0

    def prepare_checks(self) -> None:
        self.edges = {name: EdgeList(graph.edges()) for name, graph in self.graphs.items()}
        self.first: dict[str, list] = {}

    def _serve(self, name: str, op: Any, armed: bool) -> tuple[list, Any]:
        # The graph key carries the operation id and whether it is traced,
        # so the daemon can arm its own tracer for exactly this request.
        key = f"{name}|{op}|{int(armed)}"
        plan = planner.plan_batch([dict(spec, dataset=key) for spec in QUERY_MIX])
        report = self.executor.execute(plan)
        stats = report.executor_stats
        if stats.get("lanes_inline") or stats.get("remote_failures") or stats.get("degraded_lanes"):
            raise OperationFailed(f"lane for {name} did not complete remotely: {stats}")
        payloads = report.results_in_input_order()
        return payloads, report

    def operations(self) -> list[Callable[[Clock], dict]]:
        return [functools.partial(self._request, name) for name in self.graphs]

    def _request(self, name: str, clock: Clock) -> dict:
        with clock:
            payloads, report = self._serve(name, clock.op, clock.armed)
        client = report.executor_stats.get("client", {})
        obs = _session_obs(next(iter(report.session_stats.values())))
        obs.update({key: client.get(key, 0) for key in ("bytes_sent", "bytes_received", "retries")})
        return {"graph": name, "payloads": payloads, "obs": obs}

    def check(self, record: dict) -> None:
        name = record["graph"]
        edges = self.edges[name]
        exact, approx, topk, core, summary = record["payloads"]
        answers = payload_answer(record["payloads"])
        checks.check_repeat(self.first.setdefault(name, answers), answers)
        self.check_exact(name, edges, exact)
        optimum = exact["density"]
        checks.check_pair(edges, approx["s_nodes"], approx["t_nodes"], approx["density"], approx["edge_count"])
        if not optimum / 2.0 * (1 - checks.REL_TOL) <= approx["density"] <= optimum * (1 + checks.REL_TOL):
            raise CheckFailed(f"approx density {approx['density']!r} outside [rho*/2, rho*]")
        checks.check_topk(edges, topk)
        if not math.isclose(topk[0]["density"], optimum, rel_tol=checks.REL_TOL):
            raise CheckFailed("top-k rank 1 is not the optimum")
        checks.check_core_answer(edges, core, 2, 2)
        if summary["edges"] != edges.num_edges:
            raise CheckFailed(f"summary reports {summary['edges']} edges, the graph has {edges.num_edges}")


# ----------------------------------------------------------------------
# update-stream
# ----------------------------------------------------------------------
#: Live sessions, each applying its own stream.  One graph's exact-query
#: cost moves by a third from one seed to the next; a dozen independent
#: streams average that out.
UPDATE_SESSIONS = 12

#: Batches generated per stream: more than any run can apply (a run stops
#: after HARD_LIMIT_S), so a stream never runs out.
UPDATE_STEPS = 400


class UpdateStream(Workload):
    """Live sessions applying seeded streams of mixed insert/remove batches.

    A round applies the next batch of every stream, then asks that session
    for the exact answer on its updated graph.  Batches are small against
    the graph, so the inputs drift little over a run.
    """

    name = "update-stream"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.streams = []
        for _ in range(UPDATE_SESSIONS):
            graph = _nonempty(_planted(200, 8, 10), rng)
            batches = gen.edge_update_stream(
                graph, UPDATE_STEPS, batch_size=4, p_add=0.5, seed=rng.randrange(2**31)
            )
            session = DDSSession(graph)
            initial = _answer(session.densest_subgraph("core-exact"))
            self.streams.append({"graph": graph, "batches": batches, "session": session,
                                 "initial": initial, "applied": 0})

    def prepare_checks(self) -> None:
        self.edges = [EdgeList(stream["graph"].edges()) for stream in self.streams]
        self.previous = [stream["initial"] for stream in self.streams]
        self.replayed = [0] * len(self.streams)

    def operations(self) -> list[Callable[[Clock], dict]]:
        return [functools.partial(self._update, index) for index in range(len(self.streams))]

    def _update(self, index: int, clock: Clock) -> dict:
        stream = self.streams[index]
        step = stream["applied"]
        added, removed = stream["batches"][step]
        session = stream["session"]
        stream["applied"] += 1
        before = session.cache_stats()
        with clock:
            report = session.apply_updates(added, removed)
            result = session.densest_subgraph("core-exact")
        obs = _session_obs(session.cache_stats(), before)
        obs.update(certified=report.results_certified, invalidated=report.results_invalidated)
        return {"stream": index, "step": step, "answer": _answer(result), "obs": obs}

    def check(self, record: dict) -> None:
        # Records arrive in operation order, so each stream's edge list
        # replays its batches alongside them (including any batch whose
        # operation failed and left no record).
        index, step = record["stream"], record["step"]
        edges = self.edges[index]
        for batch in self.streams[index]["batches"][self.replayed[index]:step + 1]:
            edges.apply(*batch)
        self.replayed[index] = step + 1
        answer = record["answer"]
        self.check_exact((index, step), edges, answer)
        previous = self.previous[index]
        checks.check_not_below(edges, answer["density"], previous["s_nodes"], previous["t_nodes"])
        self.previous[index] = answer


WORKLOADS = {cls.name: cls for cls in (ExactCold, ApproxLarge, ServedRemote, UpdateStream)}
