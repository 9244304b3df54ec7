"""Per-layer metrics of a traced run, from spans and per-operation counters.

Times are self times (a span minus its traced children) summed over the
armed operations and divided by their number, so they read as seconds per
operation and add up, with ``other``, to the traced operation wall.  Spans
from the served workload's daemon are included: the daemon traces the same
operations in its own process.  ``graph.build_s`` is the exception: it is
the graph layer's time during the last set-up, the layer ``setup_s`` times.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import self_times

#: metric -> (span names whose self time it sums, unit)
TIMES = {
    "xycore.busy_s": (("xycore.xy_core", "xycore.max_xy_core"), "s/op"),
    "driver.self_s": (("driver.core_exact", "driver.dc_exact", "driver.fixed_ratio"), "s/op"),
    "network.build_s": (("network.build",), "s/op"),
    "network.retune_s": (("network.retune",), "s/op"),
    "network.extract_s": (("network.extract",), "s/op"),
    "flow.min_cut_s": (("flow.min_cut",), "s/op"),
    "planner.plan_s": (("planner.plan",), "s/op"),
    "store.save_s": (("store.save",), "s/op"),
    "store.warm_s": (("store.warm",), "s/op"),
    "wire.encode_s": (("wire.encode",), "s/op"),
    "wire.decode_s": (("wire.decode",), "s/op"),
    "client.wait_s": (("client.solve_lane",), "s/op"),
    "daemon.solve_s": (("daemon.solve",), "s/op"),
    "update.apply_s": (("update.apply",), "s/op"),
    "update.patch_degrees_s": (("update.patch_degrees",), "s/op"),
    "update.refresh_cores_s": (("update.refresh_cores",), "s/op"),
    "update.patch_networks_s": (("update.patch_networks",), "s/op"),
    "update.certify_s": (("update.certify",), "s/op"),
}

#: metric -> span name whose calls it counts per operation
CALLS = {
    "xycore.calls": "xycore.xy_core",
    "network.builds": "network.build",
    "network.retunes": "network.retune",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(records: list[dict], spans: list, remote_spans: list, round_size: int) -> dict:
    """Per-layer metrics of the armed records; a round holds ``round_size`` operations."""
    armed = [record for record in records if record["armed"]]
    disarmed = [record for record in records if not record["armed"]]
    ops = {record["op"] for record in armed}
    count = len(armed)

    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    extra: dict[str, int] = defaultdict(int)
    setup_graph = 0.0
    for source in (spans, remote_spans):
        for op, name, self_s, _, counters in self_times(source):
            if op == "setup":
                setup_graph += self_s if name == "graph.build" else 0.0
                continue
            if op not in ops or name == "op":
                continue
            own[name] += self_s
            calls[name] += 1
            for key, value in (counters or {}).items():
                extra[key] += value

    # Wall no span covers: each client root minus its direct children.
    roots = {span[1]: span for span in spans if span[3] == "op" and span[0] in ops}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[2] in roots:
            covered[span[2]] += span[5] - span[4]
    other = sum(root[5] - root[4] - covered[root_id] for root_id, root in roots.items())

    obs: dict[str, int] = defaultdict(int)
    for record in armed:
        for key, value in record["obs"].items():
            obs[key] += value

    metrics = {}
    for metric, (names, unit) in TIMES.items():
        metrics[metric] = {"value": sum(own[name] for name in names) / count, "unit": unit}
    for metric, name in CALLS.items():
        metrics[metric] = {"value": calls[name] / count, "unit": "1/op"}
    flow_calls = extra["flow_calls"]
    metrics.update({
        "flow.min_cut_calls": {"value": flow_calls / count, "unit": "1/op"},
        "flow.arcs_pushed": {"value": extra["arcs_pushed"] / count, "unit": "1/op"},
        "flow.arcs_per_call": {"value": _ratio(extra["arcs_pushed"], flow_calls), "unit": "1/call"},
        "flow.warm_start_ratio": {
            "value": _ratio(extra["warm_starts_used"], extra["warm_starts_used"] + extra["cold_starts"]),
            "unit": "ratio",
        },
        "session.result_hit_ratio": {
            "value": _ratio(obs["result_cache_hits"], obs["queries"]), "unit": "ratio"},
        "session.network_reuse_ratio": {
            "value": _ratio(obs["networks_reused"], obs["networks_built"] + obs["networks_reused"]),
            "unit": "ratio",
        },
        "wire.bytes_sent": {"value": obs["bytes_sent"] / count, "unit": "B/op"},
        "wire.bytes_received": {"value": obs["bytes_received"] / count, "unit": "B/op"},
        "client.retries": {"value": obs["retries"] / count, "unit": "1/op"},
        "update.certified_ratio": {
            "value": _ratio(obs["certified"], obs["certified"] + obs["invalidated"]),
            "unit": "ratio",
        },
        "update.research_runs": {"value": obs["local_research_runs"] / count, "unit": "1/op"},
        "graph.build_s": {"value": setup_graph, "unit": "s"},
        "other": {"value": other / count, "unit": "s/op"},
    })
    # The first round warms caches a live session keeps (update-stream), so
    # the untraced baseline starts with the second disarmed round.
    baseline = [record for record in disarmed if record["op"] >= round_size]
    traced = sum(record["seconds"] for record in armed) / count
    untraced = sum(record["seconds"] for record in baseline) / len(baseline)
    metrics["trace.op_wall_s"] = {"value": traced, "unit": "s/op"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return metrics
