"""Spans and counters around fanetsim's layer boundaries, for traced passes.

``Recorder.install()`` replaces public entry points with timing wrappers
at the place where their callers look them up (module globals such as
``simharness.record_trace``, or methods such as ``Fleet.advance``), and
``uninstall()`` puts the originals back, so untraced passes run the
unmodified library.  Every wrapped call becomes a span holding its name,
start, end, parent span and deployment id (the count of fleets built so
far).  Spans stay in memory; ``layer_metrics()`` reduces them to the
per-layer metrics and ``write_spans()`` dumps them at the end of a run.

A span's self time is its duration minus the durations of its direct
children; because calls nest strictly in one thread, that equals the
part of its interval that no child covers.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

from fanetsim import analysis, geometry, routing, simharness
from fanetsim.mobility import Fleet
from fanetsim.topology import ContactSnapshot, NetworkTrace, TraceCursor

# (owner, attribute, span name).  The owner is where the caller resolves
# the name: e.g. run_experiment calls hop_bounds through simharness's
# globals, while bounds_report calls it through analysis's globals.
_SPANS = (
    (simharness, "figure3_dataset", "simharness.figure3_dataset"),
    (simharness, "figure5_dataset", "simharness.figure5_dataset"),
    (simharness, "run_experiment", "simharness.run_experiment"),
    (simharness, "record_trace", "simharness.record_trace"),
    (simharness.ExperimentResult, "to_csv", "simharness.to_csv"),
    (simharness, "route_greedy", "routing.greedy"),
    (simharness, "route_dijkstra", "routing.dijkstra"),
    (simharness, "execute_path", "routing.execute"),
    (routing, "greedy_next_hop", "routing.next_hop"),
    (Fleet, "__init__", "mobility.fleet_init"),
    (Fleet, "advance", "mobility.advance"),
    (Fleet, "predicted_positions", "mobility.predict"),
    (ContactSnapshot, "neighbors", "topology.neighbors"),
    (ContactSnapshot, "distance", "topology.distance"),
    (simharness, "hop_bounds", "analysis.hop_bounds"),
    (simharness, "expected_total_distance", "analysis.expected_total_distance"),
    (simharness, "success_probability", "analysis.success_probability"),
    (analysis, "bounds_report", "analysis.bounds_report"),
    (analysis, "min_range_for_isolation", "analysis.min_range_for_isolation"),
    (analysis, "hop_bounds", "analysis.hop_bounds"),
    (analysis, "expected_total_distance", "analysis.expected_total_distance"),
    (analysis, "success_probability", "analysis.success_probability"),
    (analysis, "isolation_probability", "analysis.isolation_probability"),
    (analysis, "expected_progress", "geometry.expected_progress"),
    (geometry, "progress_cdf", "geometry.progress_cdf"),
    (geometry, "lens_area", "geometry.lens_area"),
)

# Per-layer metrics as (name, unit), in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("mobility.fleet_init.calls", "count"),
    ("mobility.fleet_init.self_s", "s"),
    ("mobility.advance.calls", "count"),
    ("mobility.node_steps", "count"),
    ("mobility.advance.self_s", "s"),
    ("mobility.predict.calls", "count"),
    ("mobility.predict.self_s", "s"),
    ("topology.snapshots.recorded", "count"),
    ("topology.snapshots.used", "count"),
    ("topology.trace_use_ratio", "ratio"),
    ("topology.neighbors.calls", "count"),
    ("topology.neighbors.self_s", "s"),
    ("topology.neighbors.mean_degree", "nodes"),
    ("topology.distance.calls", "count"),
    ("topology.distance.self_s", "s"),
    ("routing.greedy.calls", "count"),
    ("routing.greedy.self_s", "s"),
    ("routing.next_hop.calls", "count"),
    ("routing.next_hop.self_s", "s"),
    ("routing.execute.self_s", "s"),
    ("routing.dijkstra.calls", "count"),
    ("routing.dijkstra.self_s", "s"),
    ("routing.dijkstra.neighbors_calls", "count"),
    ("routing.hops", "count"),
    ("routing.sessions.delivered", "count"),
    ("routing.sessions.stuck", "count"),
    ("routing.sessions.hop_cap", "count"),
    ("routing.sessions.link_broken", "count"),
    ("routing.delivered_ratio", "ratio"),
    ("simharness.deployments", "count"),
    ("simharness.record_trace.self_s", "s"),
    ("simharness.run_experiment.self_s", "s"),
    ("analysis.bounds_report.calls", "count"),
    ("analysis.hop_bounds.calls", "count"),
    ("analysis.hop_bounds.self_s", "s"),
    ("analysis.quadratures_per_report", "count"),
    ("geometry.expected_progress.calls", "count"),
    ("geometry.expected_progress.self_s", "s"),
    ("geometry.integrand_evals", "count"),
    ("geometry.lens_area.calls", "count"),
    ("cli.import_s", "s"),
    ("cli.config.self_s", "s"),
)

# Metrics that must repeat exactly between two passes at one seed.
COUNT_METRICS = tuple(n for n, unit in LAYER_METRICS if unit == "count")

# Self-time metrics read straight off one span name.
_SELF_S = {
    n: n[: -len(".self_s")]
    for n, unit in LAYER_METRICS
    if n.endswith(".self_s") and not n.startswith("cli.")
}
_CALLS = {
    n: n[: -len(".calls")]
    for n, _ in LAYER_METRICS
    if n.endswith(".calls") and n != "routing.dijkstra.neighbors_calls"
}
_CALLS["geometry.integrand_evals"] = "geometry.progress_cdf"


class Recorder:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, deployment, self_ns)
        self._stack: list[list] = []  # [id, name, start_ns, child_ns, parent, deployment]
        self._next_id = 0
        self.deployment = 0
        self.counts: Counter = Counter()
        self._cursors: dict[int, list] = {}  # id(cursor) -> [cursor, trace, advances]
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(
            [self._next_id, name, time.perf_counter_ns(), 0, parent, self.deployment]
        )
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter_ns()
        sid, name, start, child_ns, parent, dep = self._stack.pop()
        if self._stack:
            self._stack[-1][3] += end - start
        self.spans.append((sid, name, start, end, parent, dep, end - start - child_ns))

    def _wrap(self, name: str, fn):
        rec = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "mobility.fleet_init":
                rec.deployment += 1
            rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close()
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        rec = self
        snap_init = ContactSnapshot.__init__
        trace_cursor = NetworkTrace.cursor
        cursor_advance = TraceCursor.advance

        def counted_snapshot(snap, *args, **kwargs):
            rec.counts["snapshots"] += 1
            snap_init(snap, *args, **kwargs)

        def tracked_cursor(trace):
            cursor = trace_cursor(trace)
            rec._cursors[id(cursor)] = [cursor, trace, 0]
            return cursor

        def tracked_advance(cursor):
            cursor_advance(cursor)
            rec._cursors[id(cursor)][2] += 1

        self._patch(ContactSnapshot, "__init__", counted_snapshot)
        self._patch(NetworkTrace, "cursor", tracked_cursor)
        self._patch(TraceCursor, "advance", tracked_advance)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def check_spans(self) -> str | None:
        """None when spans nest inside their parents and self times are >= 0."""
        if self._stack:
            return f"{len(self._stack)} spans left open"
        by_id = {s[0]: s for s in self.spans}
        for sid, name, start, end, parent, _, self_ns in self.spans:
            if self_ns < 0:
                return f"span {sid} ({name}) has negative self time {self_ns} ns"
            if parent is not None:
                p = by_id[parent]
                if not (p[2] <= start <= end <= p[3]):
                    return f"span {sid} ({name}) escapes its parent {parent} ({p[1]})"
        return None

    def layer_metrics(self) -> dict:
        per_span = self.span_self_times()
        zero = {"calls": 0, "self_s": 0.0}
        names = {s[0]: s[1] for s in self.spans}
        parents = {s[0]: s[4] for s in self.spans}

        def ancestor(sid, wanted):
            sid = parents[sid]
            while sid is not None:
                if names[sid] == wanted:
                    return sid
                sid = parents[sid]
            return None

        m: dict = {}
        for metric, span in _SELF_S.items():
            m[metric] = per_span.get(span, zero)["self_s"]
        for metric, span in _CALLS.items():
            m[metric] = per_span.get(span, zero)["calls"]
        c = self.counts
        m["mobility.node_steps"] = c["node_steps"]
        m["topology.snapshots.recorded"] = c["snapshots"]
        used = defaultdict(int)
        for _, trace, advances in self._cursors.values():
            used[id(trace)] = max(used[id(trace)], advances + 1)
        m["topology.snapshots.used"] = sum(used.values())
        m["topology.trace_use_ratio"] = (
            m["topology.snapshots.used"] / c["snapshots"] if c["snapshots"] else 0.0
        )
        n_calls = m["topology.neighbors.calls"]
        m["topology.neighbors.mean_degree"] = c["degree_sum"] / n_calls if n_calls else 0.0
        m["routing.dijkstra.neighbors_calls"] = sum(
            1
            for s in self.spans
            if s[1] == "topology.neighbors"
            and s[4] is not None
            and names[s[4]] == "routing.dijkstra"
        )
        m["routing.hops"] = c["hops"]
        for status in ("delivered", "stuck", "hop_cap", "link_broken"):
            m[f"routing.sessions.{status}"] = c[status]
        sessions = sum(c[s] for s in ("delivered", "stuck", "hop_cap", "link_broken"))
        m["routing.delivered_ratio"] = c["delivered"] / sessions if sessions else 0.0
        m["simharness.deployments"] = sum(
            1
            for s in self.spans
            if s[1] == "mobility.fleet_init"
            and ancestor(s[0], "simharness.run_experiment") is not None
        )
        per_report = Counter(
            ancestor(s[0], "analysis.bounds_report")
            for s in self.spans
            if s[1] == "geometry.expected_progress"
        )
        per_report.pop(None, None)
        m["analysis.quadratures_per_report"] = max(per_report.values(), default=0)
        return m

    def layer_shares(self) -> dict:
        """Share of all self time spent in each layer (the span-name prefix)."""
        by_layer: Counter = Counter()
        for s in self.spans:
            by_layer[s[1].split(".", 1)[0]] += s[6]
        total = sum(by_layer.values())
        return {k: v / total for k, v in sorted(by_layer.items())} if total else {}

    def span_self_times(self) -> dict:
        """Calls and total self time (s) per span name."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for s in self.spans:
            calls[s[1]] += 1
            self_ns[s[1]] += s[6]
        return {k: {"calls": calls[k], "self_s": self_ns[k] / 1e9} for k in sorted(calls)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, dep, _ in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "deployment": dep},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# -- hooks run after a wrapped call returns ---------------------------------


def _after_advance(rec, result, args, kwargs):
    rec.counts["node_steps"] += args[0].n_nodes


def _after_neighbors(rec, result, args, kwargs):
    rec.counts["degree_sum"] += len(result)


def _count_outcome(rec, out, max_hops):
    rec.counts["hops"] += out.hop_count
    status = out.status.value
    if status in ("delivered", "link_broken", "hop_cap"):
        rec.counts[status] += 1
    elif max_hops and out.hop_count >= max_hops:
        rec.counts["hop_cap"] += 1
    else:
        rec.counts["stuck"] += 1


_GREEDY_SIGNATURE = inspect.signature(routing.route_greedy)


def _after_greedy(rec, result, args, kwargs):
    bound = _GREEDY_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    max_hops = bound.arguments["max_hops"]
    if max_hops <= 0:
        max_hops = 4 * bound.arguments["sim"].snapshot().n_nodes
    _count_outcome(rec, result, max_hops)


def _after_execute(rec, result, args, kwargs):
    _count_outcome(rec, result, 0)


def _after_dijkstra(rec, result, args, kwargs):
    if result is None:  # no path: the session fails before any hop
        rec.counts["stuck"] += 1


_AFTER = {
    "mobility.advance": _after_advance,
    "topology.neighbors": _after_neighbors,
    "routing.greedy": _after_greedy,
    "routing.execute": _after_execute,
    "routing.dijkstra": _after_dijkstra,
}
