#!/usr/bin/env python3
"""Per-layer summary of an oipa_e2e_bench trace.

Usage: python3 bench/e2e/trace_summary.py TRACE.json

The trace is Chrome trace-event JSON (it also opens in chrome://tracing
or Perfetto): one span per call of the in-process replay, each with its
layer as the category and, in args, its id, its parent's id and the
request id shared by all spans of one request. Root "request" spans also
carry what the daemon reported for the same request (latency, batch
size, queue depth, cache hit, search counters). Spans with parent 0
other than roots are probes run outside any request: after a cache miss
they rerun the dataset build ("MakeDataset") and "BuildPieceGraphs" on
the same inputs, so the miss's "ContextCache::Acquire" can be split
into those stages and the rest, which is mostly MRR sampling. The trace's
otherData carries the run's daemon-side latency, throughput, CPU and
memory ("measured"), which are per-layer metrics too.

Prints the mean self time per request of every stage, separately for
cold requests (those that built a context) and warm ones, naming the
largest stage of each; then every per-layer metric as
"workload metric value unit"; and last the result line: one JSON object
with correct, attempted, failed and the per-layer metrics.
"""

import json
import math
import sys
from collections import defaultdict

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = [
    # Measured on the daemon, not in the replay.
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
    ("serve.parse_us_p50", "us"),
    ("serve.render_us_p50", "us"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.merged_frac", "ratio"),
    ("serve.queue_depth_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.cache_hit_frac", "ratio"),
    ("client.late_ms_p99", "ms"),
    ("context.build_ms_p50", "ms"),
    ("data.dataset_ms_p50", "ms"),
    ("topic.pieces_ms_p50", "ms"),
    ("rrset.samples_generated", "count"),
    ("rrset.generate_samples_per_s", "1/s"),
    ("rrset.extend_samples_per_s", "1/s"),
    ("rrset.index_segments", "count"),
    ("rrset.store_bytes_peak", "bytes"),
    ("rrset.sampling_rounds_mean", "count"),
    ("rrset.wasted_round_frac", "ratio"),
    ("rrset.grow_time_frac", "ratio"),
    ("search.solve_ms_p50", "ms"),
    ("search.tau_evals", "count"),
    ("search.tau_evals_per_s", "1/s"),
    ("search.nodes_expanded", "count"),
    ("search.bound_calls", "count"),
    ("search.converged_frac", "ratio"),
    ("search.cancelled_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
]

# Probes whose time a miss's ContextCache::Acquire span also holds.
BUILD_PROBES = ("MakeDataset", "BuildPieceGraphs")


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return ordered[rank - 1]


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator > 0 else 0.0


class Trace:
    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        self.other = data["otherData"]
        self.spans = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        covered = defaultdict(float)
        for e in self.spans:
            covered[e["args"]["parent"]] += e["dur"]
        for e in self.spans:
            e["self"] = e["dur"] - covered[e["args"]["id"]]
        self.by_name = defaultdict(list)
        self.by_request = defaultdict(list)
        # request -> {probe name: probe span}
        self.probes = defaultdict(dict)
        for e in self.spans:
            self.by_name[e["name"]].append(e)
            if e["args"]["parent"] == 0 and e["name"] != "request":
                self.probes[e["args"]["request"]][e["name"]] = e
            else:
                self.by_request[e["args"]["request"]].append(e)
        self.misses = [e for e in self.by_name["ContextCache::Acquire"]
                       if e["args"].get("hit") is False]
        self.roots = [r for r in self.by_name["request"]
                      if not r["args"].get("setup")]

    def durations_ms(self, name, key="dur"):
        return [e[key] / 1000.0 for e in self.by_name[name]]

    def net_of_probes(self, acquire, names):
        """A miss's Acquire duration less its request's named probes."""
        probes = self.probes[acquire["args"]["request"]]
        return acquire["dur"] - sum(probes[name]["dur"] for name in names
                                    if name in probes)

    def stage_table(self):
        """{"cold"|"warm": (requests, {stage: mean self ms})}.

        Besides the spans, "serve/transport" is what the daemon's latency
        adds to the replay's for the same request: queueing, merging and
        the socket round trip. A cold request's build probes are moved
        out of its ContextCache::Acquire into stages of their own.
        """
        totals = {"cold": defaultdict(float), "warm": defaultdict(float)}
        counts = {"cold": 0, "warm": 0}
        for root in self.roots:
            if root["args"].get("kind") != "plan":
                continue
            request = root["args"]["request"]
            spans = self.by_request[request]
            cls = ("cold" if any(s["name"] == "ContextCache::Acquire"
                                 and s["args"].get("hit") is False
                                 for s in spans) else "warm")
            counts[cls] += 1
            for s in spans:
                totals[cls][f"{s['cat']}/{s['name']}"] += s["self"] / 1000.0
            if cls == "cold":
                for name in BUILD_PROBES:
                    probe = self.probes[request].get(name)
                    if probe is not None:
                        ms = probe["dur"] / 1000.0
                        totals[cls][f"{probe['cat']}/{name}"] += ms
                        totals[cls]["context/ContextCache::Acquire"] -= ms
            if "daemon_ms" in root["args"]:
                totals[cls]["serve/transport"] += (
                    root["args"]["daemon_ms"] - root["dur"] / 1000.0)
        return {cls: (counts[cls], {stage: ms / counts[cls]
                                    for stage, ms in totals[cls].items()})
                for cls in totals if counts[cls] > 0}

    def metrics(self):
        roots = self.roots
        answered = [r["args"] for r in roots
                    if r["args"].get("kind") == "plan"
                    and "batch_size" in r["args"]]
        solves = self.by_name["SolveBatch"]
        extends = self.by_name["MrrCollection::Extend"]
        rounds = [e["args"]["sampling_rounds"] for e in solves]
        measured = {r["args"]["request"] for r in roots}
        grows = self.by_name["SampleStore::Grow"] + [
            e for e in self.by_name["ContextCache::Acquire"]
            if "grown_samples" in e["args"]]
        grow_us = sum(e["self"] for e in grows
                      if e["args"]["request"] in measured)
        solve_self_s = sum(e["self"] for e in solves) / 1e6
        return {
            **self.other["measured"],
            "serve.parse_us_p50": percentile(
                [e["dur"] for e in self.by_name["ParseWireRequest"]], 0.5),
            "serve.render_us_p50": percentile(
                [e["dur"] for e in self.by_name["render"]], 0.5),
            "serve.transport_ms_p50": percentile(
                [r["args"]["daemon_ms"] - r["dur"] / 1000.0 for r in roots
                 if "daemon_ms" in r["args"]], 0.5),
            "serve.batch_size_mean": mean(a["batch_size"] for a in answered),
            "serve.merged_frac": mean(
                a["batch_size"] > 1 for a in answered),
            "serve.queue_depth_mean": mean(
                a["queue_depth"] for a in answered),
            "serve.rejected": self.other["rejected"],
            "serve.cache_hit_frac": mean(a["cache_hit"] for a in answered),
            "client.late_ms_p99": percentile(
                [r["args"]["late_ms"] for r in roots], 0.99),
            # Dataset, campaign and PlanningContext::Create, net of the
            # dataset probe: the context layer's share of a miss.
            "context.build_ms_p50": percentile(
                [self.net_of_probes(e, ["MakeDataset"]) / 1000.0
                 for e in self.misses], 0.5),
            "data.dataset_ms_p50": percentile(
                self.durations_ms("MakeDataset"), 0.5),
            "topic.pieces_ms_p50": percentile(
                self.durations_ms("BuildPieceGraphs"), 0.5),
            "rrset.samples_generated": self.other["samples_generated"],
            # A miss's sampling share: its build net of both probes.
            "rrset.generate_samples_per_s": ratio(
                sum(e["args"]["samples"] for e in self.misses),
                sum(self.net_of_probes(e, BUILD_PROBES)
                    for e in self.misses) / 1e6),
            "rrset.extend_samples_per_s": ratio(
                sum(e["args"]["samples"] for e in extends),
                sum(e["dur"] for e in extends) / 1e6),
            "rrset.index_segments": mean(
                e["args"]["index_segments"] for e in solves),
            "rrset.store_bytes_peak": max(
                (a["registry_bytes"] for a in answered), default=0),
            "rrset.sampling_rounds_mean": mean(rounds),
            "rrset.wasted_round_frac": mean((r - 1) / r for r in rounds),
            "rrset.grow_time_frac": ratio(
                grow_us, sum(r["dur"] for r in roots)),
            "search.solve_ms_p50": percentile(
                self.durations_ms("SolveBatch", key="self"), 0.5),
            "search.tau_evals": sum(a["tau_evals"] for a in answered),
            "search.tau_evals_per_s": ratio(
                sum(e["args"]["tau_evals"] for e in solves), solve_self_s),
            "search.nodes_expanded": sum(
                a["nodes_expanded"] for a in answered),
            "search.bound_calls": sum(a["bound_calls"] for a in answered),
            "search.converged_frac": mean(a["converged"] for a in answered),
            "search.cancelled_frac": mean(a["cancelled"] for a in answered),
            "trace_overhead_frac": self.other["trace_overhead_frac"],
        }


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trace = Trace(argv[1])
    workload = trace.other["workload"]

    for cls, (count, stages) in sorted(trace.stage_table().items()):
        ranked = sorted(stages.items(), key=lambda kv: -kv[1])
        total = sum(stages.values())
        print(f"# {workload}: {cls} requests ({count}), mean self time "
              "per request by stage")
        for stage, ms in ranked:
            print(f"#   {stage:36s} {ms:10.3f} ms {ratio(ms, total):6.1%}")
        print(f"# {workload}: largest {cls} stage: {ranked[0][0]}")

    values = trace.metrics()
    for name, unit in PER_LAYER:
        print(f"{workload} {name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": trace.other["correct"],
        "attempted": trace.other["attempted"],
        "failed": trace.other["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
