"""The per-layer metrics: which spans make each one, and what it should move.

Every per-layer metric is reported on every workload; ``on`` names the
workload where the layer does its work and ``moves`` the end-to-end metric a
change to that layer should move.  Span-based metrics come as a median per
step plus a run total (the ``.total`` twin).  ``BENCHMARK.json`` lists the
metric names; this table is where each one is defined.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

CALLS, COUNT, SECONDS, SELF = range(4)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    spans: tuple
    field: int
    scale: float
    moves: str
    on: str
    better: str = "lower"


#: What a faster fit moves: ingest is almost all fit, and the serving
#: workloads fit both tables during set-up.
FIT_MOVES = "step_p50_ms, cpu_ms_per_step of ingest; setup_s of explore_cold, replay_warm"

LAYER_METRICS = (
    LayerMetric("api.fit_s", "s", ("api.fit",), SECONDS, 1.0, FIT_MOVES, "ingest"),
    LayerMetric("embedding.train_s", "s", ("embedding.train",), SECONDS, 1.0,
                FIT_MOVES, "ingest"),
    LayerMetric("embedding.pairs", "count", ("embedding.train",), COUNT, 1.0,
                FIT_MOVES, "ingest"),
    LayerMetric("embedding.corpus_s", "s", ("embedding.corpus",), SECONDS, 1.0,
                FIT_MOVES, "ingest"),
    LayerMetric("binning.normalize_s", "s", ("binning.normalize",), SECONDS, 1.0,
                FIT_MOVES, "ingest"),
    LayerMetric("binning.bin_s", "s", ("binning.bin",), SECONDS, 1.0,
                FIT_MOVES, "ingest"),
    LayerMetric("api.save_ms", "ms", ("api.save",), SECONDS, 1e3,
                "step_p50_ms of ingest; setup_s of explore_cold, replay_warm", "ingest"),
    LayerMetric("api.artifact_kb", "KiB", ("api.save",), COUNT, 1 / 1024,
                "step_p50_ms of ingest; setup_s of explore_cold, replay_warm", "ingest"),
    LayerMetric("api.open_ms", "ms", ("api.open",), SECONDS, 1e3,
                "step_p50_ms of ingest; setup_s of explore_cold, replay_warm", "ingest"),
    LayerMetric("cluster.kmeans_ms", "ms", ("cluster.kmeans",), SECONDS, 1e3,
                "step_p50_ms, cpu_ms_per_step, step tail",
                "explore_cold"),
    LayerMetric("cluster.kmeans_calls", "count", ("cluster.kmeans",), CALLS, 1.0,
                "step_p50_ms, cpu_ms_per_step, step tail",
                "explore_cold"),
    LayerMetric("cluster.kmeans_points", "count", ("cluster.kmeans",), COUNT, 1.0,
                "step_p50_ms, cpu_ms_per_step, step tail",
                "explore_cold"),
    LayerMetric("core.selection_self_ms", "ms", ("core.selection",), SELF, 1e3,
                "step_p50_ms, cpu_ms_per_step, step tail",
                "explore_cold"),
    LayerMetric("embedding.vectors_ms", "ms",
                ("embedding.row_vectors", "embedding.column_vectors"), SECONDS, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("queries.row_indices_ms", "ms", ("queries.row_indices",), SECONDS, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("binning.subset_ms", "ms", ("binning.subset",), SECONDS, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("api.engine_self_ms", "ms", ("api.engine",), SELF, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("api.workspace_self_ms", "ms", ("api.workspace",), SELF, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("api.wire_encode_ms", "ms", ("api.wire_encode",), SECONDS, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("serve.dispatch_self_ms", "ms", ("serve.dispatch",), SELF, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("gateway.cache_store_ms", "ms", ("gateway.cache_store",), SECONDS, 1e3,
                "step_p50_ms", "explore_cold"),
    LayerMetric("api.engine_calls", "count", ("api.engine",), CALLS, 1.0,
                "none: proves the workload's cache regime", "all"),
    LayerMetric("gateway.self_ms", "ms", ("gateway.handle",), SELF, 1e3,
                "step_p50_ms, cpu_ms_per_step", "replay_warm"),
    LayerMetric("gateway.admission_ms", "ms",
                ("gateway.authenticate", "gateway.admit"), SECONDS, 1e3,
                "step_p50_ms", "replay_warm"),
    LayerMetric("gateway.cache_lookup_ms", "ms",
                ("gateway.request_key", "gateway.cache_lookup"), SECONDS, 1e3,
                "step_p50_ms", "replay_warm"),
    LayerMetric("client.decode_ms", "ms", ("client.decode",), SECONDS, 1e3,
                "step_p50_ms", "replay_warm"),
    LayerMetric("client.json_ms", "ms", ("client.json",), SECONDS, 1e3,
                "step_p50_ms", "replay_warm"),
    LayerMetric("client.encode_ms", "ms", ("client.encode",), SECONDS, 1e3,
                "step_p50_ms", "replay_warm"),
    # The client's HTTP exchange minus the server's GatewayApp.handle span
    # nested in it: socket, event loop and HTTP framing on both sides.
    LayerMetric("transport.wait_ms", "ms", ("client.http",), SELF, 1e3,
                "step_p50_ms", "replay_warm"),
)

#: Run-level metrics that are not a per-step sum of spans.
RUN_METRICS = (
    ("embedding.pairs_per_s", "1/s", "higher", FIT_MOVES, "ingest"),
    ("api.engine_lru_hit_ratio", "ratio", "higher",
     "none: proves the workload's cache regime", "all"),
    ("gateway.cache_hit_ratio", "ratio", "higher",
     "none: proves the workload's cache regime", "all"),
    ("gateway.revalidated_ratio", "ratio", "higher",
     "none: proves the workload's cache regime", "all"),
    ("unattributed_share", "share", "lower", "none: closure check", "all"),
    ("unattributed_share.total", "share", "lower", "none: closure check", "all"),
    ("trace.overhead_step_p50_ms", "ms", "lower",
     "none: traced minus untraced step_p50_ms", "all"),
    ("trace.overhead_fit_s", "s", "lower",
     "none: traced minus untraced fit seconds", "ingest"),
    ("step_tail_ms", "ms", "lower",
     "none: untraced tail, recorded beside the layers", "all"),
)


def per_layer_names() -> list:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = []
    for metric in LAYER_METRICS:
        names.append((metric.name, metric.unit, metric.better))
        names.append((metric.name + ".total", metric.unit, metric.better))
    names.extend((name, unit, better) for name, unit, better, _, _ in RUN_METRICS)
    return names


def layer_value(profile: dict, spans: tuple, field: int) -> float:
    layers = profile["layers"]
    return sum(layers[name][field] for name in spans if name in layers)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_metrics(profiles: list) -> dict:
    """Median-per-step and run-total values of every span-based metric, plus
    the span-derived run metrics."""
    values: dict = {}
    for metric in LAYER_METRICS:
        per_step = [layer_value(p, metric.spans, metric.field) * metric.scale
                    for p in profiles]
        values[metric.name] = statistics.median(per_step) if per_step else 0.0
        values[metric.name + ".total"] = sum(per_step)
    total = {field: {} for field in (CALLS, COUNT, SECONDS)}
    for profile in profiles:
        for name, entry in profile["layers"].items():
            for field in (CALLS, COUNT, SECONDS):
                total[field][name] = total[field].get(name, 0) + entry[field]
    values["embedding.pairs_per_s"] = _ratio(
        total[COUNT].get("embedding.train", 0),
        total[SECONDS].get("embedding.train", 0.0))
    values["api.engine_lru_hit_ratio"] = _ratio(
        total[COUNT].get("api.engine", 0), total[CALLS].get("api.engine", 0))
    shares = [_ratio(p["seconds"] - p["covered"], p["seconds"]) for p in profiles]
    values["unattributed_share"] = statistics.median(shares) if shares else 0.0
    values["unattributed_share.total"] = _ratio(
        sum(p["seconds"] - p["covered"] for p in profiles),
        sum(p["seconds"] for p in profiles))
    return values


def self_time_table(profiles: list) -> dict:
    """``{span name: {"self_ms_p50", "self_s_total", "share"}}``: each
    layer's self time and its share of all step time, plus the part no
    span covers."""
    step_total = sum(p["seconds"] for p in profiles)
    names = sorted({name for p in profiles for name in p["layers"]})
    table = {}
    for name in names:
        per_step = [p["layers"][name][SELF] if name in p["layers"] else 0.0
                    for p in profiles]
        table[name] = {"self_ms_p50": statistics.median(per_step) * 1e3,
                       "self_s_total": sum(per_step),
                       "share": _ratio(sum(per_step), step_total)}
    uncovered = [p["seconds"] - p["covered"] for p in profiles]
    table["(unattributed)"] = {"self_ms_p50": statistics.median(uncovered) * 1e3,
                               "self_s_total": sum(uncovered),
                               "share": _ratio(sum(uncovered), step_total)}
    return table


def check_predictions(workload: str, metrics: dict, table: dict) -> dict:
    """The traced run's predictions for ``workload``: name -> held or not."""
    if workload == "ingest":
        train = metrics["embedding.train_s.total"]
        others = ("embedding.corpus_s.total", "binning.normalize_s.total",
                  "binning.bin_s.total")
        return {"embedding.train_s is the largest part of the fit":
                all(train > metrics[name] for name in others)
                and train > metrics["api.fit_s.total"] / 2}
    if workload == "explore_cold":
        selves = {name: row["self_s_total"] for name, row in table.items()
                  if name != "(unattributed)"}
        return {"cluster.kmeans_ms is the largest self time":
                bool(selves) and max(selves, key=selves.get) == "cluster.kmeans"}
    return {"cluster.kmeans_calls and api.engine_calls are 0":
            metrics["cluster.kmeans_calls.total"] == 0
            and metrics["api.engine_calls.total"] == 0,
            "gateway.cache_hit_ratio is 1.0":
            metrics["gateway.cache_hit_ratio"] == 1.0}


def layer_map() -> list:
    """The provenance table: per-layer metric -> what it should move, where."""
    rows = [{"metric": m.name, "unit": m.unit, "timed": list(m.spans),
             "moves": m.moves, "on": m.on} for m in LAYER_METRICS]
    rows.extend({"metric": name, "unit": unit, "moves": moves, "on": on}
                for name, unit, _, moves, on in RUN_METRICS)
    return rows
