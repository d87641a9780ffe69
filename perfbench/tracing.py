"""Spans around the public calls into each layer, and the arithmetic on them.

Nothing inside ``repro`` records spans.  In a traced run the benchmark
replaces chosen functions and methods with timing wrappers, in whichever
process calls them, keeps the spans in memory and writes them out when the
run ends.  A span is ``(name, start, end, step, count)``: ``count`` carries
an exact amount of work (points clustered, training pairs, bytes written).

Times are ``time.perf_counter()`` readings, which on Linux read
CLOCK_MONOTONIC in every process, so client and server spans share one time
axis.  Only one step is ever in flight, so a server span belongs to the
client step whose interval contains it, and its parent is the innermost
span, of either process, that contains it.  A span's self time is its
duration minus its children's durations.
"""

from __future__ import annotations

import functools
import http.client
import inspect
import json
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

perf_counter = time.perf_counter


class Recorder:
    """Timing wrappers plus the spans they recorded while ``active``.

    Wrappers stay installed for the life of the process; while inactive they
    only forward the call, which is how a traced run also measures its own
    untraced baseline.
    """

    def __init__(self) -> None:
        self.active = False
        #: Client step index stamped on every span (``None`` in the server,
        #: whose spans are matched to steps by time).
        self.step: Optional[int] = None
        self.spans: list = []

    def patch(self, owner, attribute: str, name: str,
              count: Optional[Callable] = None,
              result_count: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        ``count(*args, **kwargs)`` and ``result_count(result)`` add an
        exact work amount to the span; both run outside its interval.
        """
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        wrapper_kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if wrapper_kind is not None else raw
        traced = self._wrap(function, name, count, result_count)
        setattr(owner, attribute,
                wrapper_kind(traced) if wrapper_kind is not None else traced)

    def _wrap(self, function: Callable, name: str,
              count: Optional[Callable],
              result_count: Optional[Callable]) -> Callable:
        recorder = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_coroutine(*args, **kwargs):
                if not recorder.active:
                    return await function(*args, **kwargs)
                step = recorder.step
                start = perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    recorder.spans.append((name, start, perf_counter(), step, 0))
            return traced_coroutine

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            step = recorder.step
            amount = count(*args, **kwargs) if count is not None else 0
            result = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if result_count is not None and result is not None:
                    amount += result_count(result)
                recorder.spans.append((name, start, end, step, amount))
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans]}, handle)


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


# -- what gets timed ---------------------------------------------------------

def _word2vec_pairs(trainer, sentences, *args, **kwargs) -> int:
    """Training pairs times epochs, exactly as ``Word2Vec.train`` samples them."""
    config = trainer.config
    pairs = sum(len(s) * min(config.context_samples, len(s) - 1)
                for s in sentences if len(s) >= 2)
    return min(pairs, config.max_pairs) * config.epochs


def _artifact_bytes(record) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(record.path) for name in names)


def install_engine_layers(recorder: Recorder) -> None:
    """One display's path below the backend: engine, query, view, selection."""
    from repro.api.engine import Engine
    from repro.api.request import SelectionResponse
    from repro.baselines import subtab_adapter
    from repro.binning.pipeline import BinnedTable
    from repro.cluster.kmeans import KMeans
    from repro.embedding.model import CellEmbeddingModel
    from repro.queries.ops import SPQuery

    recorder.patch(Engine, "select", "api.engine",
                   result_count=lambda response: int(response.cache_hit))
    recorder.patch(SelectionResponse, "to_wire", "api.wire_encode")
    recorder.patch(SPQuery, "row_indices", "queries.row_indices")
    recorder.patch(BinnedTable, "subset", "binning.subset")
    recorder.patch(subtab_adapter, "centroid_selection", "core.selection")
    recorder.patch(CellEmbeddingModel, "row_vectors", "embedding.row_vectors")
    recorder.patch(CellEmbeddingModel, "column_vectors", "embedding.column_vectors")
    recorder.patch(KMeans, "fit", "cluster.kmeans",
                   count=lambda kmeans, points, *args, **kwargs: len(points))


def install_server_layers(recorder: Recorder) -> None:
    """The gateway process: front door, cache, dispatcher, workspace, engine."""
    from repro.api.workspace import Workspace
    from repro.gateway import app as gateway_app
    from repro.gateway.cache import ResponseCache
    from repro.gateway.tenants import TenantRegistry
    from repro.serve.transport import BackendDispatcher

    recorder.patch(gateway_app.GatewayApp, "handle", "gateway.handle")
    recorder.patch(TenantRegistry, "authenticate", "gateway.authenticate")
    recorder.patch(TenantRegistry, "admit", "gateway.admit")
    recorder.patch(gateway_app, "request_key", "gateway.request_key")
    recorder.patch(ResponseCache, "lookup", "gateway.cache_lookup")
    recorder.patch(ResponseCache, "store", "gateway.cache_store")
    recorder.patch(BackendDispatcher, "handle_message", "serve.dispatch")
    recorder.patch(Workspace, "select", "api.workspace")
    install_engine_layers(recorder)


#: The client's HTTP exchange is timed as three stdlib calls; per step they
#: merge into one ``client.http`` span, because the client can be scheduled
#: out just after sending while the server already works, and only the whole
#: exchange is sure to contain the server's spans.
HTTP_CALLS = ("client.http_send", "client.http_wait", "client.http_read")


def install_client_layers(recorder: Recorder) -> None:
    """The analyst's process: request encoding, JSON, the HTTP exchange and
    the reply decode."""
    from repro.api.request import SelectionRequest, SelectionResponse

    recorder.patch(SelectionRequest, "to_wire", "client.encode")
    recorder.patch(json, "dumps", "client.json")
    recorder.patch(json, "loads", "client.json")
    recorder.patch(http.client.HTTPConnection, "request", "client.http_send")
    recorder.patch(http.client.HTTPConnection, "getresponse", "client.http_wait")
    recorder.patch(http.client.HTTPResponse, "read", "client.http_read")
    recorder.patch(SelectionResponse, "from_wire", "client.decode")


def install_ingest_layers(recorder: Recorder) -> None:
    """The fitting process: fit (normalize, bin, corpus, word2vec), save, open."""
    from repro.api import engine as engine_module
    from repro.api.store import ArtifactStore
    from repro.binning.pipeline import TableBinner
    from repro.core import subtab
    from repro.embedding.word2vec import Word2Vec

    recorder.patch(engine_module.Engine, "fit", "api.fit")
    recorder.patch(engine_module, "normalize_table", "binning.normalize")
    recorder.patch(TableBinner, "bin_table", "binning.bin")
    recorder.patch(subtab, "build_corpus", "embedding.corpus")
    recorder.patch(Word2Vec, "train", "embedding.train", count=_word2vec_pairs)
    recorder.patch(ArtifactStore, "save", "api.save", result_count=_artifact_bytes)
    recorder.patch(ArtifactStore, "open", "api.open")
    install_engine_layers(recorder)


# -- span arithmetic ---------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    step: Optional[int] = None
    count: int = 0
    parent: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def assign_steps(spans: Sequence[Span], steps: Sequence[tuple]) -> int:
    """Give each span without a step the step ``(index, start, end)`` whose
    interval contains it.  ``steps`` are disjoint and sorted by start.
    Returns the number of spans no step contains (orphans)."""
    starts = [start for _, start, _ in steps]
    orphans = 0
    for span in spans:
        if span.step is not None:
            continue
        position = bisect_right(starts, span.start) - 1
        if position >= 0 and span.end <= steps[position][2]:
            span.step = steps[position][0]
        else:
            orphans += 1
    return orphans


def nest(spans: Sequence[Span]) -> int:
    """Set each span's ``parent`` (an index into ``spans``) to the innermost
    span containing it.  Returns the number of spans that cross the end of
    the span they start in, which a correct trace never has."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i].start, -spans[i].end))
    stack: list = []
    crossings = 0
    for index in order:
        span = spans[index]
        while stack and spans[stack[-1]].end <= span.start:
            stack.pop()
        span.parent = None
        if stack:
            if span.end <= spans[stack[-1]].end:
                span.parent = stack[-1]
            else:
                crossings += 1
        stack.append(index)
    return crossings


def self_seconds(spans: Sequence[Span]) -> list:
    """Each span's duration minus the durations of its children."""
    result = [span.seconds for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.seconds
    return result


def merge_calls(spans: Sequence[Span], names: tuple, merged: str) -> list:
    """Replace, per step, the spans called one of ``names`` by one span
    ``merged`` from the first start to the last end."""
    kept, groups = [], {}
    for span in spans:
        if span.name not in names:
            kept.append(span)
            continue
        group = groups.get(span.step)
        if group is None:
            groups[span.step] = Span(merged, span.start, span.end, span.step, span.count)
        else:
            group.start = min(group.start, span.start)
            group.end = max(group.end, span.end)
            group.count += span.count
    return kept + list(groups.values())


def profile_steps(spans: Sequence[Span], steps: Sequence[tuple]) -> tuple:
    """Per-step layer profiles of ``spans`` over client ``steps``.

    Returns ``(profiles, anomalies)``.  A profile is ``{"seconds": step
    wall, "covered": seconds under some span, "layers": {name: [calls,
    count, seconds, self seconds]}}``; ``anomalies`` counts orphaned and
    crossing spans.
    """
    spans = merge_calls(spans, HTTP_CALLS, "client.http")
    orphans = assign_steps(spans, steps)
    by_step: dict = {index: [] for index, _, _ in steps}
    for span in spans:
        if span.step in by_step:
            by_step[span.step].append(span)
    crossings = 0
    profiles = []
    for index, start, end in steps:
        members = by_step[index]
        crossings += nest(members)
        selves = self_seconds(members)
        layers: dict = {}
        for span, own in zip(members, selves):
            entry = layers.setdefault(span.name, [0, 0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.count
            entry[2] += span.seconds
            entry[3] += own
        covered = sum(span.seconds for span in members if span.parent is None)
        profiles.append({"seconds": end - start, "covered": covered,
                         "layers": layers})
    return profiles, {"orphans": orphans, "crossings": crossings}
