"""Tests for the Workspace (multi-dataset routing) and the wire format.

The acceptance contract: ``Workspace.select_many`` over >= 2 datasets and
>= 2 algorithms returns responses bit-identical to per-engine
``Engine.select``, and ``SelectionRequest.from_json(req.to_json())``
round-trips every field including queries and targets.
"""

import json
import threading
import time

import pytest

from repro.api import (
    SelectionRequest,
    SelectionResponse,
    UnknownEntryError,
    WireFormatError,
    Workspace,
    WorkspaceError,
)
from repro.core.fairness import GroupRepresentation
from repro.queries.ops import GroupByOp, SPQuery
from repro.queries.predicates import Eq, Gt, InRange, InSet, IsMissing, Lt


@pytest.fixture()
def workspace(seeded_store):
    return Workspace(seeded_store, capacity=4)


class TestRouting:
    def test_requires_dataset(self, workspace):
        with pytest.raises(WorkspaceError, match="must name a dataset"):
            workspace.select(SelectionRequest(k=3, l=3))

    def test_routes_by_dataset(self, workspace):
        planted = workspace.select(SelectionRequest(k=3, l=3, dataset="planted"))
        alt = workspace.select(SelectionRequest(k=3, l=3, dataset="planted-alt"))
        assert planted.algorithm == "subtab"  # each artifact's persisted one
        assert alt.algorithm == "nc"
        assert planted.subtable.frame != alt.subtable.frame

    def test_unknown_dataset_is_typed(self, workspace):
        with pytest.raises(UnknownEntryError, match="unknown artifact"):
            workspace.select(SelectionRequest(k=3, l=3, dataset="nope"))

    def test_algorithm_override_and_alias(self, workspace):
        response = workspace.select(
            SelectionRequest(k=3, l=3, dataset="planted", algorithm="nc")
        )
        assert response.algorithm == "nc"
        aliased = workspace.select(
            SelectionRequest(k=3, l=3, dataset="planted",
                             algorithm="naive_cluster")
        )
        # alias resolves to the same engine (one load, one routing key)
        assert aliased.algorithm == "nc"
        assert workspace.stats.engine_loads == 1

    def test_engines_load_lazily_once(self, workspace):
        assert workspace.stats.engine_loads == 0
        for _ in range(3):
            workspace.select(SelectionRequest(k=3, l=3, dataset="planted"))
        stats = workspace.stats
        assert stats.engine_loads == 1
        assert stats.served == 3

    def test_capacity_bounded_eviction(self, seeded_store):
        workspace = Workspace(seeded_store, capacity=1)
        workspace.select(SelectionRequest(k=3, l=3, dataset="planted"))
        workspace.select(SelectionRequest(k=3, l=3, dataset="planted-alt"))
        stats = workspace.stats
        assert stats.engine_evictions == 1
        assert stats.resident == (("planted-alt", "nc"),)
        # coming back faults the engine in again
        workspace.select(SelectionRequest(k=3, l=3, dataset="planted"))
        assert workspace.stats.engine_loads == 3

    @staticmethod
    def _race(workspace, datasets, rounds=1):
        """One thread per entry of ``datasets``, released together by a
        barrier, each serving ``rounds`` requests (cycling through
        ``datasets`` from its own offset)."""
        barrier = threading.Barrier(len(datasets))
        errors = []

        def client(offset):
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    dataset = datasets[(offset + step) % len(datasets)]
                    workspace.select(
                        SelectionRequest(k=3, l=3, dataset=dataset)
                    )
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(len(datasets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []

    @pytest.fixture()
    def slow_open(self, seeded_store, monkeypatch):
        """Stretch every engine load so racing first requests overlap."""
        opened = seeded_store.open

        def open_slowly(*args, **kwargs):
            time.sleep(0.05)
            return opened(*args, **kwargs)

        monkeypatch.setattr(seeded_store, "open", open_slowly)

    def test_racing_first_requests_load_each_engine_once(self, seeded_store,
                                                         slow_open):
        workspace = Workspace(seeded_store, capacity=4)
        self._race(workspace, ["planted", "planted-alt"] * 4)
        stats = workspace.stats
        assert stats.engine_loads == 2
        assert stats.engine_evictions == 0
        assert stats.served == 8
        assert sorted(stats.resident) == [("planted", "subtab"),
                                          ("planted-alt", "nc")]

    def test_counters_stay_consistent_under_thrashing(self, seeded_store,
                                                      slow_open):
        workspace = Workspace(seeded_store, capacity=1)
        self._race(workspace, ["planted", "planted-alt"] * 4, rounds=3)
        stats = workspace.stats
        assert stats.served == 24
        assert len(stats.resident) == 1
        assert stats.engine_loads - stats.engine_evictions == 1

    def test_evict(self, workspace):
        workspace.select(SelectionRequest(k=3, l=3, dataset="planted"))
        workspace.evict("planted")
        assert workspace.resident == []

    def test_engine_rejects_misrouted_requests(self, seeded_store):
        engine = seeded_store.open("planted")
        with pytest.raises(ValueError, match="dataset"):
            engine.select(SelectionRequest(k=3, l=3, dataset="planted-alt"))
        with pytest.raises(ValueError, match="algorithm"):
            engine.select(SelectionRequest(k=3, l=3, algorithm="nc"))
        # matching (or absent) routing fields serve normally
        assert engine.select(
            SelectionRequest(k=3, l=3, dataset="planted", algorithm="subtab")
        ).shape == (3, 3)


class TestSelectMany:
    def test_batch_matches_per_engine_select_bit_for_bit(self, seeded_store):
        """>= 2 datasets x >= 2 algorithms in one batch, interleaved."""
        requests = [
            SelectionRequest(k=4, l=3, dataset="planted"),
            SelectionRequest(k=3, l=3, dataset="planted-alt"),
            SelectionRequest(k=3, l=2, dataset="planted",
                             query=SPQuery((Eq("KIND", "beta"),))),
            SelectionRequest(k=4, l=3, dataset="planted", algorithm="nc"),
            SelectionRequest(k=3, l=3, dataset="planted-alt",
                             targets=("OUTCOME",)),
            SelectionRequest(k=4, l=3, dataset="planted"),  # repeat: LRU hit
        ]
        workspace = Workspace(seeded_store, capacity=4)
        responses = workspace.select_many(requests)

        assert [r.algorithm for r in responses] == [
            "subtab", "nc", "subtab", "nc", "nc", "subtab",
        ]
        for request, response in zip(requests, responses):
            engine = seeded_store.open(request.dataset,
                                       algorithm=request.algorithm)
            expected = engine.select(request)
            assert response.subtable.row_indices == expected.subtable.row_indices
            assert response.subtable.columns == expected.subtable.columns
            assert response.subtable.targets == expected.subtable.targets
            assert response.subtable.frame == expected.subtable.frame
            assert (response.k, response.l) == (expected.k, expected.l)

    def test_batch_groups_by_engine(self, seeded_store):
        """A batch touching more datasets than capacity still loads each
        engine exactly once, and repeats within a group hit the LRU."""
        workspace = Workspace(seeded_store, capacity=1)
        requests = [
            SelectionRequest(k=3, l=3, dataset="planted"),
            SelectionRequest(k=3, l=3, dataset="planted-alt"),
            SelectionRequest(k=3, l=3, dataset="planted"),  # same group as #0
            SelectionRequest(k=3, l=3, dataset="planted-alt"),
        ]
        responses = workspace.select_many(requests)
        stats = workspace.stats
        assert stats.engine_loads == 2  # one per engine, despite capacity=1
        assert stats.served == 4
        assert responses[2].cache_hit and responses[3].cache_hit
        assert responses[0].subtable.frame == responses[2].subtable.frame

    def test_responses_in_request_order(self, workspace):
        requests = [
            SelectionRequest(k=3, l=3, dataset="planted-alt"),
            SelectionRequest(k=4, l=3, dataset="planted"),
            SelectionRequest(k=5, l=3, dataset="planted-alt"),
        ]
        responses = workspace.select_many(requests)
        assert [(r.k, r.l) for r in responses] == [(3, 3), (4, 3), (5, 3)]
        assert [r.algorithm for r in responses] == ["nc", "subtab", "nc"]


class TestRequestWireFormat:
    """from_json(to_json()) round-trips every field (acceptance criterion)."""

    REQUESTS = [
        SelectionRequest(),
        SelectionRequest(k=4, l=3, targets=("OUTCOME", "KIND")),
        SelectionRequest(k=3, l=2, query=SPQuery((Eq("KIND", "beta"),))),
        SelectionRequest(
            k=5,
            l=4,
            query=SPQuery(
                (
                    Eq("KIND", "alpha"),
                    InRange("SIZE", 10.0, 2000.0),
                    Gt("SPEED", 1.5),
                    Lt("NOISE", 3.25),
                    IsMissing("OUTCOME"),
                    InSet("KIND", ("alpha", "gamma")),
                ),
                projection=("SIZE", "KIND", "OUTCOME"),
            ),
            targets=("OUTCOME",),
            fairness=GroupRepresentation(column="KIND", min_per_group=2,
                                         min_group_share=0.1),
            row_mode="mass",
            column_mode="centroid",
            centroid_mode="medoid",
            use_cache=False,
            dataset="planted",
            algorithm="subtab",
        ),
        SelectionRequest(query=SPQuery((), projection=("SIZE",))),
        SelectionRequest(k=2, l=2, query=SPQuery((Eq("OUTCOME", 1.0),))),
    ]

    @pytest.mark.parametrize("request_", REQUESTS)
    def test_round_trip_equals(self, request_):
        text = request_.to_json()
        assert isinstance(text, str)
        restored = SelectionRequest.from_json(text)
        assert restored == request_

    def test_projection_none_vs_empty_distinct(self):
        keep_all = SelectionRequest(query=SPQuery((Eq("A", "x"),)))
        keep_none = SelectionRequest(
            query=SPQuery((Eq("A", "x"),), projection=())
        )
        assert (SelectionRequest.from_json(keep_all.to_json()).query.projection
                is None)
        assert (SelectionRequest.from_json(keep_none.to_json()).query.projection
                == ())

    def test_unsupported_query_type_rejected(self):
        request = SelectionRequest(query=GroupByOp(("A",), "B"))
        with pytest.raises(WireFormatError, match="GroupByOp"):
            request.to_json()

    def test_wrong_envelope_rejected(self):
        with pytest.raises(WireFormatError, match="format"):
            SelectionRequest.from_json('{"format": "something-else"}')
        with pytest.raises(WireFormatError, match="wire version"):
            payload = SelectionRequest().to_wire()
            payload["wire_version"] = 99
            SelectionRequest.from_wire(payload)


class TestResponseWireFormat:
    def test_response_round_trips_losslessly(self, fitted_engine):
        request = SelectionRequest(
            k=4, l=3, targets=("OUTCOME",),
            query=SPQuery((Eq("KIND", "alpha"),)),
        )
        response = fitted_engine.select(request)
        restored = SelectionResponse.from_json(response.to_json())
        assert restored.subtable.row_indices == response.subtable.row_indices
        assert restored.subtable.columns == response.subtable.columns
        assert restored.subtable.targets == response.subtable.targets
        assert restored.subtable.frame == response.subtable.frame
        assert restored.request == response.request
        assert restored.algorithm == response.algorithm
        assert (restored.k, restored.l) == (response.k, response.l)
        assert restored.timings == response.timings
        # the reconstruction is a fixed point of the wire format
        assert restored.to_json() == response.to_json()

    def test_missing_cells_survive_the_wire(self, fitted_engine):
        response = fitted_engine.select(SelectionRequest(k=4, l=3))
        # smuggle a missing cell into a copy of the payload
        payload = response.to_wire()
        payload["subtable"]["cells"][0]["values"][0] = None
        restored = SelectionResponse.from_wire(payload)
        column = restored.subtable.frame.column(
            payload["subtable"]["cells"][0]["name"]
        )
        assert bool(column.missing_mask()[0])


class TestStatsJson:
    """WorkspaceStats has the JSON shape every serving-stats object
    shares (type + served + detail)."""

    def test_workspace_stats_to_json(self, seeded_store):
        from repro.api import Workspace

        workspace = Workspace(seeded_store, capacity=2)
        workspace.select(SelectionRequest(k=3, l=3, dataset="planted"))
        payload = workspace.stats.to_json()
        json.dumps(payload)  # JSON-serializable end to end
        assert payload["type"] == "workspace"
        assert payload["served"] == 1
        assert payload["engine_loads"] == 1
        assert payload["resident"] == [["planted", "subtab"]]
