"""Tests for the ExecutionBackend protocol and its local implementations.

The protocol is the tentpole of the serving re-layering: every serving
path (in-process engine/workspace, socket, cluster) exposes
the same four methods, so these tests pin the contract — entry order,
error entries, the shared stats envelope, close semantics — that every
implementation must satisfy.
"""

import pytest

from repro.api import SelectionRequest, SelectionResponse
from repro.serve import BackendError, ExecutionBackend, InProcessBackend

CORE_STATS_KEYS = ("backend", "served", "errors", "seconds", "qps")


@pytest.fixture()
def requests():
    return [
        SelectionRequest(k=4, l=3),
        SelectionRequest(k=3, l=3, targets=("OUTCOME",)),
        SelectionRequest(k=4, l=3),  # repeat of the first
    ]


class TestProtocol:
    def test_local_backends_satisfy_the_protocol(self, fitted_engine):
        assert isinstance(InProcessBackend(fitted_engine), ExecutionBackend)

    def test_cluster_and_remote_satisfy_the_protocol(self, fitted_engine):
        from repro.serve import ClusterRouter, RemoteBackend

        assert isinstance(
            ClusterRouter([InProcessBackend(fitted_engine)]),
            ExecutionBackend,
        )
        assert isinstance(RemoteBackend("127.0.0.1:1"), ExecutionBackend)

    def test_rejects_non_serving_host(self):
        with pytest.raises(TypeError, match="Engine or Workspace"):
            InProcessBackend(object())


class TestInProcessBackend:
    def test_matches_bare_engine(self, fitted_engine, requests):
        backend = InProcessBackend(fitted_engine)
        responses = backend.select_many(requests)
        for request, response in zip(requests, responses):
            assert isinstance(response, SelectionResponse)
            expected = fitted_engine.select(request)
            assert response.subtable.row_indices == expected.subtable.row_indices
            assert response.subtable.columns == expected.subtable.columns

    def test_from_artifact_serves(self, subtab_artifact):
        backend = InProcessBackend.from_artifact(subtab_artifact)
        assert backend.select(SelectionRequest(k=3, l=3)).shape == (3, 3)
        stats = backend.stats()
        for key in CORE_STATS_KEYS:
            assert key in stats
        assert stats["backend"] == "inproc"
        assert stats["served"] == 1
        assert "cache" in stats

    def test_error_entries_keep_request_order(self, fitted_engine, requests):
        backend = InProcessBackend(fitted_engine)
        bad = SelectionRequest(k=3, l=3, targets=("NOPE",))
        entries = backend.select_many(
            [requests[0], bad, requests[1]], raise_on_error=False
        )
        assert isinstance(entries[0], SelectionResponse)
        assert isinstance(entries[1], ValueError)
        assert isinstance(entries[2], SelectionResponse)
        stats = backend.stats()
        assert stats["served"] == 2
        assert stats["errors"] == 1

    def test_raise_on_error_raises_the_original(self, fitted_engine):
        backend = InProcessBackend(fitted_engine)
        with pytest.raises(ValueError, match="NOPE"):
            backend.select_many(
                [SelectionRequest(k=3, l=3, targets=("NOPE",))]
            )

    def test_select_raises_like_the_engine(self, fitted_engine):
        backend = InProcessBackend(fitted_engine)
        with pytest.raises(ValueError, match="NOPE"):
            backend.select(SelectionRequest(k=3, l=3, targets=("NOPE",)))

    def test_workspace_host_routes_datasets(self, seeded_store):
        backend = InProcessBackend.from_store(seeded_store)
        response = backend.select(
            SelectionRequest(k=3, l=3, dataset="planted")
        )
        assert response.algorithm == "subtab"
        stats = backend.stats()
        assert stats["workspace"]["type"] == "workspace"
        assert stats["workspace"]["served"] == 1
        backend.close()
        assert backend.host.resident == []  # close evicts loaded engines

    def test_closed_backend_refuses(self, fitted_engine):
        backend = InProcessBackend(fitted_engine)
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            backend.select_many([SelectionRequest(k=3, l=3)])
