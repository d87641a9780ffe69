"""Tests for the ClusterRouter (consistent-hash ring, replication, failover).

(Not to be confused with ``test_cluster.py``, which tests the k-means
clustering used by the selection algorithms.)
"""

import pytest

from repro.api import SelectionRequest, SelectionResponse
from repro.api.cache import stable_hash64
from repro.serve import (
    BackendError,
    BaseBackend,
    ClusterError,
    ClusterRouter,
    InProcessBackend,
    make_replica_policy,
    replica_policy_names,
)
from repro.serve.cluster import PrimaryPolicy, request_key


class FlakyBackend(BaseBackend):
    """Delegates to an inner backend until ``die()`` is called; afterwards
    every call raises BackendError, like a host that went down."""

    kind = "flaky"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.alive = True
        self.calls = 0

    def die(self):
        self.alive = False

    def select_many(self, requests, raise_on_error=True):
        self.calls += 1
        if not self.alive:
            raise BackendError("host is down")
        return self.inner.select_many(requests, raise_on_error=raise_on_error)


@pytest.fixture()
def members(fitted_engine):
    return [("a", InProcessBackend(fitted_engine)),
            ("b", InProcessBackend(fitted_engine)),
            ("c", InProcessBackend(fitted_engine))]


@pytest.fixture()
def requests():
    return [SelectionRequest(k=k, l=3) for k in range(2, 10)]


class TestRing:
    def test_routing_is_deterministic_and_name_stable(self, members, requests):
        router = ClusterRouter(members, replication=2)
        # Same request -> same replica set, and a freshly built ring with
        # the same member names places everything identically (this is
        # what keeps member LRUs warm across router restarts).
        rebuilt = ClusterRouter(
            [(name, backend) for name, backend in members], replication=2
        )
        for request in requests:
            replicas = router.replicas_for(request)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
            assert replicas == router.replicas_for(request)
            assert replicas == rebuilt.replicas_for(request)

    def test_key_includes_dataset(self):
        plain = SelectionRequest(k=3, l=3)
        named = SelectionRequest(k=3, l=3, dataset="planted")
        assert request_key(plain) != request_key(named)

    def test_ring_spreads_requests(self, members):
        router = ClusterRouter(members, replication=1)
        spread = {
            router.replicas_for(SelectionRequest(k=2 + (i % 20), l=3,
                                                 targets=("OUTCOME",)
                                                 if i % 2 else ()))[0]
            for i in range(40)
        }
        assert len(spread) > 1  # not everything on one member

    def test_replication_clamped_to_member_count(self, fitted_engine):
        router = ClusterRouter([("solo", InProcessBackend(fitted_engine))],
                               replication=5)
        assert router.replicas_for(SelectionRequest(k=3, l=3)) == ["solo"]

    def test_validation(self, members):
        with pytest.raises(ValueError, match="at least one member"):
            ClusterRouter([])
        with pytest.raises(ValueError, match="replication"):
            ClusterRouter(members, replication=0)
        with pytest.raises(ValueError, match="unique"):
            ClusterRouter([members[0], members[0]])


class TestServing:
    def test_matches_single_member_bit_for_bit(self, fitted_engine, members,
                                               requests):
        router = ClusterRouter(members, replication=2)
        responses = router.select_many(requests)
        for request, response in zip(requests, responses):
            assert isinstance(response, SelectionResponse)
            expected = fitted_engine.select(request)
            assert response.subtable.row_indices == expected.subtable.row_indices
            assert response.subtable.columns == expected.subtable.columns

    def test_request_errors_do_not_fail_over(self, fitted_engine):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        shadow = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", shadow)], replication=2)
        bad = SelectionRequest(k=3, l=3, targets=("NOPE",))
        with pytest.raises(ValueError, match="NOPE"):
            router.select(bad)
        # exactly one member was asked; a request error is final
        assert flaky.calls + shadow.calls == 1
        assert router.stats()["failovers"] == 0

    def test_stats_envelope(self, members, requests):
        router = ClusterRouter(members, replication=2)
        router.select_many(requests)
        stats = router.stats()
        assert stats["backend"] == "cluster"
        assert stats["served"] == len(requests)
        assert stats["failovers"] == 0
        assert sum(m["served"] for m in stats["members"]) == len(requests)
        assert all(m["dead"] is False for m in stats["members"])
        # Each member's own stats ride along, fingerprints included.
        for member in stats["members"]:
            assert member["stats"]["backend"] == "inproc"
            assert member["stats"]["served"] == member["served"]
            assert member["stats"]["fingerprints"]

    def test_dead_member_is_not_polled_for_stats(self, fitted_engine,
                                                 requests):
        class Down(FlakyBackend):
            def stats(self):
                # A down host's stats call would block for its connect
                # timeout; the router must not make it.
                assert self.alive, "stats() called on a dead member"
                return super().stats()

        down = Down(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", down),
                                ("b", InProcessBackend(fitted_engine))],
                               replication=2, replica_policy="hash")
        down.die()
        router.select_many(requests)  # a's share fails over: a is dead
        members = {m["name"]: m for m in router.stats()["members"]}
        assert members["a"]["dead"] is True
        assert members["a"]["stats"] is None
        assert members["b"]["stats"]["backend"] == "inproc"
        # Readmitted, the member is polled again.
        down.alive = True
        router.revive()
        members = {m["name"]: m for m in router.stats()["members"]}
        assert members["a"]["stats"]["backend"] == "flaky"

    def test_close_closes_owned_members(self, fitted_engine):
        inner = InProcessBackend(fitted_engine)
        ClusterRouter([("a", inner)]).close()
        with pytest.raises(BackendError, match="closed"):
            inner.select(SelectionRequest(k=3, l=3))


class TestReplicaPolicies:
    def test_policy_registry(self):
        assert replica_policy_names() == [
            "hash", "least_inflight", "primary", "round_robin",
        ]
        assert make_replica_policy("round_robin").name == "round_robin"
        with pytest.raises(ValueError, match="unknown replica policy"):
            make_replica_policy("fastest_guess")
        with pytest.raises(ValueError, match="unknown replica policy"):
            ClusterRouter([("a", object())], replica_policy="nope")
        # A policy is chosen by name; an instance is not a name.
        with pytest.raises(ValueError, match="unknown replica policy"):
            ClusterRouter([("a", object())], replica_policy=PrimaryPolicy())

    def test_default_is_primary_failover_only(self, members, requests):
        router = ClusterRouter(members, replication=2)
        assert router.stats()["replica_policy"] == "primary"
        router.select_many(requests)
        # primary: every request lands on the first replica in ring order
        for request in requests:
            primary = router.replicas_for(request)[0]
            served = {m["name"]: m["served"]
                      for m in router.stats()["members"]}
            assert served[primary] >= 1

    def test_round_robin_spreads_reads_across_replicas(self, fitted_engine):
        members = [("a", InProcessBackend(fitted_engine)),
                   ("b", InProcessBackend(fitted_engine))]
        router = ClusterRouter(members, replication=2,
                               replica_policy="round_robin")
        # the same request repeated: with primary it would pin to one
        # member; round-robin must alternate its replica set
        router.select_many([SelectionRequest(k=3, l=3)] * 8)
        served = {m["name"]: m["served"] for m in router.stats()["members"]}
        assert served == {"a": 4, "b": 4}
        assert router.stats()["failovers"] == 0

    def test_round_robin_does_not_alias_with_periodic_workloads(
        self, fitted_engine
    ):
        # Two alternating requests whose ring orders also alternate: a
        # global cursor would land every read on one member.
        members = [("a", InProcessBackend(fitted_engine)),
                   ("b", InProcessBackend(fitted_engine))]
        router = ClusterRouter(members, replication=2,
                               replica_policy="round_robin")
        workload = [SelectionRequest(k=4, l=3),
                    SelectionRequest(k=3, l=3, targets=("OUTCOME",))] * 4
        router.select_many(workload)
        served = {m["name"]: m["served"] for m in router.stats()["members"]}
        assert served == {"a": 4, "b": 4}

    def test_hash_pins_each_request_to_one_owner(self, fitted_engine):
        # Cache affinity: the same request repeated always lands on the
        # same replica, so the other replica's LRU never pays the miss
        # (round_robin would alternate and compute it cold on both).
        members = [("a", InProcessBackend(fitted_engine)),
                   ("b", InProcessBackend(fitted_engine))]
        router = ClusterRouter(members, replication=2,
                               replica_policy="hash")
        router.select_many([SelectionRequest(k=3, l=3)] * 8)
        served = {m["name"]: m["served"] for m in router.stats()["members"]}
        assert sorted(served.values()) == [0, 8]
        assert router.stats()["failovers"] == 0

    def test_hash_spreads_distinct_requests_across_replicas(
        self, fitted_engine, requests
    ):
        # ...but distinct requests hash to distinct owners, so reads still
        # use the whole replica set instead of piling onto ring order.
        members = [("a", InProcessBackend(fitted_engine)),
                   ("b", InProcessBackend(fitted_engine))]
        router = ClusterRouter(members, replication=2,
                               replica_policy="hash")
        router.select_many(requests)
        served = {m["name"]: m["served"] for m in router.stats()["members"]}
        assert sum(served.values()) == len(requests)
        assert all(count > 0 for count in served.values())

    def test_hash_failover_rotates_from_the_owner(self, fitted_engine,
                                                  requests):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        backup = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", backup)], replication=2,
                               replica_policy="hash")
        flaky.die()
        responses = router.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        dead = {m["name"]: m["dead"] for m in router.stats()["members"]}
        assert dead == {"a": True, "b": False}

    def test_least_inflight_prefers_idle_members(self, fitted_engine):
        members = [("a", InProcessBackend(fitted_engine)),
                   ("b", InProcessBackend(fitted_engine))]
        router = ClusterRouter(members, replication=2,
                               replica_policy="least_inflight")
        request = SelectionRequest(k=3, l=3)
        point = stable_hash64(request_key(request))
        indices = router._replica_indices(request, point)
        ring_order = router.replicas_for(request)
        # Idle ring: ties keep ring order (cache affinity preserved).
        assert router._attempt_order(indices, point) == indices
        # Load the ring-order primary: reads shed to the idle replica.
        busy = router.member_names.index(ring_order[0])
        router._begin_inflight(busy, 5)
        try:
            order = router._attempt_order(indices, point)
            assert router.member_names[order[0]] == ring_order[1]
        finally:
            router._end_inflight(busy, 5)

    def test_least_inflight_balances_within_one_batch(self, fitted_engine):
        # Grouping must account its own planned assignments: without the
        # provisional inflight bumps, every request of a batch sees the
        # pre-batch gauges (all zero) and the policy degrades to primary.
        members = [("a", InProcessBackend(fitted_engine)),
                   ("b", InProcessBackend(fitted_engine))]
        router = ClusterRouter(members, replication=2,
                               replica_policy="least_inflight")
        router.select_many([SelectionRequest(k=3, l=3)] * 8)
        served = {m["name"]: m["served"] for m in router.stats()["members"]}
        assert served == {"a": 4, "b": 4}

    def test_inflight_gauge_settles_to_zero(self, members, requests):
        router = ClusterRouter(members, replication=2,
                               replica_policy="least_inflight")
        router.select_many(requests)
        assert all(m["inflight"] == 0
                   for m in router.stats()["members"])

    def test_round_robin_failover_semantics_intact(self, fitted_engine,
                                                   requests):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        backup = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", backup)], replication=2,
                               replica_policy="round_robin")
        flaky.die()
        responses = router.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        dead = {m["name"]: m["dead"] for m in router.stats()["members"]}
        assert dead == {"a": True, "b": False}
        # request errors still never fail over, whatever the policy
        with pytest.raises(ValueError, match="NOPE"):
            router.select(SelectionRequest(k=3, l=3, targets=("NOPE",)))

    def test_per_dataset_traffic_counters(self, members):
        router = ClusterRouter(members, replication=2)
        router.select_many([
            SelectionRequest(k=3, l=3),
            SelectionRequest(k=4, l=3),
        ])
        # An engine with no dataset name serves any dataset named.
        router.select(SelectionRequest(k=3, l=3, dataset="hot"))
        datasets = router.stats()["datasets"]
        assert datasets[""] == 2
        assert datasets["hot"] == 1

    def test_traffic_counts_only_served_datasets(self, fitted_subtab):
        """5,000 selects naming datasets no member holds add no key; a
        held dataset's count equals its served selects."""
        from repro.api import Engine
        from repro.baselines.subtab_adapter import SubTabSelector

        engine = Engine("subtab", selector=SubTabSelector(subtab=fitted_subtab),
                        dataset="planted")
        router = ClusterRouter([("a", InProcessBackend(engine)),
                                ("b", InProcessBackend(engine))],
                               replication=2)
        probe = [SelectionRequest(k=3, l=3, dataset=f"probe-{i}")
                 for i in range(5_000)]
        results = router.select_many(probe, raise_on_error=False)
        assert all(isinstance(result, ValueError) for result in results)
        with pytest.raises(ValueError, match="probe-0"):
            router.select(probe[0])
        known = [SelectionRequest(k=k, l=3, dataset="planted") for k in (3, 4)]
        served = router.select_many(known) + [router.select(known[0])]
        assert router.stats()["datasets"] == {"planted": len(served)}


class TestFailover:
    def test_fails_over_to_replica_and_marks_suspect(self, fitted_engine,
                                                     requests):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        backup = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", backup)], replication=2)
        flaky.die()
        responses = router.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        stats = router.stats()
        dead = {m["name"]: m["dead"] for m in stats["members"]}
        assert dead["a"] is True
        assert dead["b"] is False
        assert stats["failovers"] >= 1
        # follow-up traffic routes around the suspect without retrying it
        calls_before = flaky.calls
        router.select_many(requests)
        assert flaky.calls == calls_before

    def test_batch_failover_pays_a_dead_member_once(self, fitted_engine,
                                                    requests):
        # Once the drain marks a member dead, the per-request failover
        # pass must not re-dial it for every entry in the batch.
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        backup = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", backup)], replication=2)
        flaky.die()
        responses = router.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        assert flaky.calls <= 1  # one drain attempt, zero per-request retries

    def test_fully_dead_batch_fails_fast_with_cluster_errors(
        self, fitted_engine, requests
    ):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky)], replication=1)
        flaky.die()
        entries = router.select_many(requests, raise_on_error=False)
        assert all(isinstance(e, ClusterError) for e in entries)
        assert flaky.calls == 1  # the drain; no per-request re-dials

    def test_revive_restores_routing(self, fitted_engine, requests):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        backup = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", backup)], replication=2)
        flaky.die()
        router.select_many(requests)
        flaky.alive = True
        router.revive()
        router.select_many(requests)
        assert flaky.calls > 1  # routed again after revive

    def test_exhausted_replicas_raise_cluster_error(self, fitted_engine):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky)], replication=1)
        flaky.die()
        with pytest.raises(ClusterError, match="replica"):
            router.select(SelectionRequest(k=3, l=3))
        # With no replica to retry on there was no failover — only a
        # member failure; the two metrics must not conflate.
        stats = router.stats()
        assert stats["failovers"] == 0
        assert stats["members"][0]["errors"] >= 1

    def test_failovers_count_reserved_requests_once(self, fitted_engine):
        flaky = FlakyBackend(InProcessBackend(fitted_engine))
        backup = FlakyBackend(InProcessBackend(fitted_engine))
        router = ClusterRouter([("a", flaky), ("b", backup)], replication=2)
        flaky.die()
        requests = [SelectionRequest(k=k, l=3) for k in range(2, 8)]
        responses = router.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        stats = router.stats()
        # one failover per re-served request at most, and only for the
        # requests whose primary was the dead member
        routed_to_dead = next(m["routed"] for m in stats["members"]
                              if m["name"] == "a")
        assert 1 <= stats["failovers"] <= len(requests)
        assert stats["failovers"] <= max(routed_to_dead, 1)

    def test_clusters_nest_and_outer_fails_over(self, fitted_engine,
                                                requests):
        # A cluster whose members are clusters: the inner one exhausts its
        # replicas (ClusterError is a BackendError), so the outer router
        # fails over to its healthy sibling.
        dying = FlakyBackend(InProcessBackend(fitted_engine))
        inner_bad = ClusterRouter([("x", dying)], replication=1)
        inner_good = ClusterRouter(
            [("y", InProcessBackend(fitted_engine))], replication=1
        )
        outer = ClusterRouter([("bad", inner_bad), ("good", inner_good)],
                              replication=2)
        dying.die()
        responses = outer.select_many(requests)
        assert all(isinstance(r, SelectionResponse) for r in responses)
        expected = [fitted_engine.select(r) for r in requests]
        assert [r.subtable.row_indices for r in responses] == \
               [e.subtable.row_indices for e in expected]
        # A nested router failing via entries (not raising) must still be
        # suspected — not blessed as live with zero errors.
        dead = {m["name"]: m for m in outer.stats()["members"]}
        assert dead["bad"]["dead"] is True
        assert dead["bad"]["errors"] >= 1
        assert dead["good"]["dead"] is False
