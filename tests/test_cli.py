"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.frame.io import to_csv


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("flights", "cyber", "spotify", "credit", "funds", "loans"):
            assert name in out


class TestShowCommand:
    def test_show_synthetic_dataset(self, capsys):
        code = main([
            "show", "--dataset", "cyber", "--rows", "400",
            "-k", "4", "-l", "4", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[4 rows x 4 columns]" in out
        assert "ATTACK_TYPE" in out  # default target forced in

    def test_show_csv(self, tmp_path, capsys, planted_frame):
        path = tmp_path / "table.csv"
        to_csv(planted_frame, path)
        code = main(["show", "--csv", str(path), "-k", "3", "-l", "3"])
        assert code == 0
        assert "[3 rows x 3 columns]" in capsys.readouterr().out

    def test_show_with_explicit_targets(self, capsys):
        code = main([
            "show", "--dataset", "cyber", "--rows", "300",
            "-k", "3", "-l", "3", "--targets", "SERVICE",
        ])
        assert code == 0
        assert "SERVICE" in capsys.readouterr().out

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["show"])


class TestExperimentCommand:
    def test_fig8_small(self, capsys):
        code = main(["experiment", "fig8", "--rows", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "SubTab" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestAlgorithmsCommand:
    def test_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("subtab", "ran", "nc", "greedy", "semigreedy", "mab", "embdi"):
            assert name in out

    def test_lists_in_deterministic_sorted_order(self, capsys):
        main(["algorithms"])
        first = capsys.readouterr().out
        listed = [line.split()[0] for line in first.splitlines() if line.strip()]
        assert listed == sorted(listed)
        main(["algorithms"])
        assert capsys.readouterr().out == first  # byte-identical re-run

    def test_lists_aliases(self, capsys):
        main(["algorithms"])
        out = capsys.readouterr().out
        assert "aliases: random" in out
        assert "aliases: naive, naive_cluster" in out


class TestShowAlgorithmFlag:
    def test_show_with_baseline_algorithm(self, capsys):
        code = main([
            "show", "--dataset", "cyber", "--rows", "300",
            "-k", "3", "-l", "3", "--algorithm", "nc", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pre-processing (nc)" in out
        assert "[3 rows x 3 columns]" in out

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown selector kind"):
            main([
                "show", "--dataset", "cyber", "--rows", "300",
                "--algorithm", "nope",
            ])


class TestFitServeRoundTrip:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "engine"
        code = main([
            "fit", "--dataset", "cyber", "--rows", "300",
            "-k", "4", "-l", "4", "--seed", "1", "--out", str(path),
        ])
        assert code == 0
        return path

    def test_fit_writes_artifact(self, artifact, capsys):
        assert (artifact / "manifest.json").is_file()
        assert (artifact / "arrays.npz").is_file()

    def test_show_from_artifact(self, artifact, capsys):
        code = main(["show", "--artifact", str(artifact), "-k", "4", "-l", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pre-processing skipped" in out
        assert "[4 rows x 4 columns]" in out

    @staticmethod
    def _subtable_body(output: str) -> str:
        """The rendered sub-table, without headers and timing lines."""
        skip = ("Artifact:", "Table:", "Pre-processing", "[select:")
        return "\n".join(
            line for line in output.splitlines()
            if line.strip() and not line.startswith(skip)
        )

    def test_show_from_artifact_matches_fresh_fit(self, artifact, capsys):
        # Explicit targets on both sides: the dataset path would otherwise
        # auto-fill the dataset's default targets, which the artifact
        # (fitted from the raw table) knows nothing about.
        main([
            "show", "--artifact", str(artifact), "-k", "4", "-l", "4",
            "--targets", "SERVICE",
        ])
        from_artifact = self._subtable_body(capsys.readouterr().out)
        main([
            "show", "--dataset", "cyber", "--rows", "300",
            "-k", "4", "-l", "4", "--seed", "1", "--targets", "SERVICE",
        ])
        fresh = self._subtable_body(capsys.readouterr().out)
        # Identical sub-table body: same rows, same columns, same values.
        assert from_artifact and from_artifact == fresh

    def test_serve_from_artifact(self, artifact, capsys):
        code = main(["serve", "--artifact", str(artifact), "--sessions", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Served" in out
        assert "cache:" in out

    def test_serve_requires_artifact(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    @staticmethod
    def _cache_counts(output: str) -> tuple[int, int]:
        import re

        match = re.search(r"hits=(\d+) misses=(\d+)", output)
        assert match, output
        return int(match.group(1)), int(match.group(2))

    def test_serve_honors_cache_size(self, artifact, capsys):
        code = main([
            "serve", "--artifact", str(artifact), "--sessions", "4",
            "--cache-size", "1",
        ])
        assert code == 0
        small_hits, small_misses = self._cache_counts(capsys.readouterr().out)
        main(["serve", "--artifact", str(artifact), "--sessions", "4"])
        big_hits, big_misses = self._cache_counts(capsys.readouterr().out)
        # a 1-entry LRU only catches consecutive repeats; the default-sized
        # LRU also catches revisited states, so shrinking the cache must
        # cost hits on the same session workload
        assert small_hits + small_misses == big_hits + big_misses
        assert small_hits < big_hits


def _serve_in_background(*flags, stdout, stderr=None):
    """``python -m repro serve <flags>`` as a child process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "repro", "serve", *flags],
                            stdout=stdout, stderr=stderr, text=True, env=env)


class TestServeTransports:
    """The one-code-path claim: every topology flag combination builds an
    ExecutionBackend and drives it through the same loop."""

    def test_socket_server_fronts_a_ring(self, subtab_artifact):
        # Several processes on one host: two spawned members, and a
        # socket server started with --connect in front of them.
        import re
        import subprocess
        from collections import Counter

        from repro.api import Engine, SelectionRequest, SelectionResponse
        from repro.queries.generator import SessionGenerator
        from repro.serve import (
            ClusterRouter,
            RemoteBackend,
            spawn_artifact_server,
        )

        engine = Engine.load(subtab_artifact)
        sessions = SessionGenerator(engine.binned, seed=0).generate(12)
        with spawn_artifact_server(subtab_artifact) as one, \
                spawn_artifact_server(subtab_artifact) as two:
            # --connect names members by address, so placement follows
            # the ephemeral ports: compute each request's owner on the
            # bound addresses, and add sessions (at most 12) until each
            # member owns a request the engine answers.
            ring = ClusterRouter([(one.address, None), (two.address, None)],
                                 replication=1, own_members=False)
            requests, expected, answered = [], [], Counter()
            for count, session in enumerate(sessions, start=1):
                for step in session:
                    requests.append(SelectionRequest(query=step.state))
                    try:
                        expected.append(engine.select(requests[-1]))
                    except ValueError:
                        expected.append(None)  # degenerate: fails remotely
                        continue
                    answered[ring.replicas_for(requests[-1])[0]] += 1
                if count >= 3 and len(answered) == 2:
                    break
            assert len(answered) == 2, answered
            server = _serve_in_background(
                "--artifact", str(subtab_artifact), "--transport", "socket",
                "--port", "0", "--connect", f"{one.address},{two.address}",
                "--replicas", "1", stdout=subprocess.PIPE,
            )
            try:
                banner = server.stdout.readline()
                match = re.search(r"serving .* on (\S+:\d+)", banner)
                assert match, banner
                assert "backend: cluster of 2 members" in banner
                with RemoteBackend(match.group(1)) as front:
                    served = front.select_many(requests,
                                               raise_on_error=False)
                per_member = {}
                for member in (one, two):
                    with member.connect() as remote:
                        per_member[member.address] = \
                            remote.stats()["server"]["served"]
            finally:
                server.terminate()
                server.wait(timeout=10)
                server.stdout.close()
        # Each member served exactly the answered requests it owns.
        assert per_member == dict(answered)

        def content(response) -> dict:
            payload = response.to_wire()
            for volatile in ("timings", "select_seconds", "cache_hit"):
                payload.pop(volatile)
            return payload

        for response, reply in zip(expected, served):
            if response is None:
                assert not isinstance(reply, SelectionResponse)
            else:
                assert content(reply) == content(response)

    def test_stats_reporter_waits_for_requests_in_flight(self, subtab_artifact,
                                                         tmp_path):
        # A front over one sync member has one socket to it; the
        # --stats-interval reporter must not cut into a request on it.
        import re
        import time

        from repro.api import SelectionRequest
        from repro.serve import RemoteBackend, spawn_artifact_server

        log = tmp_path / "front.log"
        with spawn_artifact_server(subtab_artifact) as member, \
                open(log, "w") as out:
            server = _serve_in_background(
                "--artifact", str(subtab_artifact), "--transport", "socket",
                "--port", "0", "--connect", member.address,
                "--stats-interval", "0.001", stdout=out,
            )
            try:
                deadline = time.monotonic() + 60.0
                match = None
                while match is None and time.monotonic() < deadline:
                    time.sleep(0.05)
                    match = re.search(r"serving .* on (\S+:\d+)",
                                      log.read_text())
                assert match, log.read_text()
                with RemoteBackend(match.group(1)) as front:
                    for k, l in [(3, 3), (4, 3), (3, 4), (4, 4)] * 25:
                        response = front.select(
                            SelectionRequest(k=k, l=l, use_cache=False)
                        )
                        assert response.shape == (k, l)
            finally:
                server.terminate()
                server.wait(timeout=10)
        assert '"served"' in log.read_text()  # the reporter did run

    def test_connect_single_remote_server(self, subtab_artifact, capsys):
        from repro.serve import spawn_artifact_server

        with spawn_artifact_server(subtab_artifact) as server:
            code = main([
                "serve", "--artifact", str(subtab_artifact), "--sessions", "2",
                "--connect", server.address,
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"Backend: remote server {server.address}" in out
        assert "Served" in out
        assert "aggregate QPS:" in out

    def test_connect_cluster_of_two(self, subtab_artifact, capsys):
        from repro.serve import spawn_artifact_server

        with spawn_artifact_server(subtab_artifact) as one:
            with spawn_artifact_server(subtab_artifact) as two:
                code = main([
                    "serve", "--artifact", str(subtab_artifact),
                    "--sessions", "2",
                    "--connect", f"{one.address},{two.address}",
                    "--replicas", "2",
                ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Backend: cluster of 2 members" in out
        assert "failovers: 0" in out
        assert "per-member:" in out

    def test_malformed_connect_address_is_a_clean_error(self, subtab_artifact):
        with pytest.raises(SystemExit, match="host:port"):
            main(["serve", "--artifact", str(subtab_artifact),
                  "--connect", "hostA"])

    def test_duplicate_members_and_bad_replicas_are_clean_errors(
        self, subtab_artifact
    ):
        with pytest.raises(SystemExit, match="unique"):
            main(["serve", "--artifact", str(subtab_artifact),
                  "--connect", "127.0.0.1:1,127.0.0.1:1"])
        with pytest.raises(SystemExit, match="replication"):
            main(["serve", "--artifact", str(subtab_artifact),
                  "--connect", "127.0.0.1:1,127.0.0.1:2", "--replicas", "0"])

    def test_dead_remote_server_exits_nonzero(self, subtab_artifact, capsys):
        code = main([
            "serve", "--artifact", str(subtab_artifact), "--sessions", "1",
            "--connect", "127.0.0.1:9",
        ])
        assert code == 1
        assert "backend failed" in capsys.readouterr().err

    def test_dead_cluster_exits_nonzero(self, subtab_artifact, capsys):
        code = main([
            "serve", "--artifact", str(subtab_artifact), "--sessions", "1",
            "--connect", "127.0.0.1:9,127.0.0.1:10", "--replicas", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed at the backend level" in err

    @pytest.mark.parametrize("transport", ["socket", "asyncio", "http"])
    def test_bind_failure_is_one_line(self, subtab_artifact, transport):
        import socket
        import subprocess

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = _serve_in_background(
                "--artifact", str(subtab_artifact), "--transport", transport,
                "--port", str(taken.getsockname()[1]),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            out, err = server.communicate(timeout=60)
        assert server.returncode != 0
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert err.startswith("serve: could not bind 127.0.0.1:"), err

    def test_socket_server_mode_end_to_end(self, subtab_artifact):
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", str(subtab_artifact),
             "--transport", "socket", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"on (\d+\.\d+\.\d+\.\d+:\d+)", banner)
            assert match, banner
            from repro.api import SelectionRequest
            from repro.serve import RemoteBackend

            remote = RemoteBackend(match.group(1))
            response = remote.select(SelectionRequest(k=3, l=3))
            assert response.shape == (3, 3)
            remote.close()
        finally:
            server.terminate()
            server.wait(timeout=10)
