"""Shared harness for the CI smoke scripts.

Every smoke under ``scripts/ci/`` is a plain entry point — runnable in CI
and locally as ``python scripts/ci/<name>.py`` with no arguments — built
from the same pieces:

* :func:`ensure_artifact` — fit the small synthetic engine artifact every
  smoke serves from (through the real CLI, so ``fit`` itself is smoked),
  reusing an existing one when the previous step already built it;
* :func:`session_requests` / :func:`diff_responses` — the bit-for-bit
  diff harness: the same generated session requests are served through
  the path under test and through the in-process engine, and every
  response must match in wire form (minus timing/cache metadata, which
  legitimately differs per path);
* :func:`http_post` — one stdlib-``urllib`` POST to a gateway, with its
  status, headers and decoded body;
* :class:`BackgroundServer` — run ``python -m repro serve --transport
  socket|asyncio|http`` (plus any extra ``serve`` flags) as a background
  process on an **OS-assigned port** (``--port 0``; parallel CI jobs
  cannot collide on a fixed port) and wait for its readiness banner.  A
  server that never becomes ready is a hard failure: the log is dumped
  and the smoke exits non-zero — a readiness poll that silently falls
  through to the client turns every startup bug into a confusing
  connection error downstream.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

# Make `python scripts/ci/<name>.py` work without PYTHONPATH gymnastics.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Volatile response fields that legitimately differ between serving
#: paths (timings, cache provenance) and are excluded from the diff.
VOLATILE_FIELDS = ("timings", "select_seconds", "cache_hit")

#: Fit settings of the shared smoke artifact (small but real).
ARTIFACT_FIT_ARGS = ["--dataset", "cyber", "--rows", "300",
                     "-k", "4", "-l", "4", "--seed", "1"]

_READY_PATTERN = re.compile(r"serving .* on (\S+):(\d+)")


def repro_env() -> dict:
    """Environment for ``python -m repro`` subprocesses (src importable)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{SRC}{os.pathsep}{existing}" if existing
                         else str(SRC))
    return env


def run_cli(*args: str) -> None:
    """Run ``python -m repro <args>`` and fail the smoke on a non-zero
    exit (output streams through, so CI logs show the real failure)."""
    command = [sys.executable, "-m", "repro", *args]
    result = subprocess.run(command, env=repro_env())
    if result.returncode != 0:
        raise SystemExit(
            f"smoke: `{' '.join(command[2:])}` exited "
            f"{result.returncode}"
        )


def ensure_artifact() -> Path:
    """The shared smoke artifact, fitting it through the CLI if absent.

    The location comes from ``REPRO_CI_ARTIFACT`` (CI pins it so the fit
    happens once per job) and defaults to the system temp directory for
    local runs.
    """
    artifact = Path(os.environ.get(
        "REPRO_CI_ARTIFACT",
        str(Path(tempfile.gettempdir()) / "repro-ci-engine-artifact"),
    ))
    if not (artifact / "manifest.json").exists():
        run_cli("fit", *ARTIFACT_FIT_ARGS, "--out", str(artifact))
    return artifact


def session_requests(engine):
    """The generated session request stream every smoke serves."""
    from repro.api import SelectionRequest
    from repro.queries.generator import SessionGenerator

    sessions = SessionGenerator(engine.binned, seed=0).generate(3)
    return [SelectionRequest(query=step.state)
            for session in sessions for step in session]


def content(response) -> dict:
    """A response's wire form minus the volatile per-path fields."""
    payload = response.to_wire()
    for volatile in VOLATILE_FIELDS:
        payload.pop(volatile)
    return payload


def diff_responses(engine, requests, served, label: str) -> int:
    """Assert ``served`` matches the in-process engine bit for bit.

    Degenerate requests (the engine raises ``ValueError``) must have
    failed on the serving path too.  Returns the number of compared
    responses and fails the smoke if nothing was comparable.
    """
    checked = 0
    for request, response in zip(requests, served):
        try:
            expected = engine.select(request)
        except ValueError:
            assert not hasattr(response, "subtable"), (
                f"{label}: degenerate request served: {request}"
            )
            continue
        assert content(response) == content(expected), (
            f"{label}: response diverged for {request}"
        )
        checked += 1
    if checked == 0:
        raise SystemExit(f"{label}: no comparable responses were served")
    return checked


def http_post(base: str, path: str, payload: dict, key: Optional[str],
              trace_id: Optional[str] = None,
              etag: Optional[str] = None) -> tuple:
    """``(status, headers, body_dict)`` for one stdlib-urllib POST to the
    gateway at ``base`` (``key=None``: no credentials).

    A ``304`` (and any other body-less reply) returns ``None`` for the
    body — urllib surfaces 3xx/4xx as ``HTTPError``, and 304 carries no
    payload to parse.
    """
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json",
                 **({"Authorization": f"Bearer {key}"} if key else {}),
                 **({"X-Trace-Id": trace_id} if trace_id else {}),
                 **({"If-None-Match": etag} if etag else {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read().decode("utf-8")))
    except urllib.error.HTTPError as error:
        raw = error.read()
        body = json.loads(raw.decode("utf-8")) if raw else None
        return error.code, dict(error.headers), body


class BackgroundServer:
    """``python -m repro serve`` in the background, on an ephemeral port.

    >>> with BackgroundServer(artifact, transport="socket") as server:
    ...     RemoteBackend(server.address).select_many(requests)

    ``serve_args`` are further ``serve`` flags (``--tenants FILE``, ...).
    Readiness is the CLI's ``serving ... on HOST:PORT`` banner; waiting
    exhausts after ``timeout`` seconds with the full server log on
    stderr and a non-zero exit — never a silent fall-through.
    """

    def __init__(self, artifact: Path, transport: str = "socket",
                 timeout: float = 120.0, serve_args: Sequence[str] = ()):
        self.transport = transport
        self.log_path = Path(tempfile.mkstemp(
            prefix=f"repro-{transport}-server-", suffix=".log"
        )[1])
        self._log = open(self.log_path, "w+")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", str(artifact),
             "--transport", transport, "--host", "127.0.0.1", "--port", "0",
             *serve_args],
            stdout=self._log, stderr=subprocess.STDOUT, env=repro_env(),
        )
        self.host, self.port = self._wait_ready(timeout)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _wait_ready(self, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            banner = _READY_PATTERN.search(self.log_path.read_text())
            if banner:
                return banner.group(1), int(banner.group(2))
            if self.process.poll() is not None:
                self._die(f"server exited with code "
                          f"{self.process.returncode} before becoming ready")
            time.sleep(0.1)
        self._die(f"server not ready within {timeout:.0f}s")

    def _die(self, reason: str) -> None:
        """Readiness failed: dump the log, clean up, exit non-zero."""
        sys.stderr.write(
            f"smoke: {self.transport} {reason}\n"
            f"--- server log ({self.log_path}) ---\n"
            f"{self.log_path.read_text()}\n"
        )
        self.stop()
        raise SystemExit(1)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5)
        self._log.close()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
