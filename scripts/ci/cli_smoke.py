"""CLI smoke: fit → show → serve artifact round-trip, and HTTP server mode.

Exercises artifact serialization end to end on a small synthetic dataset
through the real command-line entry points, so save/load breakage fails
fast and independently of pytest.  The HTTP leg runs ``serve --transport
http --tenants FILE --http-cache-size 16`` in the background:

* the session stream, sent through ``HttpBackend`` with the tenant's key,
  matches the in-process engine under ``diff_responses``;
* a repeated request comes back ``X-Cache: hit``;
* a request without a key gets 401;
* a malformed tenants file makes ``serve`` exit non-zero before it prints
  its ``serving ... on`` banner.

Runs in CI and locally: ``python scripts/ci/cli_smoke.py``.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_common import BackgroundServer, diff_responses, ensure_artifact, \
    http_post, repro_env, run_cli, session_requests

#: The one tenant's API key.
API_KEY = "cli-smoke-key"


def _http_leg(artifact: Path, folder: Path) -> int:
    """The HTTP server mode with tenants and a response cache; returns the
    number of responses compared with the in-process engine."""
    from repro.api import Engine, SelectionResponse
    from repro.gateway import HttpBackend
    from repro.serve import RequestError

    engine = Engine.load(artifact)
    requests = session_requests(engine)
    tenants = folder / "tenants.json"
    tenants.write_text(json.dumps(
        {"tenants": [{"name": "smoke", "key": API_KEY}]}
    ))
    with BackgroundServer(artifact, transport="http", serve_args=(
            "--tenants", str(tenants), "--http-cache-size", "16")) as server:
        base = f"http://{server.address}"
        client = HttpBackend(server.address, api_key=API_KEY)
        served = []
        try:
            for request in requests:
                try:
                    served.append(client.select(request))
                except RequestError as error:
                    # A degenerate state: diff_responses checks that the
                    # in-process engine rejects it too.
                    served.append(error)
        finally:
            client.close()
        checked = diff_responses(engine, requests, served, "cli http smoke")

        probe = next(request for request, response in zip(requests, served)
                     if isinstance(response, SelectionResponse))
        status, headers, _body = http_post(base, "/v1/select",
                                           probe.to_wire(), API_KEY)
        assert status == 200 and headers.get("X-Cache") == "hit", (
            f"cli http smoke: a repeated request should be a cache hit, "
            f"got {status} {headers}"
        )
        status, _headers, body = http_post(base, "/v1/select",
                                           probe.to_wire(), None)
        assert status == 401, (
            f"cli http smoke: a request without a key should get 401, got "
            f"{status}: {body}"
        )

    malformed = folder / "malformed.json"
    malformed.write_text("{\"tenants\": [")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact),
         "--transport", "http", "--host", "127.0.0.1", "--port", "0",
         "--tenants", str(malformed)],
        capture_output=True, text=True, env=repro_env(), timeout=120,
    )
    assert result.returncode != 0, (
        "cli http smoke: serve accepted a malformed tenants file"
    )
    assert "serving" not in result.stdout, (
        f"cli http smoke: serve printed its banner before rejecting the "
        f"tenants file: {result.stdout!r}"
    )
    return checked


def main() -> int:
    artifact = ensure_artifact()  # runs `fit` through the CLI
    run_cli("show", "--artifact", str(artifact),
            "-k", "4", "-l", "4", "--targets", "SERVICE")
    run_cli("serve", "--artifact", str(artifact), "--sessions", "3")
    with tempfile.TemporaryDirectory(prefix="repro-cli-smoke-") as folder:
        checked = _http_leg(artifact, Path(folder))
    print(f"cli smoke: fit/show/serve round-trip over {artifact} ok; "
          f"serve --transport http with tenants and a response cache "
          f"served {checked} responses bit-identical to in-process, a "
          f"repeat hit the cache, a keyless request got 401, and a "
          f"malformed tenants file stopped serve before its banner")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
