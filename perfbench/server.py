"""The gateway the benchmark drives, in a process of its own.

Builds what ``spawn_store_server(transport="http")`` builds: an
``HttpGateway`` over ``InProcessBackend.from_store``, here with one tenant
whose rate is 0 (authentication and admission run, nothing is shed).  Prints
one JSON line with its address when it serves, then takes one command per
line on stdin and answers each with one JSON line:

    trace on | trace off    start / stop recording spans (needs --trace)
    dump PATH               write the recorded spans to PATH
    quit                    close the gateway and exit (so does end of input)

Run from the repository root: ``python3 perfbench/server.py --store DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402

#: Workspace engines kept loaded, each engine's selection LRU and the
#: gateway's response cache, as ``docs/operations.md`` deploys them.
ENGINES, ENGINE_LRU, RESPONSE_CACHE = 4, 256, 256
#: The one tenant's API key.
API_KEY = "perfbench-analyst"


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = tracing.Recorder()
    if args.trace:
        # Before the gateway exists: it binds GatewayApp.handle at build time.
        tracing.install_server_layers(recorder)

    from repro.api.store import ArtifactStore
    from repro.gateway import HttpGateway, TenantRegistry
    from repro.serve.backend import InProcessBackend

    backend = InProcessBackend.from_store(
        ArtifactStore(args.store), capacity=ENGINES, cache_size=ENGINE_LRU,
    )
    tenants = TenantRegistry.from_json({"tenants": [
        {"name": "analyst", "key": API_KEY, "rate": 0},
    ]})
    gateway = HttpGateway(backend, tenants=tenants, own_backend=True,
                          cache_size=RESPONSE_CACHE).start()
    try:
        host, port = gateway.address
        _reply({"ready": True, "host": host, "port": port, "pid": os.getpid()})
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "quit":
                break
            if command == "trace" and args.trace:
                recorder.active = argument == "on"
            elif command == "dump":
                recorder.dump(argument)
            else:
                _reply({"ok": False, "error": f"unknown command {line.strip()!r}"})
                continue
            _reply({"ok": True})
    finally:
        gateway.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
