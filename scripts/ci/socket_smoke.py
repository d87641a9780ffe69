"""Socket-server smoke: RemoteBackend bit-for-bit vs in-process.

Backgrounds ``serve --transport socket`` on an OS-assigned port, serves
the generated session stream through a ``RemoteBackend`` client, and
diffs every response against the in-process engine — the whole
host-boundary leg (framing, server dispatch, wire codecs) end to end.
A second, concurrent leg sends the stream uncached from 4 threads, each
on its own connection, so the server runs their selects at once; every
thread's replies must match too, and the server's ``stats`` must count
every request of both legs.  A server that never reports ready exits
non-zero with its log.  Runs in CI and locally:
``python scripts/ci/socket_smoke.py``.
"""

import dataclasses
import threading

from smoke_common import BackgroundServer, diff_responses, \
    ensure_artifact, session_requests

#: Client threads of the concurrent leg, one connection each.
THREADS = 4


def main() -> int:
    artifact = ensure_artifact()

    from repro.api import Engine
    from repro.serve import RemoteBackend

    engine = Engine.load(artifact)
    requests = session_requests(engine)
    uncached = [dataclasses.replace(request, use_cache=False)
                for request in requests]
    replies = [None] * THREADS

    def drive(slot: int) -> None:
        with RemoteBackend(server.address) as client:
            replies[slot] = client.select_many(uncached,
                                               raise_on_error=False)

    with BackgroundServer(artifact, transport="socket") as server:
        remote = RemoteBackend(server.address)
        over_socket = remote.select_many(requests, raise_on_error=False)
        threads = [threading.Thread(target=drive, args=(slot,))
                   for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            if thread.is_alive():
                raise SystemExit("socket smoke: a concurrent client hung")
        stats = remote.stats()["server"]
        remote.close()
    checked = diff_responses(engine, requests, over_socket, "socket smoke")
    print(f"socket smoke: {checked} remote responses bit-identical "
          f"to the in-process path")
    for slot, served in enumerate(replies):
        if served is None:
            raise SystemExit(f"socket smoke: client thread {slot} failed")
        diff_responses(engine, uncached, served,
                       f"socket smoke (thread {slot})")
    sent = len(requests) * (1 + THREADS)
    counted = stats["served"] + stats["errors"]
    if counted != sent:
        raise SystemExit(f"socket smoke: the server counted {counted} "
                         f"of {sent} requests")
    print(f"socket smoke: {THREADS} concurrent clients bit-identical; "
          f"the server counted all {sent} requests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
