"""The serving probe's server: a ``NetServer`` with default ``Server``
settings in its own process.

Prints ``{"port": N}`` once listening, then answers each ``stats`` line
on stdin with one JSON line of the server's accounting.  ``quit`` or end
of input drains and closes the server, prints the final snapshot and
exits.  Run by ``serving.py``; not meant to be started by hand.
"""

import asyncio
import json
import sys

from repro.serve import NetServer


def snapshot(net):
    s = net.server.stats()
    queues = s.queues.values()
    return {"submitted": s.submitted, "completed": s.completed,
            "failed": s.failed, "rejected": s.rejected,
            "cancelled": s.cancelled, "expired": s.expired,
            "inflight": s.inflight, "batches": s.batches,
            "batched_requests": s.batched_requests,
            "wait_seconds": sum(q.wait_seconds for q in queues),
            "run_seconds": sum(q.run_seconds for q in queues)}


async def main():
    loop = asyncio.get_running_loop()
    net = NetServer()
    await net.start()
    print(json.dumps({"port": net.port}), flush=True)
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line or line.strip() == "quit":
                break
            print(json.dumps(snapshot(net)), flush=True)
    finally:
        await net.close()
    print(json.dumps(snapshot(net)), flush=True)


if __name__ == "__main__":
    asyncio.run(main())
