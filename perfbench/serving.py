"""The serving-layer probe of every traced run: TCP ``Client``s against a
``NetServer`` child process with default ``Server`` settings.

The request mix is mostly compute-light 32^2-64^2 ``ata`` and small
``atb`` in float64 and float32 (five coalescing keys), with one request
in eight a 96^2/128^2 ``ata``.  Operands come from seeded per-class
pools whose floor results are computed up front.

The probe warms every pool operand once, runs a closed-loop burst of
``nproc`` connections with ``INFLIGHT`` outstanding requests each (for
the server's queue and batch counters), then times the same light
requests through three paths -- engine only, in-process ``Server`` and
TCP -- and the wire codec on their frames.
"""

import asyncio
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.engine import ExecutionEngine
from repro.serve import Client, Server
from repro.serve.protocol import encode_frame, pack_array, unpack_array

from common import input_record, median, within_contract

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "server_child.py")

#: (op, m, n, k, dtype, weight); weights sum to 16.  The first
#: LIGHT_CLASSES entries are compute-light, the last two (weight 2 of 16)
#: the compute-heavy cells.
LIGHT_CLASSES = 5
CLASSES = [("ata", 32, 32, 0, "float64", 4), ("ata", 64, 64, 0, "float64", 4),
           ("ata", 48, 48, 0, "float32", 2), ("atb", 64, 32, 16, "float64", 2),
           ("atb", 48, 48, 16, "float32", 2),
           ("ata", 96, 96, 0, "float64", 1), ("ata", 128, 128, 0, "float64", 1)]
POOL = 8
INFLIGHT = 4
BURST_SECONDS = 2.0
#: the waterfall's parts are measured on one pass; a second TCP pass over
#: the same requests must agree with their sum within this share
WATERFALL_TOLERANCE = 0.15


class Request:
    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b
        self.floor = a.T @ (a if op == "ata" else b)


class Traffic:
    """Seeded request pools and the seeded draw over them."""

    def __init__(self, ctx, rng):
        pool = 2 if ctx.tiny else POOL
        self.pools = []
        weights = []
        for op, m, n, k, dtype, weight in CLASSES:
            name = f"{op}:{m}x{n}" + (f"x{k}" if k else "") + \
                f":{np.dtype(dtype).name}"
            reqs = []
            for _ in range(pool):
                a = rng.standard_normal((m, n)).astype(dtype)
                b = rng.standard_normal((m, k)).astype(dtype) if k else None
                reqs.append(Request(op, a, b))
            self.pools.append(reqs)
            weights.append(weight)
            ctx.inputs.append(input_record(f"serve:{name}:A x{pool}",
                                           reqs[0].a))
        self.p = np.array(weights, dtype=float) / sum(weights)
        self.rng = rng

    def draw(self):
        pool = self.pools[self.rng.choice(len(self.pools), p=self.p)]
        return pool[self.rng.integers(len(pool))]

    def all(self):
        return [r for pool in self.pools for r in pool]


class ServerChild:
    """The server process; ``stats()`` / ``close()`` talk over its pipes."""

    def __init__(self, ctx):
        self.proc = ctx.spawn([sys.executable, CHILD], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server child exited before listening")
        self.port = json.loads(line)["port"]
        self.sent = 0

    def stats(self):
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        final = json.loads(self.proc.stdout.readline())
        self.proc.wait(timeout=30)
        return final


async def one(ctx, child, client, req, tracer, rid):
    child.sent += 1
    ok = False
    idx = tracer.begin("serve.request", rid=rid)
    try:
        out = await client.submit(req.a, op=req.op, b=req.b)
        ok = within_contract(out, req.floor, req.op)
    except Exception as exc:  # refused or failed requests are counted
        ctx.report.note("request_failed", repr(exc))
    finally:
        tracer.end(idx)
    ctx.report.record(ok)


async def closed_loop(ctx, child, clients, traffic, seconds, tracer):
    deadline = time.perf_counter() + seconds

    async def worker(client, base):
        rid = base
        while time.perf_counter() < deadline:
            rid += 1
            await one(ctx, child, client, traffic.draw(), tracer, rid)

    await asyncio.gather(*(worker(c, 10**6 * (i * INFLIGHT + j + 1))
                           for i, c in enumerate(clients)
                           for j in range(INFLIGHT)))


async def connect(port, n):
    return [await Client(port=port).connect() for _ in range(n)]


async def warm(child, clients, traffic):
    for req in traffic.all():
        child.sent += 1
        await clients[0].submit(req.a, op=req.op, b=req.b)


def ledger_ok(ctx, final, sent):
    settled = (final["completed"] + final["failed"] + final["rejected"]
               + final["cancelled"] + final["expired"])
    ok = final["submitted"] == settled == sent and final["inflight"] == 0
    ctx.report.note("ledger", {**{k: final[k] for k in (
        "submitted", "completed", "failed", "rejected", "cancelled",
        "expired", "inflight")}, "sent": sent, "identity_holds": ok})
    return ok


async def waterfall(ctx, child, client, requests, tracer):
    """The same requests through three paths, interleaved per request:
    engine only (per-item ``run_batch``), in-process ``Server``, TCP."""
    engine = ExecutionEngine()
    server = Server()
    paths = {"engine": [], "server": [], "tcp": []}
    root = tracer.begin("serve.waterfall")
    try:
        for rid, req in enumerate(requests):
            for path in paths:
                idx = tracer.begin(f"waterfall.{path}", parent=root, rid=rid)
                t0 = time.perf_counter()
                if path == "engine":
                    out = (engine.run_batch([req.a]) if req.op == "ata" else
                           engine.run_batch_atb([(req.a, req.b)]))[0]
                elif path == "server":
                    out = await server.submit(req.a, op=req.op, b=req.b)
                else:
                    child.sent += 1
                    out = await client.submit(req.a, op=req.op, b=req.b)
                paths[path].append(time.perf_counter() - t0)
                tracer.end(idx)
                ctx.report.record(within_contract(out, req.floor, req.op))
    finally:
        tracer.end(root)
        await server.close()
    return {k: float(np.mean(v)) for k, v in paths.items()}


def codec_times(requests, reps=5):
    """Median ``pack_array``+``encode_frame`` and ``unpack_array`` time
    per request frame (seconds)."""
    enc, dec = [], []
    for req in requests:
        for _ in range(reps):
            t0 = time.perf_counter()
            meta, raw = pack_array(req.a)
            header = {"op": "submit", "req_op": req.op, "algo": "auto",
                      "alpha": 1.0, **meta}
            payload = bytes(raw)
            if req.b is not None:
                bmeta, braw = pack_array(req.b, prefix="b_")
                header.update(bmeta)
                payload += bytes(braw)
            encode_frame(header, payload)
            t1 = time.perf_counter()
            unpack_array(header, payload)
            if req.b is not None:
                unpack_array(header, payload, prefix="b_",
                             offset=req.a.nbytes)
            dec.append(time.perf_counter() - t1)
            enc.append(t1 - t0)
    return median(enc), median(dec)


def serve_layer_metrics(ctx, before, after, waterfall_means, codec,
                        tcp_check):
    """The serving layers' per-layer metrics from child stats deltas and
    the waterfall; also reconciles the waterfall with an independent TCP
    pass (``tcp_check`` seconds per request)."""
    d = {k: after[k] - before[k] for k in (
        "submitted", "rejected", "batches", "batched_requests",
        "wait_seconds", "run_seconds")}
    per = max(d["batched_requests"], 1)
    w = waterfall_means
    parts = {"engine": w["engine"], "server": w["server"] - w["engine"],
             "net": w["tcp"] - w["server"]}
    residual = (sum(parts.values()) - tcp_check) / tcp_check
    ctx.report.note("serve_waterfall_ms", {
        **{k: 1e3 * v for k, v in parts.items()},
        "sum": 1e3 * sum(parts.values()), "tcp_independent": 1e3 * tcp_check,
        "residual_frac": residual, "tolerance_frac": WATERFALL_TOLERANCE,
        "reconciles": abs(residual) <= WATERFALL_TOLERANCE})
    return {
        "serve.net.rtt_overhead_ms": (1e3 * parts["net"], "ms"),
        "serve.protocol.encode_us": (1e6 * codec[0], "us"),
        "serve.protocol.decode_us": (1e6 * codec[1], "us"),
        "serve.server.overhead_ms": (1e3 * parts["server"], "ms"),
        "serve.server.queue_wait_ms": (1e3 * d["wait_seconds"] / per, "ms"),
        "serve.server.run_ms": (1e3 * d["run_seconds"] / per, "ms"),
        "serve.server.batch_size_mean": (
            d["batched_requests"] / max(d["batches"], 1), "count"),
        "serve.server.refused_frac": (
            d["rejected"] / max(d["submitted"], 1), "1"),
    }


async def probe(ctx, tracer):
    """Spawn a server child, warm it, run the closed-loop burst, the
    waterfall and the codec timings; check the ledger on close.  Returns
    the serving layers' per-layer metrics."""
    traffic = Traffic(ctx, np.random.default_rng(ctx.seed + 1))
    child = ServerChild(ctx)
    clients = await connect(child.port, ctx.nproc)
    try:
        await warm(child, clients, traffic)
        before = child.stats()
        await closed_loop(ctx, child, clients, traffic,
                          0.5 if ctx.tiny else BURST_SECONDS, tracer)
        after = child.stats()
        light = [r for pool in traffic.pools[:LIGHT_CLASSES] for r in pool]
        means = await waterfall(ctx, child, clients[0], light, tracer)
        t0 = time.perf_counter()
        for req in light:
            child.sent += 1
            out = await clients[0].submit(req.a, op=req.op, b=req.b)
            ctx.report.record(within_contract(out, req.floor, req.op))
        tcp_check = (time.perf_counter() - t0) / len(light)
        codec = codec_times(light)
    finally:
        for client in clients:
            await client.aclose()
    ctx.report.record(ledger_ok(ctx, child.close(), child.sent))
    return serve_layer_metrics(ctx, before, after, means, codec, tcp_check)
