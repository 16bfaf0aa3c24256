"""Per-layer metrics of the traced run (``--trace 1``).

Every traced run prints every metric in :data:`PER_LAYER`.  Layers the
workload drives itself are read from its own timed phase; the others
come from short probes (``serving.probe``, ``ooc.probe``), so a number
always says which layer it measured.  The metrics come from timing calls
into each layer's public functions and from its public counters:
``ExecutionEngine.stats()``, ``Server.stats()`` (through the server
child), ``OocRunStats``/``FarmRunStats`` and plans compiled here with
``compile_plan``.  Spans are recorded around those calls only, kept in
memory and written at exit as Chrome trace-event JSON.

The run's time is split in two halves over the same loop: untraced, then
traced; the ratio of their medians is the tracing overhead.
"""

import asyncio
import json
import os
import time

import numpy as np

import repro
from repro.cache.model import default_cache_model
from repro.engine import PLAN_KINDS, ExecutionEngine, compile_plan, default_engine

from common import Tracer, geomean, median, self_times, useful_flops

BACKENDS = ("syrk", "ata", "tiled", "strassen", "recursive_gemm",
            "blas_direct")
KERNELS = ("syrk", "gemm", "axpy")

#: every per-layer metric, with its unit, in the order BENCHMARK.json
#: lists them
PER_LAYER = [
    ("serve.net.rtt_overhead_ms", "ms"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.server.overhead_ms", "ms"),
    ("serve.server.queue_wait_ms", "ms"),
    ("serve.server.run_ms", "ms"),
    ("serve.server.batch_size_mean", "count"),
    ("serve.server.refused_frac", "1"),
    ("engine.dispatch.call_overhead_us", "us"),
    *[(f"engine.dispatch.backend_share.{b}", "1") for b in BACKENDS],
    ("engine.plan.hit_rate", "1"),
    ("engine.plan.compile_ms", "ms"),
    ("engine.plan.steps", "count"),
    ("engine.pool.reuse_rate", "1"),
    ("engine.pool.bytes_high", "bytes"),
    *[(f"kernels.{k}.{field}", unit) for k in KERNELS
      for field, unit in (("calls", "count"), ("gflop", "GFLOP"),
                          ("mbytes_computed", "MB"))],
    ("kernels.peak_frac", "1"),
    ("engine.dag.speedup", "x"),
    ("engine.dag.critical_path", "count"),
    ("engine.dag.max_width", "count"),
    ("engine.dag.run_share", "1"),
    ("engine.ooc.stage_mbps", "MB/s"),
    ("engine.ooc.compute_share", "1"),
    ("engine.ooc.panels", "count"),
    ("engine.ooc.resident_mb_high", "MB"),
    ("engine.ooc.prefetched", "1"),
    ("engine.farm.scaling_eff", "1"),
    ("engine.farm.respawns", "count"),
    ("engine.farm.retried_panels", "count"),
    ("engine.farm.degraded_panels", "count"),
    ("engine.farm.resident_mb_high", "MB"),
    ("trace.overhead_pct", "%"),
]

STAT_KEYS = ("plan_hits", "plan_misses", "pool_allocations", "pool_reuses",
             "dag_runs", "sequential_runs")


# ---------------------------------------------------------------------------
# engine counters and plans
# ---------------------------------------------------------------------------

def stats_dict(stats):
    """An ``EngineStats`` as a plain dict."""
    out = {k: getattr(stats, k) for k in STAT_KEYS}
    out["backend_runs"] = dict(stats.backend_runs)
    out["pool_bytes_high"] = stats.pool_bytes_high
    return out


def stats_delta(before, after):
    d = {k: after[k] - before[k] for k in STAT_KEYS}
    d["backend_runs"] = {k: v - before["backend_runs"].get(k, 0)
                         for k, v in after["backend_runs"].items()}
    d["pool_bytes_high"] = after["pool_bytes_high"]
    return d


def plan_shape(op, a, b):
    return a.shape if op == "ata" else (*a.shape, b.shape[1])


def compile_for(backend, shape, dtype, lanes=1, build_dag=False):
    """The plan ``backend`` runs for ``shape`` under the active
    configuration, compiled here; ``None`` for a non-plan backend."""
    if backend not in PLAN_KINDS:
        return None
    return compile_plan(backend, tuple(shape), np.dtype(dtype),
                        default_cache_model(dtype), lanes=lanes,
                        build_dag=build_dag,
                        fuse=repro.get_config().fuse != "off")


def first_and_backend(op, a, b):
    """On a fresh default engine: the compile share of the first call
    (first minus warm, seconds) and the backend the call resolves to."""
    engine = ExecutionEngine()
    run = (lambda: engine.matmul_ata(a)) if op == "ata" else \
        (lambda: engine.matmul_atb(a, b))
    t0 = time.perf_counter()
    run()
    t1 = time.perf_counter()
    run()
    t2 = time.perf_counter()
    backend = next(iter(engine.stats().backend_runs))
    return max(0.0, (t1 - t0) - (t2 - t1)), backend


def kernel_metrics(usage):
    """Exact kernel counts from compiled plans: ``usage`` lists
    ``(cell, backend, op, shape, dtype, calls)``.  A non-plan backend is
    one vendor call (syrk for AtA, gemm for AtB).  Bytes are computed
    from operand sizes, not measured.  Also returns each cell's plan
    step count."""
    totals = {k: [0, 0, 0] for k in KERNELS}
    steps = {}
    for cell, backend, op, shape, dtype, calls in usage:
        itemsize = np.dtype(dtype).itemsize
        plan = compile_for(backend, shape, dtype)
        if plan is None:
            m, n = shape[0], shape[1]
            k = shape[2] if op == "atb" else n
            counters = [("syrk" if op == "ata" else "gemm", 1,
                         useful_flops(op, m, n, k), m * n + m * k + n * k)]
            steps[cell] = 0
        else:
            counters = plan.kernel_counters
            steps[cell] = plan.n_steps
        for cat, n_calls, flops, byte_elements in counters:
            t = totals.setdefault(cat, [0, 0, 0])
            t[0] += n_calls * calls
            t[1] += flops * calls
            t[2] += byte_elements * itemsize * calls
    out = {}
    for k in KERNELS:
        out[f"kernels.{k}.calls"] = (totals[k][0], "count")
        out[f"kernels.{k}.gflop"] = (totals[k][1] / 1e9, "GFLOP")
        out[f"kernels.{k}.mbytes_computed"] = (totals[k][2] / 1e6, "MB")
    return out, steps


def gemm_peak_gflops(tiny):
    """Best-of-three float64 GEMM rate at this process's BLAS threads."""
    n = 256 if tiny else 1024
    a = np.random.default_rng(0).standard_normal((n, n))
    best = min(_timed(lambda: a @ a) for _ in range(3))
    return 2 * n ** 3 / best / 1e9


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def call_overhead_us(engine, reps=200):
    """Warm ``matmul_ata`` on an 8x8 operand minus ``a.T @ a`` (medians,
    interleaved)."""
    a = np.random.default_rng(0).standard_normal((8, 8))
    engine.matmul_ata(a)
    eng, flo = [], []
    for _ in range(reps):
        eng.append(_timed(lambda: engine.matmul_ata(a)))
        flo.append(_timed(lambda: a.T @ a))
    return 1e6 * (median(eng) - median(flo))


def dag_speedup(engine, op, a, b, reps=2):
    """Per-call ``parallel="off"`` over the engine's default scheduling
    (medians, interleaved, after one warm call of each: the two modes may
    compile different plans)."""
    def call(parallel):
        if op == "ata":
            return _timed(lambda: engine.matmul_ata(a, parallel=parallel))
        return _timed(lambda: engine.matmul_atb(a, b, parallel=parallel))
    call("off")
    call(None)
    off, default = [], []
    for _ in range(reps):
        off.append(call("off"))
        default.append(call(None))
    return median(off) / median(default)


def engine_metrics(ctx, engine, d, usage, compile_s, achieved, big):
    """Dispatch, plan, pool, kernel and DAG metrics.  ``usage`` is as for
    :func:`kernel_metrics`, ``compile_s`` maps each cell to its compile
    seconds, and ``big`` is the ``(backend, op, a, b)`` cell the DAG
    metrics are read on."""
    m = {"engine.dispatch.call_overhead_us": (call_overhead_us(engine), "us")}
    runs = sum(d["backend_runs"].values())
    for b in BACKENDS:
        m[f"engine.dispatch.backend_share.{b}"] = (
            d["backend_runs"].get(b, 0) / runs if runs else 0.0, "1")
    lookups = d["plan_hits"] + d["plan_misses"]
    m["engine.plan.hit_rate"] = (d["plan_hits"] / lookups if lookups else 0.0,
                                 "1")
    m["engine.plan.compile_ms"] = (1e3 * sum(compile_s.values()), "ms")
    kern, steps = kernel_metrics(usage)
    m["engine.plan.steps"] = (sum(steps.values()), "count")
    ctx.report.note("plans", {row[0]: {
        "backend": row[1], "steps": steps[row[0]], "calls": row[5],
        "compile_ms": 1e3 * compile_s[row[0]]} for row in usage})
    acquired = d["pool_allocations"] + d["pool_reuses"]
    m["engine.pool.reuse_rate"] = (
        d["pool_reuses"] / acquired if acquired else 0.0, "1")
    m["engine.pool.bytes_high"] = (d["pool_bytes_high"], "bytes")
    m.update(kern)
    m["kernels.peak_frac"] = (achieved / gemm_peak_gflops(ctx.tiny), "1")
    backend, op, a, b = big
    m["engine.dag.speedup"] = (dag_speedup(engine, op, a, b), "x")
    lanes = min(engine.workers, 4) if engine.workers > 1 else 1
    plan = compile_for(backend, plan_shape(op, a, b), a.dtype, lanes=lanes,
                       build_dag=True)
    dag = plan.dag if plan is not None else None
    m["engine.dag.critical_path"] = (dag.critical_path if dag else 1, "count")
    m["engine.dag.max_width"] = (dag.max_width if dag else 1, "count")
    m["engine.dag.run_share"] = (
        d["dag_runs"] / max(d["dag_runs"] + d["sequential_runs"], 1), "1")
    return m


# ---------------------------------------------------------------------------
# finishing a traced run
# ---------------------------------------------------------------------------

def finish(ctx, metrics, untraced, traced):
    """Add the tracing overhead, print self times, write the trace, and
    put every per-layer metric in the report."""
    ratio = geomean(median(traced[k]) / median(untraced[k])
                    for k in untraced if untraced[k] and traced.get(k))
    metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    for name, unit in PER_LAYER:
        ctx.report.metric(name, metrics[name][0], unit)
    ctx.report.note("self_ms", {k: 1e3 * v for k, v in
                                sorted(self_times(ctx.tracer.spans).items())})
    path = os.path.join(os.path.dirname(ctx.workdir),
                        f"trace-{ctx.workload}-seed{ctx.seed}.json")
    with open(path, "w") as fh:
        json.dump(ctx.tracer.chrome(), fh)
    ctx.report.note("trace_file", os.path.relpath(path))


def probes(ctx, metrics, ooc=True):
    """Fill in the layers the workload does not drive itself."""
    import ooc as ooc_mod
    import serving
    with ctx.tracer.span("serve.probe"):
        metrics.update(asyncio.run(serving.probe(ctx, ctx.tracer)))
    if ooc:
        metrics.update(ooc_mod.probe(ctx, ctx.tracer))


# ---------------------------------------------------------------------------
# the traced runs of each workload
# ---------------------------------------------------------------------------

def traced_engine_run(ctx, engine, cells, cycle, call, first, backends,
                      measure):
    half = ctx.seconds / 2
    untraced = measure(ctx, call, cycle, half, Tracer(False))
    ctx.tracer = Tracer(True)
    before = stats_dict(engine.stats())
    traced = measure(ctx, call, cycle, half, ctx.tracer)
    d = stats_delta(before, stats_dict(engine.stats()))
    usage = [(c.name, backends[c.name], c.op, plan_shape(c.op, c.a, c.b),
              c.a.dtype, traced["calls"][c.name]) for c in cells]
    compile_s = {name: max(0.0, f - w) for name, (f, w) in first.items()}
    # the DAG metrics read the largest cell whose warm call stays short
    quick = [c for c in cells if first[c.name][1] < 1.0] or cells[:1]
    big = max(quick, key=lambda c: c.flops)
    metrics = engine_metrics(ctx, engine, d, usage, compile_s,
                             traced["gflops"],
                             (backends[big.name], big.op, big.a, big.b))
    probes(ctx, metrics)
    ctx.report.note("traced_gflops", traced["gflops"])
    finish(ctx, metrics, untraced["eng"], traced["eng"])


def traced_ooc_run(ctx, stream, measure):
    import ooc as ooc_mod
    half = ctx.seconds / 2
    untraced = measure(ctx, stream, half, Tracer(False))
    ctx.tracer = Tracer(True)
    engine = default_engine()
    before = stats_dict(engine.stats())
    traced = measure(ctx, stream, half, ctx.tracer,
                     first_pass=untraced["next"])
    d = stats_delta(before, stats_dict(engine.stats()))
    panel = np.array(stream.window(0)[:stream.panel_rows])
    seconds, backend = first_and_backend("ata", panel, None)
    panels = sum(s.panels for sts in traced["stats"].values() for s in sts)
    metrics = engine_metrics(
        ctx, engine, d,
        [("panel", backend, "ata", panel.shape, panel.dtype, panels)],
        {"panel": seconds}, traced["gflops"], (backend, "ata", panel, None))
    metrics.update(ooc_mod.ooc_layer_metrics(ctx, stream, traced))
    probes(ctx, metrics, ooc=False)
    finish(ctx, metrics, untraced["eng"], traced["eng"])
