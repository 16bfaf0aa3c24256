"""``gram_dense`` and ``gram_parallel``: closed loops with one caller.

Each cell is one (operation, shape, dtype).  Every engine call is
followed by the numpy floor on the same operands (``a.T @ a`` /
``a.T @ b``), so both see the same host state and the floor ratios
cancel drift.  Only whole cycles are measured: each cycle makes every
cell's calls once, so each run holds the same mix.
"""

import contextlib
import time

import numpy as np

import repro
from repro.engine import ExecutionEngine, default_engine

import layers
from common import (ErrorTally, Reference, Tracer, best_of,
                    engine_peak_rss_mb, floor_ratios, input_record,
                    latency_summary, median, useful_flops, within_contract)

#: (m, n, dtype, ata calls per cycle, atb calls per cycle).  48x48 float64
#: (18 KiB) sits below the 32 KiB threshold where the modeled heuristic
#: leaves the single syrk leaf for the recursion; the rest are above it.
DENSE = [(48, 48, "float64", 3, 1), (96, 96, "float64", 3, 1),
         (256, 256, "float64", 3, 1), (1024, 256, "float64", 3, 1),
         (2048, 256, "float64", 3, 1), (512, 512, "float32", 3, 1)]
#: large operands, square and tall.  At the default base case (4096
#: elements) a 2048^2 plan takes ~37 s to compile and ~11 s per DAG call
#: on a 2-core Xeon, beyond one run; the workload runs at the base case
#: of the library's shared-memory DAG experiment
#: (``repro.bench.engine_bench.engine_dag_parallel``), where the same plan
#: compiles in about a second, and says so in its environment record.
PARALLEL = [(2048, 2048, "float64", 1, 2), (4096, 2048, "float64", 1, 0)]
PARALLEL_BASE_CASE = 65536
TINY = [(48, 48, "float64", 1, 1), (96, 64, "float32", 1, 1)]


class Cell:
    def __init__(self, op, m, n, dtype, rng, reference=True):
        self.op, self.m, self.n = op, m, n
        self.k = max(16, n // 8) if op == "atb" else 0
        self.a = rng.standard_normal((m, n)).astype(dtype)
        self.b = (rng.standard_normal((m, self.k)).astype(dtype)
                  if op == "atb" else None)
        self.name = f"{op}:{m}x{n}" + (f"x{self.k}" if self.k else "") + \
            f":{np.dtype(dtype).name}"
        self.flops = useful_flops(op, m, n, self.k)
        self.ref = Reference(op, self.a, self.b, rng) if reference else None

    def floor(self):
        return self.a.T @ (self.a if self.op == "ata" else self.b)


def make_cells(ctx, rng, reference=True):
    spec = TINY if ctx.tiny else (PARALLEL if ctx.workload == "gram_parallel"
                                  else DENSE)
    cells, cycle = [], []
    for m, n, dtype, n_ata, n_atb in spec:
        for op, count in (("ata", n_ata), ("atb", n_atb)):
            if count:
                cell = Cell(op, m, n, dtype, rng, reference)
                if not reference:
                    return [cell], [cell]
                cells.append(cell)
                cycle += [cell] * count
    return cells, cycle


def make_engine(ctx):
    if ctx.workload == "gram_parallel":
        return ExecutionEngine(workers=ctx.nproc)
    return default_engine()


def caller(ctx, engine):
    """The call a user makes: the module-level functions on the default
    engine for gram_dense, the parallel engine's methods otherwise."""
    if ctx.workload == "gram_parallel":
        return lambda cell: (engine.matmul_ata(cell.a) if cell.op == "ata"
                             else engine.matmul_atb(cell.a, cell.b))
    return lambda cell: (repro.matmul_ata(cell.a) if cell.op == "ata"
                         else repro.matmul_atb(cell.a, cell.b))


def measure(ctx, call, cycle, seconds, tracer):
    """Closed loop over whole cycles for ``seconds``; every call checked."""
    eng = {c.name: [] for c in cycle}
    flo = {c.name: [] for c in cycle}
    flops, errs, calls = 0, ErrorTally(), {c.name: 0 for c in cycle}
    deadline = time.perf_counter() + seconds
    rid = 0
    while True:
        with tracer.span("cycle"):
            for cell in cycle:
                rid += 1
                ok = False
                try:
                    with tracer.span("engine", rid=rid):
                        t0 = time.perf_counter()
                        out = call(cell)
                        t1 = time.perf_counter()
                    with tracer.span("floor", rid=rid):
                        want, floor = best_of(cell.floor)
                    with tracer.span("check", rid=rid):
                        ok = within_contract(out, want, cell.op)
                        errs.add(cell.name, cell.ref, out)
                    eng[cell.name].append(t1 - t0)
                    flo[cell.name].append(floor)
                    flops += cell.flops
                    calls[cell.name] += 1
                except Exception as exc:  # a failing call is counted, not fatal
                    ctx.report.note("call_failed", f"{cell.name}: {exc!r}")
                ctx.report.record(ok)
        if time.perf_counter() >= deadline:
            break
    busy = sum(sum(v) for v in eng.values())
    return {"eng": eng, "floor": flo, "gflops": flops / busy / 1e9,
            "rel_err_max": errs.max(), "calls": calls}


def warm(cells, call, engine):
    """Per cell: first (compiling) and second (warm) call seconds, and the
    backend the second call ran on (from ``stats().backend_runs``)."""
    first, backends = {}, {}
    for cell in cells:
        t0 = time.perf_counter()
        call(cell)
        t1 = time.perf_counter()
        before = engine.stats().backend_runs
        call(cell)
        first[cell.name] = (t1 - t0, time.perf_counter() - t1)
        after = engine.stats().backend_runs
        backends[cell.name] = next(
            (k for k in after if after[k] != before.get(k, 0)), None)
    return first, backends


def _run(ctx):
    rng = np.random.default_rng(ctx.seed)
    cells, cycle = make_cells(ctx, rng)
    for cell in cells:
        ctx.inputs.append(input_record(cell.name + ":A", cell.a))
        if cell.b is not None:
            ctx.inputs.append(input_record(cell.name + ":B", cell.b))
    engine = make_engine(ctx)
    call = caller(ctx, engine)
    report = ctx.report
    if not ctx.trace:
        setup, walls = ctx.measure_setup()
        report.note("setup_walls_s", walls)
    first, backends = warm(cells, call, engine)

    if not ctx.trace:
        res = measure(ctx, call, cycle, ctx.seconds, Tracer(False))
        rss = engine_peak_rss_mb(report, [(lambda c=c: call(c), c.ref)
                                          for c in cells])
        report.end_to_end(setup, res["gflops"],
                          floor_ratios(res["eng"], res["floor"]),
                          latency_summary(res["eng"]), rss,
                          res["rel_err_max"])
        report.note("cells", {c.name: {
            "backend": backends[c.name],
            "engine_ms": 1e3 * median(res["eng"][c.name]),
            "floor_ms": 1e3 * median(res["floor"][c.name]),
            "calls": res["calls"][c.name]} for c in cells})
    else:
        layers.traced_engine_run(ctx, engine, cells, cycle, call, first,
                                 backends, measure)
    report.note("env", ctx.env())


def configuration(ctx):
    """The library configuration the workload runs under."""
    if ctx.workload == "gram_parallel":
        ctx.env_extra["base_case_elements"] = PARALLEL_BASE_CASE
        return repro.configured(base_case_elements=PARALLEL_BASE_CASE)
    return contextlib.nullcontext()


def run(ctx):
    with configuration(ctx):
        _run(ctx)


def first_result(ctx):
    """Set-up probe: imports done, make the first cell's call, check it."""
    with configuration(ctx):
        rng = np.random.default_rng(ctx.seed)
        cells, _ = make_cells(ctx, rng, reference=False)
        cell = cells[0]
        out = caller(ctx, make_engine(ctx))(cell)
        return within_contract(out, cell.floor(), cell.op)
