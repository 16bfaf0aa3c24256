"""``ooc_stream``: a seeded tall-skinny float64 memmap streamed through
``repro.run_ooc``.

The file holds at least 4x the last-level cache.  Each pass streams one
window of it (``PANELS`` panels of ``PANEL_ROWS`` rows, under the budget
:meth:`Stream.budget` sizes for exactly that panel height) and passes
step through the windows in turn, so every pass reads data the previous
passes have evicted from the LLC.
Passes alternate ``procs=0`` (in-process, prefetching) and
``procs=nproc`` (the shared-memory panel farm).  After each pass numpy
computes the floor ``W.T @ W`` on the same window.
"""

import math
import os
import time

import numpy as np

import repro

import layers
from common import (ErrorTally, Reference, Tracer, best_of,
                    engine_peak_rss_mb, floor_ratios, input_record,
                    latency_summary, llc_bytes, median, useful_flops,
                    within_contract)

COLS = 128
PANELS = 16
PANEL_ROWS = 1024
#: references are long-double products; four sampled columns of a
#: 16 MiB window take a tenth of a second
REF_COLUMNS = 4
FALLBACK_LLC = 32 << 20


class Stream:
    """The memmap file and its windows."""

    def __init__(self, ctx, panel_rows=PANEL_ROWS, min_bytes=None):
        self.panel_rows = 64 if ctx.tiny else panel_rows
        self.window_rows = PANELS * self.panel_rows
        window_bytes = self.window_rows * COLS * 8
        if min_bytes is None:
            min_bytes = 0 if ctx.tiny else 4 * (llc_bytes() or FALLBACK_LLC)
        self.windows = max(2, math.ceil(min_bytes / window_bytes))
        self.rows = self.windows * self.window_rows
        self.path = os.path.join(ctx.workdir, f"a-{self.panel_rows}.f64")
        self.panel_bytes = self.panel_rows * COLS * 8
        self.refs = {}

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        with open(self.path, "wb") as fh:
            for _ in range(self.windows):
                fh.write(rng.standard_normal((self.window_rows, COLS)).tobytes())
            # write back now, not under the timed passes
            fh.flush()
            os.fsync(fh.fileno())

    def window(self, w):
        return np.memmap(self.path, dtype=np.float64, mode="r",
                         offset=w * self.window_rows * COLS * 8,
                         shape=(self.window_rows, COLS))

    def reference(self, w):
        if w not in self.refs:
            self.refs[w] = Reference("ata", self.window(w), None,
                                     np.random.default_rng(w),
                                     columns=REF_COLUMNS)
        return self.refs[w]

    def budget(self, procs):
        """``C`` plus two panels in process (the prefetch double buffer);
        with a farm, ``C`` plus one output and one input arena per
        worker."""
        c_bytes = COLS * COLS * 8
        if procs == 0:
            return c_bytes + 2 * self.panel_bytes
        return (1 + procs) * c_bytes + procs * self.panel_bytes

    def run(self, w, procs):
        mm = self.window(w)
        t0 = time.perf_counter()
        c, stats = repro.run_ooc(mm, budget=self.budget(procs),
                                 panel_rows=self.panel_rows, procs=procs)
        return mm, c, stats, time.perf_counter() - t0


def measure(ctx, stream, seconds, tracer, first_pass=0):
    cells = {"procs0": [], f"procs{ctx.nproc}": []}
    floors = {k: [] for k in cells}
    flops, errs, stats, i = 0, ErrorTally(), {k: [] for k in cells}, first_pass
    deadline = time.perf_counter() + seconds
    while True:
        w, procs = i % stream.windows, (0 if i % 2 == 0 else ctx.nproc)
        key = f"procs{procs}"
        ok = False
        try:
            with tracer.span("run_ooc", rid=i):
                mm, c, st, wall = stream.run(w, procs)
            with tracer.span("floor", rid=i):
                # three floor calls: a tenth of a pass's time
                want, floor = best_of(lambda: mm.T @ mm, reps=3, budget=1.0)
            with tracer.span("check", rid=i):
                ok = within_contract(c, want, "ata")
                errs.add(key, stream.reference(w), c)
            cells[key].append(wall)
            floors[key].append(floor)
            stats[key].append(st)
            flops += useful_flops("ata", stream.window_rows, COLS)
        except Exception as exc:  # a failing pass is counted, not fatal
            ctx.report.note("pass_failed", f"{key} window {w}: {exc!r}")
        ctx.report.record(ok)
        i += 1
        if i - first_pass >= 2 and time.perf_counter() >= deadline:
            break
    busy = sum(sum(v) for v in cells.values())
    return {"eng": cells, "floor": floors, "gflops": flops / busy / 1e9,
            "rel_err_max": errs.max(), "stats": stats, "passes": i - first_pass,
            "next": i}


def run(ctx):
    stream = Stream(ctx)
    stream.generate(ctx.seed)
    ctx.inputs.append(input_record("memmap", (stream.rows, COLS), "float64",
                                   stream.rows * COLS * 8))
    ctx.env_extra.update({"window_rows": stream.window_rows,
                          "panel_rows": stream.panel_rows,
                          "windows": stream.windows,
                          "budget_bytes": {p: stream.budget(p)
                                           for p in (0, ctx.nproc)}})
    report = ctx.report
    if not ctx.trace:
        setup, walls = ctx.measure_setup()
        report.note("setup_walls_s", walls)
    if ctx.trace:
        layers.traced_ooc_run(ctx, stream, measure)
        report.note("env", ctx.env())
        return
    res = measure(ctx, stream, ctx.seconds, Tracer(False))
    # one pass in each mode; the memmap of a pass is unmapped with it
    rss = engine_peak_rss_mb(report, [
        (lambda w=w, p=p: stream.run(w, p)[1], stream.reference(w))
        for w, p in ((0, 0), (1, ctx.nproc))])
    report.end_to_end(setup, res["gflops"],
                      floor_ratios(res["eng"], res["floor"]),
                      latency_summary(res["eng"]), rss, res["rel_err_max"])
    mb = stream.window_rows * COLS * 8 / 1e6
    report.note("ooc_mbps", mb / median(res["eng"]["procs0"]))
    report.note("farm_mbps", mb / median(res["eng"][f"procs{ctx.nproc}"]))
    report.note("passes", res["passes"])
    report.note("env", ctx.env())


def first_result(ctx):
    """Set-up probe: the first pass (window 0, in-process), checked."""
    stream = Stream(ctx)
    mm, c, _, _ = stream.run(0, 0)
    return within_contract(c, mm.T @ mm, "ata")


# ---------------------------------------------------------------------------
# layer probe (used by every traced run)
# ---------------------------------------------------------------------------

def stage_seconds(stream, w):
    """Copy window ``w``'s panels out of the memmap in schedule order,
    with no compute."""
    mm = stream.window(w)
    t0 = time.perf_counter()
    for lo in range(0, stream.window_rows, stream.panel_rows):
        np.array(mm[lo:lo + stream.panel_rows])
    return time.perf_counter() - t0


def compute_seconds(stream, w):
    """In-memory ``matmul_ata`` over window ``w``'s panels."""
    mm = stream.window(w)
    panels = [np.array(mm[lo:lo + stream.panel_rows])
              for lo in range(0, stream.window_rows, stream.panel_rows)]
    t0 = time.perf_counter()
    for panel in panels:
        repro.matmul_ata(panel)
    return time.perf_counter() - t0


def ooc_layer_metrics(ctx, stream, res, w=0):
    key = f"procs{ctx.nproc}"
    ooc_wall = median(res["eng"]["procs0"])
    farm_wall = median(res["eng"][key])
    ooc = res["stats"]["procs0"][-1]
    farm = res["stats"][key]
    mb = stream.window_rows * COLS * 8 / 1e6
    return {
        "engine.ooc.stage_mbps": (mb / stage_seconds(stream, w), "MB/s"),
        "engine.ooc.compute_share": (compute_seconds(stream, w) / ooc_wall,
                                     "1"),
        "engine.ooc.panels": (ooc.panels, "count"),
        "engine.ooc.resident_mb_high": (ooc.bytes_resident_high / 1e6, "MB"),
        "engine.ooc.prefetched": (float(ooc.prefetched), "1"),
        "engine.farm.scaling_eff": (ooc_wall / (ctx.nproc * farm_wall), "1"),
        "engine.farm.respawns": (sum(s.respawns for s in farm), "count"),
        "engine.farm.retried_panels": (sum(s.retried_panels for s in farm),
                                       "count"),
        "engine.farm.degraded_panels": (sum(s.degraded_panels for s in farm),
                                        "count"),
        "engine.farm.resident_mb_high": (
            max(s.bytes_resident_high for s in farm) / 1e6, "MB"),
    }


def probe(ctx, tracer):
    """Out-of-core and farm probe for workloads without a stream: a small
    file, one pass in each mode."""
    stream = Stream(ctx, panel_rows=256, min_bytes=1)
    stream.generate(ctx.seed + 2)
    with tracer.span("ooc.probe"):
        res = measure(ctx, stream, 0.0, tracer)
    return ooc_layer_metrics(ctx, stream, res)
