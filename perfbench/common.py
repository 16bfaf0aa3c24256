"""Shared pieces of the benchmark: statistics, output checks, the span
recorder, the environment record and the result line.

Nothing here imports numpy at module level: ``run.py`` must pin the BLAS
thread count in the environment before numpy is first imported.
"""

import contextlib
import json
import math
import os
import platform
import statistics
import sys
import time

#: normwise relative tolerance of the library's accuracy contract, by
#: output dtype
RTOL = {"float64": 1e-10, "float32": 1e-4}

#: columns sampled for the extended-precision reference of large outputs
#: (a full long-double product of a 2048-column operand takes minutes)
SAMPLED_COLUMNS = 16
#: operand rows widened at a time while a reference is built
REFERENCE_BLOCK_ROWS = 256


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs)


def geomean(xs):
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail(xs):
    """``(value, percentile, beyond)``: the highest percentile with at
    least ten samples above it (nearest rank), but never below the
    median: under 21 samples that percentile would sit under the median,
    so the median is returned with the samples above it."""
    s = sorted(xs)
    n = len(s)
    i = max(n - 11, (n - 1) // 2)
    return s[i], 100.0 * (i + 1) / n, n - i - 1


#: at most this many consecutive windows for the latency tail, each of at
#: least WINDOW_SAMPLES samples
TAIL_WINDOWS = 4
WINDOW_SAMPLES = 100


def latency_summary(cells):
    """Latency over a workload's cells (``{cell: [seconds, ...]}``, each
    list in time order).

    ``p50`` is the geometric mean of the per-cell medians.  For the tail,
    every sample is divided by its cell's median and the run is cut into
    consecutive windows (up to :data:`TAIL_WINDOWS`, of at least
    :data:`WINDOW_SAMPLES` samples each); :func:`tail` of each window's
    pooled samples, scaled back by ``p50``, gives one tail per window,
    and the median of those is reported, so one host stall moves one
    window rather than the figure.  With a single cell ``p50`` is the
    plain median.
    """
    meds = {k: median(v) for k, v in cells.items() if v}
    total = sum(len(v) for v in cells.values())
    windows = max(1, min(TAIL_WINDOWS, total // WINDOW_SAMPLES))
    p50 = geomean(meds.values())
    tails = []
    for w in range(windows):
        pooled = [x / meds[k] for k, v in cells.items() if v
                  for x in v[w * len(v) // windows:(w + 1) * len(v) // windows]]
        if pooled:
            tails.append(tail(pooled))
    return {"p50_ms": 1e3 * p50,
            "tail_ms": 1e3 * p50 * median(t[0] for t in tails),
            "tail_pct": tails[0][1], "tail_beyond": tails[0][2],
            "samples": total, "windows": len(tails)}


def tail_note(lat):
    return (f"median over {lat['windows']} windows of p{lat['tail_pct']:.1f}"
            f" with {lat['tail_beyond']} samples beyond; {lat['samples']} "
            "samples")


def best_of(fn, reps=5, budget=0.1):
    """``(result of the first call, least wall time)`` over up to ``reps``
    calls, stopping once ``budget`` seconds are spent: the floor is read
    as its best time so a preempted call does not move the ratio."""
    t0 = time.perf_counter()
    out = fn()
    best = spent = time.perf_counter() - t0
    for _ in range(reps - 1):
        if spent >= budget:
            break
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best, spent = min(best, dt), spent + dt
    return out, best


def floor_ratios(engine_cells, floor_cells):
    """Per cell, the median over calls of the engine time over the time of
    the floor call made right after it; pairing the two cancels host
    drift slower than one pair."""
    return {k: median([e / f for e, f in zip(eng, floor_cells[k])])
            for k, eng in engine_cells.items() if eng}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def useful_flops(op, m, n, k=0):
    """Useful flops: ``m*n*(n+1)`` per AtA (the lower triangle), ``2mnk``
    per AtB."""
    return m * n * (n + 1) if op == "ata" else 2 * m * n * k


def lower(c, op):
    import numpy as np
    return np.tril(c) if op == "ata" else c


def within_contract(c, floor, op):
    """Normwise check of an output against the numpy floor's result in
    the same dtype: ``||C - F|| <= rtol * ||F||`` on the defined part
    (the lower triangle for AtA)."""
    import numpy as np
    got, want = lower(c, op), lower(floor, op)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if not np.all(np.isfinite(got)):
        return False
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) <= RTOL[str(c.dtype)] * max(scale, 1e-300)


class Reference:
    """Extended-precision reference for some columns of one product.

    float64 operands are referenced in ``np.longdouble``, float32 ones in
    float64.  Outputs wider than :data:`SAMPLED_COLUMNS` are referenced
    on a seeded sample of columns; for AtA only the lower triangle of
    each sampled column counts.  The product is accumulated over row
    blocks of the operands, so no widened copy of a whole operand is
    made.
    """

    def __init__(self, op, a, b, rng, columns=SAMPLED_COLUMNS):
        import numpy as np
        n = a.shape[1]
        width = n if op == "ata" else b.shape[1]
        if width <= columns:
            self.cols = np.arange(width)
        else:
            self.cols = np.sort(rng.choice(width, columns, replace=False))
        hp = np.longdouble if a.dtype == np.float64 else np.float64
        self.ref = np.zeros((n, len(self.cols)), dtype=hp)
        for lo in range(0, a.shape[0], REFERENCE_BLOCK_ROWS):
            block = np.asarray(a[lo:lo + REFERENCE_BLOCK_ROWS]).astype(hp)
            right = (block[:, self.cols] if op == "ata" else
                     np.asarray(b[lo:lo + REFERENCE_BLOCK_ROWS,
                                  self.cols]).astype(hp))
            self.ref += block.T @ right
        if op == "ata":
            self.ref *= np.arange(n)[:, None] >= self.cols[None, :]
        self.hp = hp
        self.op = op
        self.shape, self.dtype = (n, width), a.dtype
        self.rtol = RTOL[str(a.dtype)]
        self.norm = float(np.linalg.norm(self.ref)) or 1.0

    def sq_error(self, c):
        """``(||C - ref||^2, ||ref||^2)`` on the referenced columns."""
        import numpy as np
        got = c[:, self.cols].astype(self.hp)
        if self.op == "ata":
            got *= np.arange(c.shape[0])[:, None] >= self.cols[None, :]
        return float(np.linalg.norm(got - self.ref)) ** 2, self.norm ** 2

    def within_contract(self, c):
        """The accuracy contract checked on the referenced columns only:
        the check's temporaries are a few columns wide."""
        import numpy as np
        if c.shape != self.shape or c.dtype != self.dtype:
            return False
        if not np.all(np.isfinite(c[:, self.cols])):
            return False
        diff, norm = self.sq_error(c)
        return math.sqrt(diff / norm) <= self.rtol


class ErrorTally:
    """Normwise forward error per cell, pooled over the cell's checked
    outputs; :meth:`max` is the worst cell.  Pooling keeps the figure
    steady where the maximum of single outputs would jump with the
    seed."""

    def __init__(self):
        self.cells = {}

    def add(self, cell, ref, c):
        diff, norm = ref.sq_error(c)
        acc = self.cells.setdefault(cell, [0.0, 0.0])
        acc[0] += diff
        acc[1] += norm

    def max(self):
        return max((math.sqrt(d / r) for d, r in self.cells.values() if r),
                   default=0.0)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, request id]``.

    ``span()`` nests through a stack (synchronous code); ``begin``/
    ``end`` take an explicit parent (concurrent asyncio requests).  A
    disabled tracer records nothing.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def begin(self, name, parent=None, rid=None):
        if not self.enabled:
            return None
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, time.perf_counter(), None, parent, rid])
        return len(self.spans) - 1

    def end(self, idx):
        if idx is not None:
            self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, rid=None):
        idx = self.begin(name, rid=rid)
        if idx is not None:
            self._stack.append(idx)
        try:
            yield idx
        finally:
            if idx is not None:
                self._stack.pop()
                self.end(idx)

    def chrome(self):
        """The spans as Chrome trace-event JSON (Perfetto opens it)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = []
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            events.append({"name": name, "ph": "X", "pid": os.getpid(),
                           "tid": 0 if rid is None else 1,
                           "ts": 1e6 * (start - t0),
                           "dur": 1e6 * ((end or start) - start),
                           "args": {"span": i, "parent": parent,
                                    "request": rid}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans):
    """``{name: seconds}``: each span's duration minus the part of its
    interval covered by its children (overlapping children counted
    once), summed per name."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    out = {}
    for i, (name, start, end, _parent, _rid) in enumerate(spans):
        end = start if end is None else end
        covered, cursor = 0.0, start
        for lo, hi in sorted((max(spans[j][1], start),
                              min(spans[j][2] if spans[j][2] is not None
                                  else spans[j][1], end))
                             for j in children.get(i, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# environment and resources
# ---------------------------------------------------------------------------

def llc_bytes():
    """Largest cache size the kernel reports for cpu0 (bytes; 0 if
    unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best, int(digits) * mult)
    return best


def nproc():
    return len(os.sched_getaffinity(0))


def reset_peak_rss():
    """Reset this process's resident-set high-water mark (``VmHWM``) to
    its current resident set (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb():
    """This process's ``VmHWM`` in MB (2^20 bytes)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def engine_peak_rss_mb(report, jobs):
    """Peak resident set while only the engine works.

    The inputs and everything the run has kept are resident when the
    high-water mark is reset; then each ``(call, reference)`` job runs in
    turn, its output is checked against the reference (counted in the
    report) and dropped before the next call.  Neither the numpy floor
    nor a full-size check runs in this phase, so the peak above the
    resident set is the engine's own.
    """
    import gc
    gc.collect()
    reset_peak_rss()
    for call, ref in jobs:
        ok, out = False, None
        try:
            out = call()
            ok = ref.within_contract(out)
        except Exception as exc:  # a failing call is counted, not fatal
            report.note("call_failed", f"peak-rss phase: {exc!r}")
        del out
        report.record(ok)
    return peak_rss_mb()


def env_record(blas_threads, cleared, inputs):
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        vendor = version = None
    return {"nproc": nproc(), "affinity": sorted(os.sched_getaffinity(0)),
            "blas_vendor": vendor, "blas_version": version,
            "blas_threads": blas_threads, "llc_bytes": llc_bytes(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "cleared_overrides": cleared,
            "inputs": inputs}


def input_record(name, arr_or_shape, dtype=None, nbytes=None):
    shape = getattr(arr_or_shape, "shape", arr_or_shape)
    dtype = str(getattr(arr_or_shape, "dtype", dtype))
    if nbytes is None:
        nbytes = getattr(arr_or_shape, "nbytes", None)
    return {"name": name, "shape": list(shape), "dtype": dtype,
            "bytes": int(nbytes)}


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

class Report:
    """What one run prints: human-readable lines, then one JSON line."""

    def __init__(self):
        self.metrics = {}
        self.notes = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def end_to_end(self, setup, gflops, ratios, lat, rss_mb, rel_err):
        """Every end-to-end metric: ``ratios`` holds the per-cell floor
        ratios.  The absolute rate ``gflops`` and the latency summary
        ``lat`` are printed beside them but are not gated metrics: on a
        shared host their run-to-run drift comes within reach of any
        bound, while the floor ratios cancel it."""
        self.metric("setup_s", setup, "s")
        self.metric("floor_ratio", geomean(ratios.values()), "x")
        self.metric("floor_ratio_worst", max(ratios.values()), "x")
        self.metric("peak_rss_mb", rss_mb, "MB")
        self.metric("rel_err_max", rel_err, "1")
        self.note("gflops", gflops)
        self.note("latency_ms_p50", lat["p50_ms"])
        self.note("latency_ms_tail", f"{lat['tail_ms']} ({tail_note(lat)})")
        self.note("floor_ratio_cells", ratios)

    def note(self, key, value):
        self.notes.append((key, value))

    def record(self, ok):
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def result(self):
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}

    def emit(self, out=None):
        out = out or sys.stdout
        for key, value in self.notes:
            text = value if isinstance(value, str) else json.dumps(value)
            print(f"# {key}: {text}", file=out)
        for name, m in self.metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}", file=out)
        print(f"fail_frac = {self.fail_frac:.6g} "
              f"({self.failed} of {self.attempted})", file=out)
        print(json.dumps(self.result()), file=out, flush=True)
