"""The repository's benchmark: one command, driven by ``BENCHMARK.json``.

    python3 perfbench/run.py --workload gram_dense --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``gram_dense``    -- closed loop, one caller, ``repro.matmul_ata`` /
  ``matmul_atb`` on the default engine over a fixed shape mix, BLAS at
  1 thread (``gram.py``);
* ``gram_parallel`` -- closed loop through ``ExecutionEngine(workers=
  nproc)`` on large operands, BLAS at ``nproc`` threads (``gram.py``);
* ``ooc_stream``    -- a seeded float64 memmap of at least 4x the LLC
  streamed through ``repro.run_ooc``, alternating ``procs=0`` and
  ``procs=nproc`` (``ooc.py``).

Every traced run also measures the serving layers through a short probe
against a ``NetServer`` child (``serving.py``).

Every timed operation is checked against the numpy floor under the
library's accuracy contract (normwise rtol 1e-10 for float64, 1e-4 for
float32); a miss counts in ``failed`` and the command exits 1.  The last
line of standard output is the JSON result; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (``layers.py``) and
writes a Chrome trace to ``perfbench/out/``.  Lines starting with ``#``
before it carry what is printed but not gated: the absolute GFLOP/s,
latency, per-cell tables, the floor, the environment record.

The run is hermetic: BLAS threads are pinned before numpy loads, every
``REPRO_*`` override in the caller's environment is cleared (and
reported), the tuner table and temporary files go to a per-run directory
under ``perfbench/out/`` that is removed at exit together with the
memmap, any child process and any shared-memory segment the run left.
"""

import argparse
import importlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {"gram_dense": "gram", "gram_parallel": "gram",
             "ooc_stream": "ooc"}

#: every run must end well inside the 180 s the contract allows
WATCHDOG_SECONDS = 170
#: fresh processes the set-up time is the median of
SETUP_REPEATS = 5
SHM_DIR = "/dev/shm"


def blas_threads_for(workload):
    return len(os.sched_getaffinity(0)) if workload == "gram_parallel" else 1


def hermetic_env(workload, workdir):
    """Pin BLAS threads, clear ``REPRO_*`` overrides, redirect the tuner
    table and temporary files; returns the cleared overrides."""
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in cleared:
        del os.environ[key]
    threads = str(blas_threads_for(workload))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["REPRO_TUNER_PATH"] = os.path.join(workdir, "tuner.json")
    os.environ["TMPDIR"] = workdir
    os.environ["PYTHONPATH"] = SRC
    return cleared


class Context:
    """Everything a workload needs: arguments, the per-run directory,
    the report, the tracer and the child processes to reap."""

    def __init__(self, args, workdir, cleared):
        from common import Report, Tracer
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tiny = args.size == "tiny"
        self.workdir = workdir
        self.cleared = cleared
        self.nproc = len(os.sched_getaffinity(0))
        self.blas_threads = blas_threads_for(args.workload)
        self.report = Report()
        self.tracer = Tracer(enabled=False)
        self.children = []
        self.inputs = []
        self.env_extra = {}

    def env(self):
        from common import env_record
        record = env_record(self.blas_threads, self.cleared, self.inputs)
        record.update(self.env_extra)
        return record

    def spawn(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self.children.append(proc)
        return proc

    def measure_setup(self):
        """Median wall time of fresh processes going from interpreter
        start to the workload's first checked result (the probe's
        ``ok`` line).  Returns ``(median, walls)``."""
        walls = []
        for _ in range(1 if self.tiny else SETUP_REPEATS):
            start = time.perf_counter()
            proc = self.spawn([sys.executable, os.path.abspath(__file__),
                               "--workload", self.workload,
                               "--seed", str(self.seed),
                               "--size", "tiny" if self.tiny else "full",
                               "--setup-probe", self.workdir],
                              stdout=subprocess.PIPE, text=True)
            first = proc.stdout.readline()
            walls.append(time.perf_counter() - start)
            if proc.wait(timeout=120) != 0 or first.strip() != "ok":
                raise RuntimeError(f"set-up probe failed ({proc.returncode})")
        return statistics.median(walls), walls


def reap(children):
    for proc in children:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def stop_resource_tracker():
    """Stop multiprocessing's resource tracker and wait for it to end.

    The farm's shared-memory arenas start the tracker, a process of its
    own that otherwise outlives this one until it notices the closed
    pipe and is reaped by init.  ``_stop`` closes the tracker's pipe and
    ``waitpid``s it; the standard library has no public equivalent.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def shm_names():
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _raise_exit(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs for the self-tests")
    parser.add_argument("--setup-probe", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the library sources are missing ({SRC})",
              file=sys.stderr)
        return 2

    probe = args.setup_probe is not None
    workdir = (args.setup_probe if probe else
               os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    cleared = hermetic_env(args.workload, workdir)
    sys.path.insert(0, SRC)
    shm_before = shm_names()
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGALRM, _raise_exit)
    signal.alarm(WATCHDOG_SECONDS)
    ctx = None
    try:
        import repro
        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            print(f"error: imported repro from {repro.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        module = importlib.import_module(WORKLOADS[args.workload])
        ctx = Context(args, workdir, cleared)
        if probe:
            if not module.first_result(ctx):
                return 1
            print("ok", flush=True)
            return 0
        module.run(ctx)
        ctx.report.emit()
        return 0 if ctx.report.result()["correct"] else 1
    finally:
        signal.alarm(0)
        if ctx is not None:
            reap(ctx.children)
        stop_resource_tracker()
        if not probe:
            shutil.rmtree(workdir, ignore_errors=True)
            for name in shm_names() - shm_before:
                if name.startswith("psm_"):
                    try:
                        os.unlink(os.path.join(SHM_DIR, name))
                    except OSError:
                        pass


if __name__ == "__main__":
    sys.exit(main())
