"""Self-tests of the benchmark.

    python -m pytest perfbench/tests -q

* a tiny-size run of every workload, untraced and traced, prints every
  metric ``BENCHMARK.json`` names, with its unit, and leaves no process
  of its session running;
* a corrupted engine result is caught, counted in ``failed`` and makes
  the command exit non-zero; the column-sampled reference check of the
  peak-RSS phase catches a wrong entry;
* the self-time arithmetic of the span recorder on a synthetic nested
  span set, and the tail percentile rule;
* without the library sources the command fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import (Reference, latency_summary, self_times, tail,  # noqa: E402
                    within_contract)
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def session_pids(sid):
    pids = []
    for name in os.listdir("/proc"):
        try:
            if name.isdigit() and os.getsid(int(name)) == sid:
                pids.append(int(name))
        except OSError:  # the process ended while we looked
            pass
    return pids


def run_cli(*args, cwd=ROOT):
    """Run the command in a session of its own; ``outlived`` lists the
    processes of that session still there once the command has exited."""
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    done = subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)
    done.outlived = session_pids(proc.pid)
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not proc.outlived
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(f" {m['unit']}") for line in lines)
    leftovers = [d for d in os.listdir(os.path.join(BENCH, "out"))
                 if d.startswith("run-")]
    assert not leftovers


def test_corrupted_result_is_counted_and_fails_the_run(monkeypatch, capsys):
    import repro
    import run

    real = repro.matmul_ata
    calls = {"n": 0}

    def corrupting(a, *args, **kwargs):
        c = real(a, *args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 6:  # after the warm-up's four calls
            c = c.copy()
            c[-1, 0] += 1.0
        return c

    monkeypatch.setattr(repro, "matmul_ata", corrupting)
    saved = dict(os.environ)
    try:
        code = run.main(["--workload", "gram_dense", "--seed", "3",
                         "--seconds", "1", "--size", "tiny"])
    finally:
        os.environ.clear()
        os.environ.update(saved)
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("fail_frac = ") and not
               line.startswith("fail_frac = 0 ") for line in out)


def test_within_contract_catches_a_wrong_lower_triangle():
    import numpy as np
    a = np.random.default_rng(0).standard_normal((40, 20))
    floor = a.T @ a
    good = np.tril(floor) + np.triu(np.full_like(floor, 7.0), 1)
    assert within_contract(good, floor, "ata")  # upper triangle is free
    bad = good.copy()
    bad[5, 2] *= 1 + 1e-6
    assert not within_contract(bad, floor, "ata")
    assert not within_contract(floor.astype(np.float32), floor, "ata")


def test_reference_check_catches_a_wrong_sampled_column():
    import numpy as np
    rng = np.random.default_rng(1)
    a = rng.standard_normal((300, 40))
    ref = Reference("ata", a, None, rng, columns=40)
    c = a.T @ a
    assert ref.within_contract(c)
    bad = c.copy()
    bad[30, 7] *= 1 + 1e-6
    assert not ref.within_contract(bad)
    assert not ref.within_contract(c.astype(np.float32))
    b = rng.standard_normal((300, 20))
    assert Reference("atb", a, b, rng, columns=4).within_contract(a.T @ b)


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 2],    # overlaps a: the union counts once
        ["c", 2.0, 3.0, 1, 1],    # nested in a
        ["d", 9.0, 12.0, 0, 3],   # runs past its parent: clipped
        ["c", 4.5, 5.0, 2, 2],    # same name under b: summed
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 10 - 5 - 1, "a": 3 - 1,
                                 "b": 3 - 0.5, "c": 1 + 0.5, "d": 3})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = tail(range(100))
    assert (value, pct, beyond) == (89, 90.0, 10)
    assert tail(range(100, 0, -1))[:2] == (90, 90.0)
    # too few samples for ten beyond a percentile above the median
    assert tail([5, 1, 4, 2, 3]) == (3, 60.0, 2)
    lat = latency_summary({"x": [0.001] * 40 + [0.002] * 40,
                           "y": [0.004] * 20})
    assert lat["p50_ms"] == pytest.approx((1.5 * 4) ** 0.5)  # geomean
    assert lat["samples"] == 100 and lat["windows"] == 1


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "gram_dense", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
