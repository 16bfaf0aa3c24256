"""Shared fixtures for the test suite.

Most algorithm tests shrink the cache-oblivious base case (to 64 elements)
so the recursive code paths are exercised even on the small matrices tests
can afford; the ``small_base_case`` fixture installs and removes that
configuration around each test that requests it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import configured, get_config, set_config


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(autouse=True)
def _restore_global_config():
    """Guarantee config isolation between tests.

    ``configured()`` save/restores a process-wide global, so tests that
    deliberately race it across threads (the plan-cache invalidation
    hammer) can leave the global pointing at a transient override —
    which then silently changes backend heuristics for every later test
    in the session.  Snapshot and restore around each test so no test
    inherits another's configuration, however it was mangled."""
    previous = get_config()
    yield
    if get_config() is not previous:
        set_config(previous)


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    """Isolate fault-injection trigger state between tests.

    Compiled fault plans are cached per ``(spec, seed)`` with their fired
    counts (deliberately: one spec = one continuous chaos schedule), so
    two tests arming the same spec would otherwise share one-shot
    triggers."""
    from repro import faults
    faults.reset()
    yield


@pytest.fixture
def small_base_case():
    """Shrink the recursion base case so small matrices still recurse."""
    with configured(base_case_elements=64) as cfg:
        yield cfg


@pytest.fixture
def tiny_base_case():
    """Shrink the base case to the minimum that still terminates quickly."""
    with configured(base_case_elements=8) as cfg:
        yield cfg


def random_matrix(rng: np.random.Generator, m: int, n: int, dtype=np.float64) -> np.ndarray:
    """Convenience used throughout the test modules."""
    return rng.standard_normal((m, n)).astype(dtype, copy=False)


@pytest.fixture(params=["dense", "csr", "ooc", "stream"])
def serve_entry(request):
    """One :class:`repro.serve.Server` entry kind, as
    ``serve_entry(server, a, **kwargs)`` -> the coroutine serving
    ``A^T A`` of the dense ``a`` through it: dense ``submit``, CSR
    ``submit`` (skipped without scipy), ``submit_ooc`` or
    ``submit_stream`` (``a`` fed as 16-row chunks)."""
    kind = request.param
    if kind == "csr":
        sps = pytest.importorskip("scipy.sparse")
        return lambda server, a, **kw: server.submit(sps.csr_matrix(a), **kw)
    if kind == "ooc":
        return lambda server, a, **kw: server.submit_ooc(a, **kw)
    if kind == "stream":
        return lambda server, a, **kw: server.submit_stream(
            (a[i:i + 16] for i in range(0, a.shape[0], 16)), **kw)
    return lambda server, a, **kw: server.submit(a, **kw)
