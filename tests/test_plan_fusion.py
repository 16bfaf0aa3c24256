"""Tests for plan fusion and batched execution.

Fused execution — sequential, DAG-scheduled, or inside a batch — must be
**bit-identical** (``np.array_equal``, never ``allclose``) to the
sequential unfused replay for every algorithm, dtype and worker count.

Covered here:

* fusion structure: chains collapse, members stay in plan order, the
  contracted DAG keeps its invariants, singleton plans are untouched;
* a hypothesis sweep of kinds x dtypes x lanes x workers x alpha proving
  bit-identity of fused sequential and fused DAG execution;
* plan-cache aliasing: fused and unfused plans of one shape coexist under
  distinct keys; flipping ``Config.fuse`` invalidates the cache;
* cost-weighted scheduling metadata (bottom-level priorities);
* ``run_batch``/``run_batch_atb`` on a DAG-capable engine;
* the frozen tuner (determinism contract) and ``"auto"`` fuse
  arbitration candidates;
* workspace-pool byte accounting, trimming, and the out-of-core budget
  coordination satellite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.model import CacheModel
from repro.config import Config, configured
from repro.core.workspace import StrassenWorkspace
from repro.engine import (
    DagExecutor,
    ExecutionEngine,
    FusedStep,
    WorkspacePool,
    compile_plan,
    execute_plan,
)
from repro.engine.ooc import ShardedAtA
from repro.engine.plan import (OP_FUSED, OP_GEMM_STORE, OP_LINCOMB,
                               OP_SCALE_STORE)
from repro.engine.tuner import BackendTuner
from repro.errors import ConfigurationError


@pytest.fixture()
def rng():
    return np.random.default_rng(0xF05E)


def _plans(kind, shape, dtype=np.float64, lanes=1, bce=64):
    """Compile the (unfused, fused) pair of plans for one recursion."""
    model = CacheModel(capacity_words=bce)
    with configured(base_case_elements=bce):
        unfused = compile_plan(kind, shape, dtype, model, lanes=lanes,
                               build_dag=True, fuse=False)
        fused = compile_plan(kind, shape, dtype, model, lanes=lanes,
                             build_dag=True, fuse=True)
    return unfused, fused


def _run(plan, a, b, out_shape, alpha=1.0, workers=None):
    ws = None
    if plan.needs_workspace:
        ws = StrassenWorkspace(*plan.ws_shape, dtype=a.dtype,
                               requirement=plan.requirement)
    c = np.zeros(out_shape, dtype=a.dtype)
    if workers is None:
        execute_plan(plan, a, c, alpha, ws, b=b)
    else:
        executor = DagExecutor(workers)
        try:
            executor.execute(plan, a, c, alpha, ws, b=b)
        finally:
            executor.shutdown()
    return c


def _operands(rng, kind, dtype):
    if kind in ("strassen", "recursive_gemm"):
        m, n, k = 45, 23, 31
        a = rng.standard_normal((m, n)).astype(dtype)
        b = rng.standard_normal((m, k)).astype(dtype)
        return (m, n, k), a, b, (n, k)
    m, n = 52, 36
    a = rng.standard_normal((m, n)).astype(dtype)
    return (m, n), a, None, (n, n)


class TestFusionStructure:
    def test_chains_collapse(self):
        unfused, fused = _plans("ata", (64, 64))
        assert fused.fused
        assert not unfused.fused
        assert fused.fused_steps > 0
        assert len(fused.steps) < len(unfused.steps)
        assert any(step[0] == OP_FUSED for step in fused.steps)

    def test_members_conserved_and_in_plan_order(self):
        unfused, fused = _plans("ata", (64, 64))
        replayed = 0
        for step in fused.steps:
            if step[0] == OP_FUSED:
                unit = step[1]
                assert isinstance(unit, FusedStep)
                # the store peephole may fold zero->accumulate member
                # pairs into single micro-ops, so micro can be shorter
                assert 1 < len(unit.micro) <= unit.n_members
                assert unit.n_members > 1
                replayed += unit.n_members
            elif step[0] in (OP_GEMM_STORE, OP_SCALE_STORE):
                # an unwrapped store stands for its zero->accumulate pair
                replayed += 2
            elif step[0] == OP_LINCOMB:
                # an unwrapped combined add stands for zero->add->add
                replayed += 3
            else:
                replayed += 1
        assert replayed == len(unfused.steps)

    def test_contracted_dag_invariants(self):
        _, fused = _plans("ata", (64, 64), lanes=2)
        dag = fused.dag
        preds = [0] * len(fused.steps)
        for u, succs in enumerate(dag.succs):
            for v in succs:
                assert v > u, "contracted edges must still point forward"
                preds[v] += 1
        assert tuple(preds) == dag.preds
        assert len(dag.priorities) == len(fused.steps)
        assert len(dag.costs) == len(fused.steps)

    def test_chainless_plans_unchanged(self):
        unfused, fused = _plans("syrk", (48, 32))
        assert len(fused.steps) == len(unfused.steps)
        assert fused.fused_steps == 0

    def test_multi_lane_fusion_stays_within_a_lane(self):
        _, one = _plans("ata", (64, 64), lanes=1)
        _, four = _plans("ata", (64, 64), lanes=4)
        # more lanes => fewer merge opportunities, never more
        assert four.fused_steps <= one.fused_steps

    def test_bottom_level_priorities_dominate_costs(self):
        _, fused = _plans("ata", (64, 64), lanes=2)
        dag = fused.dag
        for u, succs in enumerate(dag.succs):
            expect = dag.costs[u]
            if succs:
                expect += max(dag.priorities[v] for v in succs)
            assert dag.priorities[u] == expect


class TestBitIdentity:
    @given(kind=st.sampled_from(["ata", "syrk", "tiled", "strassen",
                                 "recursive_gemm"]),
           dtype=st.sampled_from([np.float64, np.float32]),
           lanes=st.sampled_from([1, 4]),
           workers=st.sampled_from([1, 4]),
           alpha=st.sampled_from([1.0, 1.25]))
    @settings(max_examples=30, deadline=None)
    def test_fused_matches_unfused(self, kind, dtype, lanes, workers, alpha):
        rng = np.random.default_rng(hash((kind, lanes, workers)) % 2**32)
        shape, a, b, out = _operands(rng, kind, dtype)
        unfused, fused = _plans(kind, shape, dtype, lanes=lanes)
        reference = _run(unfused, a, b, out, alpha)
        assert np.array_equal(_run(fused, a, b, out, alpha), reference)
        assert np.array_equal(
            _run(fused, a, b, out, alpha, workers=workers), reference)

    @pytest.mark.parametrize("shape,bce", [((127, 3), 32), ((127, 5), 32),
                                           ((97, 3), 16), ((255, 2), 32)])
    def test_tail_shapes_with_scratch_reuse(self, shape, bce):
        """Regression: very tall-thin shapes at tiny base cases pack many
        scratch-arena generations into one fused unit.  The lincomb
        peephole once folded ``store dst = src`` with a later
        ``dst += src`` across ops that *regenerated* ``src`` in place,
        reading the new generation twice — the fold must die whenever an
        intervening op writes the pending store's source region."""
        rng = np.random.default_rng(1234)
        a = rng.standard_normal(shape)
        unfused, fused = _plans("ata", shape, bce=bce)
        out = (shape[1], shape[1])
        reference = _run(unfused, a, None, out)
        assert np.array_equal(_run(fused, a, None, out), reference)
        assert np.array_equal(_run(fused, a, None, out, workers=4),
                              reference)


class TestCacheAliasing:
    def test_fused_and_unfused_plans_coexist(self, rng):
        # the per-plan key flag keeps an arbitrated mix of fused and
        # unfused plans apart within one config fingerprint generation
        engine = ExecutionEngine(parallel="off")
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            p_fused = engine._plan("ata", "ata", (64, 48), np.float64,
                                   model, fuse=True)
            p_unfused = engine._plan("ata", "ata", (64, 48), np.float64,
                                     model, fuse=False)
            assert p_fused.key != p_unfused.key
            assert p_fused.fused and not p_unfused.fused
            assert len(engine.plans) == 2
            # both keys hit on re-request: no clobbering either way
            assert engine._plan("ata", "ata", (64, 48), np.float64,
                                model, fuse=True) is p_fused
            assert engine._plan("ata", "ata", (64, 48), np.float64,
                                model, fuse=False) is p_unfused

    def test_compile_plan_default_keys_differ(self):
        unfused, fused = _plans("ata", (64, 64))
        assert unfused.key != fused.key

    def test_config_fuse_change_invalidates_cache(self, rng):
        with configured(base_case_elements=64):
            engine = ExecutionEngine(parallel="off")
            a = rng.standard_normal((48, 32))
            engine.matmul_ata(a)
            assert len(engine.plans) > 0
            with configured(fuse="off"):
                engine.matmul_ata(a)
                assert engine.plans.invalidations > 0

    def test_invalid_fuse_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(fuse="sometimes").validate()
        with pytest.raises(ConfigurationError):
            Config(tuner_mode="warm").validate()
        with pytest.raises(ConfigurationError):
            ExecutionEngine(fuse="sometimes")


class TestInterleaving:
    """``run_batch``/``run_batch_atb`` on a DAG engine run every entry
    through the per-call path: bit-identical to a ``matmul_*`` loop."""

    def test_run_batch_bit_identical_and_counted(self, rng):
        with configured(base_case_elements=256):
            eng = ExecutionEngine(parallel="dag", workers=4)
            mats = [rng.standard_normal(s)
                    for s in [(48, 32), (64, 64), (96, 40), (33, 17),
                              (64, 64)]]
            outs = eng.run_batch(mats, alpha=1.25)
            ref_eng = ExecutionEngine(parallel="off", fuse="off")
            for out, a in zip(outs, mats):
                assert np.array_equal(out, ref_eng.matmul_ata(a, alpha=1.25))
            stats = eng.stats()
            assert stats.batch_calls == 1
            assert stats.batch_items == len(mats)

    def test_run_batch_atb_bit_identical(self, rng):
        with configured(base_case_elements=256):
            eng = ExecutionEngine(parallel="dag", workers=4)
            pairs = [(rng.standard_normal((m, n)), rng.standard_normal((m, k)))
                     for m, n, k in [(48, 32, 24), (64, 40, 40), (40, 64, 8)]]
            outs = eng.run_batch_atb(pairs, alpha=0.5)
            ref_eng = ExecutionEngine(parallel="off", fuse="off")
            for out, (a, b) in zip(outs, pairs):
                assert np.array_equal(
                    out, ref_eng.matmul_atb(a, b, alpha=0.5))


class TestFrozenTuner:
    def test_frozen_tuner_abstains_cold(self):
        tuner = BackendTuner(persist=False, frozen=True)
        name, explore = tuner.choose("ata", (64, 64), np.float64,
                                     ["ata", "syrk"])
        assert name is None and explore is False

    def test_frozen_tuner_exploits_sampled_best_and_ignores_records(self):
        warm = BackendTuner(persist=False)
        for _ in range(4):
            warm.record("ata", (64, 64), np.float64, "ata", 0.002)
            warm.record("ata", (64, 64), np.float64, "syrk", 0.001)
        frozen = BackendTuner(persist=False, frozen=True)
        frozen._table = warm._table
        name, explore = frozen.choose("ata", (64, 64), np.float64,
                                      ["ata", "syrk", "tiled"])
        assert name == "syrk" and explore is False
        frozen.record("ata", (64, 64), np.float64, "tiled", 1e-9)
        name, _ = frozen.choose("ata", (64, 64), np.float64,
                                ["ata", "syrk", "tiled"])
        assert name == "syrk", "frozen tables must not learn"

    def test_engine_frozen_mode_is_deterministic(self, rng, tmp_path):
        with configured(base_case_elements=64,
                        tuner_path=str(tmp_path / "tuner.json")):
            a = rng.standard_normal((64, 48))
            ref = ExecutionEngine(parallel="off", fuse="off").matmul_ata(a)
            eng = ExecutionEngine(parallel="off", tuner="frozen")
            first = eng.matmul_ata(a)
            runs_after_first = dict(eng.stats().backend_runs)
            second = eng.matmul_ata(a)
            # an empty frozen table abstains: both calls fall to the same
            # heuristic backend as the plain engine, bit-identically
            # (fused default vs fuse="off" cannot differ in bits)
            assert np.array_equal(first, ref)
            assert np.array_equal(second, ref)
            assert len(runs_after_first) == 1

    def test_auto_fuse_arbitration_offers_fused_candidates(self, rng,
                                                           tmp_path):
        with configured(base_case_elements=64,
                        tuner_path=str(tmp_path / "tuner.json")):
            eng = ExecutionEngine(parallel="off", tuner="measured",
                                  fuse="auto")
            a = rng.standard_normal((64, 48))
            # candidates are distinct *backends* (bit-identity holds
            # per backend, not across them), so check numerics loosely
            # here; exact fused-vs-unfused identity is covered above
            expect = np.tril(a.T @ a)
            for _ in range(24):
                assert np.allclose(np.tril(eng.matmul_ata(a)), expect)
            seen = set(eng.stats().backend_runs)
            assert any(name.endswith("+fused") for name in seen), \
                "auto mode must explore fused variants"


class TestPoolAccounting:
    def test_acquire_release_tracks_bytes(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            plan = compile_plan("ata", (96, 64), np.float64, model,
                                lanes=1, build_dag=False)
            pool = WorkspacePool()
            assert pool.footprint() == 0
            ws = pool.acquire(plan, np.float64)
            nbytes = ws.total_elements * np.dtype(np.float64).itemsize
            assert pool.footprint() == nbytes
            assert pool.bytes_high_water == nbytes
            pool.release(ws)
            assert pool.footprint() == nbytes  # idle now, still resident
            pool.trim(0)
            assert pool.footprint() == 0
            assert pool.trims == 1
            assert pool.bytes_high_water == nbytes  # high water is sticky

    def test_trim_evicts_largest_first(self, rng):
        with configured(base_case_elements=64):
            model = CacheModel(capacity_words=64)
            pool = WorkspacePool()
            sizes = {}
            for shape in [(48, 32), (96, 64)]:
                plan = compile_plan("ata", shape, np.float64, model,
                                    lanes=1, build_dag=False)
                ws = pool.acquire(plan, np.float64)
                sizes[shape] = ws.total_elements * 8
                pool.release(ws)
            keep = sizes[(48, 32)]
            dropped = pool.trim(keep)
            assert dropped == 1
            assert pool.idle_sizes() == [sizes[(48, 32)] // 8]

    def test_foreign_release_clamps_at_zero(self):
        pool = WorkspacePool()
        ws = StrassenWorkspace(16, 16, 16, dtype=np.float64)
        pool.release(ws)  # never acquired here: must not go negative
        assert pool.footprint() >= 0
        assert pool._bytes_in_use == 0

    def test_engine_stats_surface_pool_high_water(self, rng):
        with configured(base_case_elements=64):
            eng = ExecutionEngine(parallel="off")
            eng.matmul_ata(rng.standard_normal((96, 64)))
            assert eng.stats().pool_bytes_high > 0


class TestOocBudgetCoordination:
    def test_idle_scratch_trimmed_to_fit_budget(self, rng):
        with configured(base_case_elements=64):
            eng = ExecutionEngine(parallel="off")
            # leave a large idle workspace in the pool
            eng.matmul_ata(rng.standard_normal((256, 64)))
            assert eng.pool.footprint() > 0
            a = rng.standard_normal((128, 16))
            budget = (16 * 16 + 2 * 32 * 16) * 8 + 512
            sharded = ShardedAtA(eng, budget=budget, panel_rows=32,
                                 prefetch=False)
            c, stats = sharded.run(a)
            # multi-panel contract: bit-identical to per-panel accumulation
            # in schedule order (not to one whole-matrix call)
            ref_eng = ExecutionEngine(parallel="off", fuse="off")
            ref = np.zeros((16, 16))
            for lo in range(0, 128, 32):
                ref_eng.matmul_ata(a[lo:lo + 32], ref)
            assert np.array_equal(c, ref)
            assert stats.workspace_trimmed >= 1
            assert stats.workspace_bytes <= max(
                0, budget - stats.bytes_resident_high) + eng.pool.footprint()

    def test_unbounded_budget_never_trims(self, rng):
        with configured(base_case_elements=64):
            eng = ExecutionEngine(parallel="off")
            eng.matmul_ata(rng.standard_normal((128, 64)))
            sharded = ShardedAtA(eng, budget=0, panel_rows=32,
                                 prefetch=False)
            _, stats = sharded.run(rng.standard_normal((96, 16)))
            assert stats.workspace_trimmed == 0


class TestEnvKnobs:
    def test_env_parsing(self, monkeypatch):
        from repro.config import _config_from_env
        monkeypatch.setenv("REPRO_FUSE", "off")
        monkeypatch.setenv("REPRO_TUNER", "frozen")
        cfg = _config_from_env()
        assert cfg.fuse == "off"
        assert cfg.tuner_mode == "frozen"

    def test_env_rejects_invalid(self, monkeypatch):
        from repro.config import _config_from_env
        monkeypatch.setenv("REPRO_FUSE", "fast")
        with pytest.raises(ConfigurationError):
            _config_from_env()
