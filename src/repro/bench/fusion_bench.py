"""Fusion experiment: fused-plan interpretation against unfused replay.

``engine_fusion`` measures what the compiler's fusion pass buys on warm
plans at small shapes, where per-step dispatch and the zero/accumulate
assembly passes — not the base-case gemm flops — dominate the runtime.
The fusion pass collapses single-consumer chains into dispatch units and
its store peepholes fold ``zero → accumulate`` (and ``store → add``)
member pairs into single direct-store numpy calls, so a fused ``ata``
plan executes roughly two-thirds the numpy calls of its unfused twin
while producing results equal under ``np.array_equal``.

Two timings are reported per (kind, n):

* **unfused** — sequential replay of the unfused plan (the ISSUE-2
  baseline path);
* **fused** — sequential replay of the fused plan through the
  interpreter.

``benchmarks/test_engine_fusion.py`` gates the fused-vs-unfused ratio at
≥ 1.3× on a small-shape warm-plan microbenchmark (skipping honestly with
the measured number when the host cannot reproduce it) and exports the
``engine_fusion`` benchmark group for CI regression tracking; measured
container numbers live in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cache.model import CacheModel
from ..config import configured
from ..core.workspace import StrassenWorkspace
from ..engine import compile_plan, execute_plan
from .engine_bench import _best_of
from .harness import register
from .reporting import ExperimentTable
from .workloads import random_matrix

__all__ = ["engine_fusion"]


def _workspace(plan, dtype):
    if not plan.needs_workspace:
        return None
    return StrassenWorkspace(*plan.ws_shape, dtype=dtype,
                             requirement=plan.requirement)


def _operands(kind: str, n: int, seed: int):
    """Operands and output shape for one plan kind at size ``n``."""
    if kind in ("strassen", "recursive_gemm", "tiled"):
        a = random_matrix(n, n, seed=seed)
        b = random_matrix(n, n, seed=seed + 1)
        return (n, n, n), a, b, (n, n)
    a = random_matrix(n, n, seed=seed)
    return (n, n), a, None, (n, n)


@register("engine_fusion",
          "Unfused vs fused warm-plan execution at small shapes",
          "Engine architecture (DESIGN.md)")
def engine_fusion(sizes: Optional[Sequence[int]] = None,
                  kinds: Sequence[str] = ("ata", "strassen"),
                  repeats: int = 7,
                  base_case_elements: int = 256) -> List[ExperimentTable]:
    """Measure plan fusion on warm small-shape traffic.

    Parameters
    ----------
    sizes:
        Square problem sizes to sweep (n ≤ 256 is where fusion matters:
        per-call numpy dispatch dominates over base-case flops).
    kinds:
        Plan kinds to measure (``recursive_gemm`` is all-gemm and fuses
        nothing — a useful honesty row).
    repeats:
        Timing repeats per configuration; the fastest run is kept.
    base_case_elements:
        Base-case threshold; the default keeps plans deep enough at the
        default sizes that fusion has chains to collapse.
    """
    table = ExperimentTable(
        "engine_fusion",
        "warm-plan seconds: sequential unfused vs fused interpreter",
        ["kind", "n", "steps_unfused", "steps_fused", "folded_steps",
         "unfused_seconds", "fused_seconds", "fused_speedup"])
    sizes = sizes if sizes is not None else [128, 192, 256]
    with configured(base_case_elements=base_case_elements):
        model = CacheModel(capacity_words=base_case_elements)
        for kind in kinds:
            for n in sizes:
                shape, a, b, out_shape = _operands(kind, n, seed=n)
                unfused = compile_plan(kind, shape, a.dtype, model,
                                       fuse=False)
                fused = compile_plan(kind, shape, a.dtype, model, fuse=True)
                ws_u = _workspace(unfused, a.dtype)
                ws_f = _workspace(fused, a.dtype)
                c_u, c_f = np.zeros(out_shape), np.zeros(out_shape)

                execute_plan(unfused, a, c_u, 1.0, ws_u, b=b)  # warm
                t_unfused = _best_of(
                    lambda: execute_plan(unfused, a, c_u, 1.0, ws_u, b=b),
                    repeats)
                execute_plan(fused, a, c_f, 1.0, ws_f, b=b)
                t_fused = _best_of(
                    lambda: execute_plan(fused, a, c_f, 1.0, ws_f, b=b),
                    repeats)

                table.add_row(kind, n, unfused.n_steps, fused.n_steps,
                              fused.fused_steps, t_unfused, t_fused,
                              t_unfused / t_fused if t_fused else 0.0)
    table.add_note("results of both paths are equal under "
                   "np.array_equal; folded_steps counts the primitive "
                   "steps the fusion pass collapsed into units or "
                   "direct stores")
    return [table]
