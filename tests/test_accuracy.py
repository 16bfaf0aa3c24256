"""Forward-error bounds of the plan backends against an extended-precision
reference.

Every cell computes ``A^T A`` (``syrk``, ``ata``) or ``A^T B``
(``strassen``, ``recursive_gemm``) at n = 256 in float32 and float64 and
compares the max-norm error with a ``np.longdouble`` reference.  The
recursion depth k is set through ``base_case_elements = 2 (n / 2^k)^2``,
which makes every recursive backend stop at blocks of side ``n / 2^k``;
the kernel call counts (``4^k`` syrks, ``7^k`` or ``8^k`` gemms) confirm
the depth each cell really ran at.

The bounds are those of Higham, *Accuracy and Stability of Numerical
Algorithms* (2nd ed., SIAM 2002), chapter 23, with ``u`` the unit
roundoff and ``||X|| = max |x_ij|``, to first order in ``u``:

* conventional multiplication (§3.5, used in §23.2.2):
  ``|C - Ĉ| <= γ_n |A^T| |B|``, hence
  ``||C - Ĉ|| <= n^2 u ||A|| ||B||``.  ``syrk`` and ``recursive_gemm``
  only reorder the n-term inner products, so this holds at every depth;
* Strassen's method recursing to blocks of side ``n0 = n / 2^k``
  (Theorem 23.2):
  ``||C - Ĉ|| <= [(n/n0)^(log2 12) (n0^2 + 5 n0) - 5 n] u ||A|| ||B||``.
  The ``strassen`` backend is Strassen's original seven-product scheme.
  Algorithm 1 (``ata``) at depth k forms its off-diagonal block from
  Strassen products at depth k - 1 and its diagonal blocks from ``ata``
  at depth k - 1, each with one extra addition, so its error obeys the
  same depth-k Strassen bound; that is the bound asserted for it.

At k = 0 the Strassen bound reduces to the conventional one.  The bounds
are worst-case: random operands land far inside them, but a cell that
ever exceeds its bound is a real accuracy defect.
"""

import numpy as np
import pytest

from repro.blas import counters
from repro.config import configured
from repro.engine import ExecutionEngine

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform")

N = 256
DEPTHS = (0, 1, 2, 3)
DTYPES = (np.float32, np.float64)

#: Leaf kernel and its call count at depth k, per backend.
LEAVES = {
    "syrk": ("syrk", lambda k: 1),
    "ata": ("syrk", lambda k: 4 ** k),
    "strassen": ("gemm", lambda k: 7 ** k),
    "recursive_gemm": ("gemm", lambda k: 8 ** k),
}


def conventional_bound(n: int) -> float:
    """Higham §3.5: ``n γ_n ≈ n^2 u`` (in units of ``u ||A|| ||B||``)."""
    return float(n * n)


def strassen_bound(n: int, depth: int) -> float:
    """Higham Theorem 23.2 for ``depth`` levels of Strassen recursion."""
    n0 = n >> depth
    return float(12 ** depth * (n0 * n0 + 5 * n0) - 5 * n)


BOUNDS = {
    "syrk": lambda n, k: conventional_bound(n),
    "recursive_gemm": lambda n, k: conventional_bound(n),
    "strassen": strassen_bound,
    "ata": strassen_bound,
}


@pytest.fixture(scope="module", params=DTYPES, ids=lambda d: np.dtype(d).name)
def problem(request):
    """Operands of one dtype with their extended-precision products."""
    dtype = request.param
    rng = np.random.default_rng(20210806)
    a = rng.standard_normal((N, N)).astype(dtype)
    b = rng.standard_normal((N, N)).astype(dtype)
    a_ld, b_ld = a.astype(np.longdouble), b.astype(np.longdouble)
    return dtype, a, b, np.tril(a_ld.T @ a_ld), a_ld.T @ b_ld


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("algo", sorted(LEAVES))
def test_forward_error_within_higham_bound(problem, algo, depth):
    dtype, a, b, ref_ata, ref_atb = problem
    with configured(base_case_elements=2 * (N >> depth) ** 2):
        engine = ExecutionEngine(parallel="off")
        with counters.counting() as counted:
            if algo in ("syrk", "ata"):
                c = np.tril(engine.matmul_ata(a, algo=algo))
                ref, norms = ref_ata, float(np.abs(a).max()) ** 2
            else:
                c = engine.matmul_atb(a, b, algo=algo)
                ref = ref_atb
                norms = float(np.abs(a).max()) * float(np.abs(b).max())
    leaf, expected_calls = LEAVES[algo]
    assert counted[leaf].calls == expected_calls(depth), "wrong depth"
    assert c.dtype == dtype
    u = float(np.finfo(dtype).eps) / 2
    error = float(np.abs(c.astype(np.longdouble) - ref).max())
    bound = BOUNDS[algo](N, depth) * u * norms
    assert error <= bound, (
        f"{algo} {np.dtype(dtype).name} depth {depth}: max error "
        f"{error:.3e} exceeds the Higham bound {bound:.3e}")
