"""One-shot layer sweep, reported next to the ROADMAP baseline table.

    python3 perfbench/sweep.py

Times `check_psd_c` (standard directions), `check_raw_iii` and `split_tensor`
on passing tensors at n in {2, 4, 8, 16, 32}, `jacobi_eigenvalues` and
`np.linalg.eigvalsh` on a 32x32 symmetric matrix, and microseconds per RK4
step of `integrate` on both builtin models. Each timing repeats until it has
run at least three times and for 0.2 s; median and min are printed beside the
baseline. The sweep is not a workload and gates nothing. It takes about a
minute, most of it in `check_psd_c` at n = 32.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in the workloads

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import source  # noqa: E402

source.use()

from ciph.dynamics import builtin_model, integrate  # noqa: E402
from ciph.eig import jacobi_eigenvalues  # noqa: E402
from ciph.splitter import split_tensor  # noqa: E402
from ciph.tensor import check_psd_c, check_raw_iii, default_directions  # noqa: E402
from ciph.verify import random_cons_irrev  # noqa: E402

SIZES = (2, 4, 8, 16, 32)
RK4_STEPS = 1000
# ROADMAP "Baseline" table, in seconds (per RK4 step for the integrate rows).
BASELINE = {
    ("check_psd_c", 2): 2.6e-3, ("check_psd_c", 8): 40e-3,
    ("check_psd_c", 16): 234e-3, ("check_psd_c", 32): 7.7,
    ("check_raw_iii", 2): 0.12e-3, ("check_raw_iii", 8): 0.15e-3,
    ("check_raw_iii", 16): 1.6e-3, ("check_raw_iii", 32): 34e-3,
    ("split_tensor", 2): 0.3e-3, ("split_tensor", 8): 0.3e-3,
    ("split_tensor", 16): 2.3e-3, ("split_tensor", 32): 21e-3,
    ("jacobi_eigenvalues", 32): 121e-3, ("eigvalsh", 32): 0.07e-3,
    ("rk4_step quadratic-linear", 2): 117e-6, ("rk4_step heat-exchanger", 2): 141e-6,
}


def timed(call, per: int = 1) -> tuple[float, float]:
    """(median, min) seconds of ``call()`` divided by ``per``."""
    samples = []
    start = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - start < 0.2:
        t0 = time.perf_counter()
        call()
        samples.append((time.perf_counter() - t0) / per)
    return statistics.median(samples), min(samples)


def sweep() -> list:
    rows = []
    for n in SIZES:
        (t,) = random_cons_irrev(seed=n, n=n, count=1, gamma_max=2.0)
        directions = default_directions(n)
        rows.append(("check_psd_c", n, *timed(lambda: check_psd_c(t, directions))))
        rows.append(("check_raw_iii", n, *timed(lambda: check_raw_iii(t))))
        rows.append(("split_tensor", n, *timed(lambda: split_tensor(t))))
    rng = np.random.default_rng(32)
    a = rng.standard_normal((32, 32))
    sym = a + a.T
    rows.append(("jacobi_eigenvalues", 32, *timed(lambda: jacobi_eigenvalues(sym))))
    rows.append(("eigvalsh", 32, *timed(lambda: np.linalg.eigvalsh(sym))))
    for name, x0 in (("quadratic-linear", [1.0, 0.0]), ("heat-exchanger", [0.3, -0.3])):
        model = builtin_model(name)
        run = lambda: integrate(model, x0, t_end=RK4_STEPS * 1e-3, dt=1e-3)  # noqa: E731
        rows.append((f"rk4_step {name}", model.n, *timed(run, per=RK4_STEPS)))
    return rows


def _fmt(seconds) -> str:
    if seconds is None:
        return "-"
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6)):
        if seconds >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds / 1e-6:.3g} us"


def main() -> int:
    rows = sweep()
    print(f"{'layer':28} {'n':>3} {'median':>10} {'min':>10} {'baseline':>10} {'min/base':>9}")
    for layer, n, med, low in rows:
        base = BASELINE.get((layer, n))
        ratio = f"{low / base:.2f}" if base else "-"
        print(f"{layer:28} {n:>3} {_fmt(med):>10} {_fmt(low):>10} {_fmt(base):>10} {ratio:>9}")
    print(json.dumps({
        "machine": platform.machine(), "processor": platform.processor() or None,
        "python": platform.python_version(), "numpy": np.__version__,
        "rows": [{"layer": layer, "n": n, "median_s": med, "min_s": low,
                  "baseline_s": BASELINE.get((layer, n))} for layer, n, med, low in rows],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
