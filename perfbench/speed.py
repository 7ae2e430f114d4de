"""Machine-speed calibration for speed-adjusted timings.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes, which would swamp the differences the benchmark must
resolve. Each timed interval is therefore bracketed by fixed reference
computations, and an adjusted time is ``raw / slowdown``: the time the
interval would have taken with the machine at its reference speed.

Contention slows kinds of work unequally, so there are several reference
kernels and each workload weighs them like its own layers (its ``mix``).
The kernels live here, not in dqdsim, so no change to the program can move
them.
"""

from __future__ import annotations

import time

# Median seconds of each kernel on the 2-core reference sandbox when the
# baseline was taken. They only fix the scale of adjusted times.
REF_S = {"python": 0.12, "interp": 0.10, "vector": 0.17, "dense": 0.155}
REPS = 4  # kernel runs per calibration, shared out by weight


def _python():
    """Pure interpreter loop (imports and module bodies at set-up)."""
    acc = 0
    for i in range(1_200_000):
        acc += (i * i) % 7


def _interp():
    """2x2 numpy calls from a Python loop (Dyson steps, density/EoF loop,
    quadrature callbacks)."""
    import numpy as np

    a = np.eye(2, dtype=complex)
    b = np.array([[0.6, 0.2j], [0.1, 0.7]])
    for _ in range(10_000):
        a = a @ b + 0.1 * np.trace(a) * b


def _vector():
    """Chunked complex exponential sums over long node arrays (kernel
    tables, wide-band panels)."""
    import numpy as np

    nodes = np.linspace(-5.0, 5.0, 6000)
    coefs = np.full(nodes.size, 1.0 / nodes.size, dtype=complex)
    for k in range(3):
        taus = np.linspace(0.0, 10.0, 256) + k
        np.exp(-1j * np.outer(taus, nodes)) @ coefs


def _dense():
    """Batched complex matrix products against one 800x800 matrix (the
    discretized-bath oracle's V assembly)."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((150, 2, 800)) + 1j * rng.standard_normal((150, 2, 800))
    w = rng.standard_normal((800, 800)) + 0j
    (x @ w @ np.conj(np.transpose(x, (0, 2, 1)))).sum()


KERNELS = {"python": _python, "interp": _interp, "vector": _vector, "dense": _dense}


def slowdown(mix: dict) -> float:
    """Current machine slowdown: sum of weight * mean kernel seconds / REF_S.

    1.0 is the reference speed; the weights of ``mix`` sum to 1. A kernel
    runs about ``REPS * weight`` times (at least once), so one calibration
    takes about 0.4-0.8 s whatever the mix.
    """
    total = 0.0
    for kind, weight in mix.items():
        runs = max(1, round(REPS * weight))
        start = time.perf_counter()
        for _ in range(runs):
            KERNELS[kind]()
        total += weight * (time.perf_counter() - start) / (runs * REF_S[kind])
    return total
