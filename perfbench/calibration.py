"""A fixed reference computation that shares no code with becphase.

On a shared 2-core virtual machine (Python 3.11, numpy 2.4 with OpenBLAS)
the same op ran up to 1.8 times slower for tens of seconds at a time, in
process CPU time as much as in wall time. The benchmark therefore times this
kernel next to every op and reports op latency in units of it. The kernel
mixes the kinds of work the layers do, so that a slow phase of the machine
stretches both alike; over ten seeds it cut the spread of the median op time
on evolve_dense from 35% to 5%.
"""

from __future__ import annotations

import time

import numpy as np


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        h = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
        self.h = h + h.conj().swapaxes(1, 2)
        self.t = np.linspace(0.0, 6.0, 200)
        self.theta = np.linspace(0.0, 40.0, 200)
        self.values = rng.standard_normal(3000)

    def seconds(self) -> float:
        start = time.perf_counter()
        # Batched 4x4 eigh, as in eigen_path.
        np.linalg.eigh(self.h)
        # One small LAPACK call after another, as in concurrence_wootters.
        for m in range(150):
            _, vecs = np.linalg.eigh(self.h[m])
            np.linalg.svd(vecs @ self.h[m], compute_uv=False)
        # Complex phases over a time-by-Fock grid, as in oracle_rho_path.
        np.exp(-1j * self.t[:, None] * self.theta[None, :])
        # 17-digit float formatting, as in emit.
        ",".join(f"{x:.17g}" for x in self.values)
        return time.perf_counter() - start
