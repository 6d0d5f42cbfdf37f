"""A fixed reference computation that measures how fast the machine is now.

On a shared VM other tenants slow this process down by 30-60% for seconds to
minutes at a time, and a slow period can cover a whole run.  Raw times then
say more about the host than about evopore.  The benchmark therefore runs
this kernel right after every timed solver step and reports each time scaled
to the kernel's nominal speed:

    reported = raw * NOMINAL_S / kernel time measured next to it

The kernel does the kinds of work a step does, at the sizes of the steps'
arrays: sparse matrix-vector products on 5-point Laplacians of 10k and 40k
nodes, and a scatter-add.  It uses only numpy and scipy, never evopore, so a
change to evopore cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Close to the kernel's fastest run on a 2-core Intel Xeon VM (scipy-openblas
# 0.3.31, one thread).  Any fixed value would do: it only sets the scale.
NOMINAL_S = 2.0e-3


class Kernel:
    """Built once per process; each call does the same work."""

    SIZES = ((100, 20), (200, 5))    # (grid side, matrix-vector products)
    SCATTER = 30_000                 # entries added into the smaller grid

    def __init__(self):
        rng = np.random.default_rng(0)
        self.parts = []
        for n, products in self.SIZES:
            matrix = sp.diags_array([-1.0, -1.0, 4.0, -1.0, -1.0], offsets=[-n, -1, 0, 1, n],
                                    shape=(n * n, n * n), format="csr")
            self.parts.append((matrix, rng.random(n * n), products))
        self.index = rng.integers(0, self.SIZES[0][0] ** 2, self.SCATTER)
        self()

    def __call__(self) -> float:
        """Run the kernel once; its duration in seconds."""
        t0 = time.perf_counter()
        for matrix, x, products in self.parts:
            y = x.copy()
            for _ in range(products):
                y = matrix @ y
                y *= 0.2
        z = np.zeros_like(y)
        np.add.at(z, self.index, y[self.index])
        return time.perf_counter() - t0
