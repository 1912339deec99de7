"""A fixed unit of work that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds, as other tenants load the same cores, caches and memory.
Timing this unit between ops, and between set-up processes, and scaling
each wall time by the units next to it takes that drift out of the times.
The unit mixes the kinds of work the workloads do: interpreted Python over
dictionaries and tuples, numpy array arithmetic on cache-sized blocks,
sorting, and a sparse matrix product. It imports nothing from the library,
so a change to the library cannot move it.
"""

import time

import numpy as np
import scipy.sparse

# Seconds one unit takes at the reference host speed: setup_s and
# op_scaled_s report seconds on a host that runs the unit in this time.
# A round value near the unit's time on the 2-core Xeon VM the benchmark
# was written on when that host ran fast (0.08-0.14 s as its load changed).
REFERENCE_UNIT_S = 0.08


class Calibration:
    """Fixed inputs, drawn once, and the unit that runs over them."""

    def __init__(self):
        rng = np.random.default_rng(20250906)
        self.points = rng.standard_normal((4096, 3))
        self.weights = rng.random(4096)
        self.projectors = rng.standard_normal((4096, 3, 3))
        self.keys = [tuple(k) for k in
                     np.floor(self.points / 0.3).astype(int).tolist()]
        # 8 entries a row, built as CSR directly: the inputs stay a few MiB,
        # well below any op's own peak, so that peak_rss_mib is the op's.
        rows, cols, per_row = 20_000, 2000, 8
        self.matrix = scipy.sparse.csr_matrix(
            (rng.standard_normal(rows * per_row),
             rng.integers(0, cols, rows * per_row, dtype=np.int32),
             np.arange(0, rows * per_row + 1, per_row, dtype=np.int32)),
            shape=(rows, cols),
        )
        self.vector = rng.standard_normal(cols)

    def python_part(self):
        total = 0
        for _ in range(8):
            table = {}
            for key in self.keys:
                table[key] = table.get(key, 0) + 1
            for key, count in table.items():
                total += count * (key[0] - key[1] + key[2])
        return total

    def numpy_part(self):
        pts, w, proj = self.points, self.weights, self.projectors
        acc = 0.0
        for c in range(0, len(pts), 512):
            q = pts[c:c + 32]
            a = pts[c:c + 512]
            diff = a[None, :, :] - q[:, None, :]
            r = np.sqrt(np.einsum("gmi,gmi->gm", diff, diff))
            k = np.exp(-r)
            acc += float(np.einsum("m,gm->", w[c:c + 512], k))
            acc += float(np.einsum("gm,mij,gmj->", k * w[c:c + 512],
                                   proj[c:c + 512], diff))
        keys = np.floor(pts / 0.2).astype(np.int64)
        acc += float(np.lexsort(keys.T[::-1])[:8].sum())
        return acc

    def sparse_part(self):
        total = 0.0
        for _ in range(10):
            y = self.matrix @ self.vector
            total += float((self.matrix.T @ y).sum())
        return total

    def unit(self):
        """Seconds one pass over all parts takes now."""
        start = time.perf_counter()
        for _ in range(3):
            self.python_part()
            self.numpy_part()
            self.sparse_part()
        return time.perf_counter() - start
