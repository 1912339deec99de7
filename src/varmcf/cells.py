"""Fixed-radius neighbour search with a cell list (the linked-cell method).

Allen and Tildesley, *Computer Simulation of Liquids*, bin particles into
cells of the search radius so that a particle's neighbours lie in the
adjacent cells. Here the binned points (group centres) are sorted by
linear block index instead of chained in linked lists, so each run of
consecutive blocks is a contiguous range of the sorted points, found by
one ``searchsorted`` over the occupied blocks. Only numpy is needed. The
curvature engine and ``brakke.measure_tangent_lipschitz`` both search
through it.
"""

from __future__ import annotations

import itertools

import numpy as np

# Blocks per search radius along each axis. Blocks of half the radius take
# 5^(n-1) ranges per probe instead of 3^(n-1) but hold fewer candidates.
_BLOCK_SPLIT = 2


class CellList:
    """Points within ``reach`` of probes, among fixed centres.

    The centres are binned into cubic blocks of side reach / w
    (w = ``_BLOCK_SPLIT``) and stable-sorted by linear block index: centre
    ``order[i]`` is at sorted position i, and the centres of a block are
    contiguous. A centre within reach of a probe lies within w blocks of
    the probe's block on every axis; along the last axis those 2w + 1
    blocks are consecutive, so a probe's candidates are (2w + 1)^(n-1)
    contiguous ranges of the sorted centres, in increasing position. The
    grid is padded by 2w + 1 blocks, so the ranges of every probe that can
    have candidates lie inside it; other probes get none.

    Only the occupied blocks are kept: ``blocks`` holds their increasing
    keys and ``heads`` the sorted position of each one's first centre, with
    the number of centres appended. A range of keys [lo, hi] then spans
    sorted positions ``heads[searchsorted(blocks, lo)]`` up to
    ``heads[searchsorted(blocks, hi, "right")]``, exactly the positions of
    the centres keyed in it, from a table as long as the occupied blocks.
    Raises ValueError if the linear block index could overflow int64.
    """

    def __init__(self, centres, reach):
        w = _BLOCK_SPLIT
        self.reach, self.side = reach, reach / w
        n = centres.shape[1]
        # axis by axis: origin, block coordinates and grid extent
        self.origin, shape, blocks = np.empty(n), np.empty(n), []
        for k in range(n):
            column = centres[:, k]
            self.origin[k] = column.min() - (2 * w + 1) * self.side
            with np.errstate(over="ignore"):
                blocks.append(np.floor((column - self.origin[k])
                                       / self.side))
            shape[k] = blocks[k].max() + (2 * w + 1)
        if not np.prod(shape) < 2.0**62:
            raise ValueError(f"a cell list of {np.prod(shape):.3g} blocks of "
                             f"side {self.side:.3g} overflows int64 indices")
        self.shape = shape.astype(np.int64)
        self.strides = np.append(np.cumprod(self.shape[:0:-1])[::-1], 1)
        keys = blocks[-1].astype(np.int64)
        for k in range(n - 1):
            keys += blocks[k].astype(np.int64) * self.strides[k]
        self.order = np.argsort(keys, kind="stable")
        keys = keys[self.order]
        head = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.blocks = keys[head]
        self.heads = np.append(head, len(keys))
        # sorted centres, one contiguous array per axis
        self.columns = np.empty((n, len(centres)))
        for k in range(n):
            np.take(centres[:, k], self.order, out=self.columns[k])
        axes = itertools.product(range(-w, w + 1), repeat=n - 1)
        # first block of each range, relative to the probe's block
        self.first = np.array(list(axes), dtype=np.int64).reshape(
            -1, n - 1) @ self.strides[:-1] - w

    def runs(self, points, budget, size=1):
        """Visit the probes in block order, in runs of at most ``budget``
        candidates times ``size`` (or one probe).

        Yields (run, indptr, pos, dist_sq): the run's probe indices, its
        (probe, centre) pairs within reach as CSR structure over sorted
        positions (``order[pos]`` are the centres), each row increasing and
        set by its probe alone, and each pair's ``squared_distances``. The
        probes of one block share its candidate ranges, planned once per
        block from the occupied blocks.
        """
        if not len(points):
            return
        w = _BLOCK_SPLIT
        with np.errstate(over="ignore"):
            t = np.floor((points - self.origin) / self.side)
        inside = np.all((t >= w) & (t < self.shape - w), axis=1)
        lin = np.where(inside[:, None], t, 0.0).astype(np.int64) @ self.strides
        lin[~inside] = -1
        order = np.argsort(lin, kind="stable")
        lin = lin[order]
        # probes of one block share its candidate ranges
        first = np.r_[True, lin[1:] != lin[:-1]]
        block = np.cumsum(first) - 1
        lo = lin[first][:, None] + self.first
        starts = self.heads[np.searchsorted(self.blocks, lo, side="left")]
        lo += 2 * w
        ends = self.heads[np.searchsorted(self.blocks, lo, side="right")]
        del lo  # not held while the runs are built
        ends[lin[first] < 0] = starts[lin[first] < 0]
        total = np.cumsum((ends - starts).sum(axis=1)[block] * size)
        a = 0
        while a < len(points):
            before = total[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(total, before + budget,
                                               side="right")))
            run = order[a:b]
            yield (run, *self._pairs(points[run], starts[block[a:b]],
                                     ends[block[a:b]]))
            a = b

    def _pairs(self, points, starts, ends):
        """The (probe, centre) pairs within reach among the candidates."""
        lengths = ends - starts
        flat = lengths.ravel()
        counts = lengths.sum(axis=1)
        # position of each candidate among the sorted centres
        at = np.arange(flat.sum()) + np.repeat(
            starts.ravel() - np.cumsum(flat) + flat, flat)
        dist_sq = squared_distances(self.columns, at, points, counts)
        near = np.flatnonzero(dist_sq <= self.reach**2)
        indptr = np.searchsorted(near, np.r_[0, np.cumsum(counts)])
        return indptr, np.take(at, near), np.take(dist_sq, near)


def squared_distances(columns, at, points, counts):
    """The squared distances of ``columns[:, at]`` to the points, each
    point repeated ``counts`` times, summed axis by axis: the one rounding
    of a squared distance in the search and the engine. Each axis's
    gathered buffer takes its difference and square in place, so no
    displacement array is held."""
    for k, column in enumerate(columns):
        # ``at`` is in range, and "clip" skips the bounds check of "raise"
        term = np.take(column, at, mode="clip")
        term -= np.repeat(points[:, k], counts)
        term *= term
        if k:
            dist_sq += term
        else:
            dist_sq = term  # as summed from 0.0: 0.0 + x is x for x >= 0
    return dist_sq


def displacements(columns, at, points, counts):
    """The (n, len(at)) displacements ``columns[:, at] - point``, each
    point repeated ``counts`` times, rounded as ``squared_distances``
    rounds them."""
    diff = np.empty((len(columns), len(at)))
    for k, column in enumerate(columns):
        # "clip" also skips the buffered copy "raise" makes for ``out``
        np.take(column, at, out=diff[k], mode="clip")
        diff[k] -= np.repeat(points[:, k], counts)
    return diff
