import numpy as np
import pytest

from varmcf import cells as cells_module
from varmcf.cells import CellList, displacements


def _case(n):
    rng = np.random.default_rng(n)
    centres = rng.uniform(-1.0, 1.0, size=(300, n))
    centres[:10] = centres[10:20]  # duplicate centres
    probes = np.vstack([rng.uniform(-1.5, 1.5, size=(200, n)),
                        centres[:5], np.full((1, n), 40.0)])
    return centres, probes, 0.25


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("budget", [1, 50, 10**9])
def test_runs_find_exactly_the_pairs_within_reach(n, budget):
    centres, probes, reach = _case(n)
    cells = CellList(centres, reach)
    dist_sq = np.sum((probes[:, None] - centres[None]) ** 2, axis=2)
    expected = {tuple(p) for p in np.argwhere(dist_sq <= reach**2)}
    visited, found = [], set()
    for run, indptr, pos, _ in cells.runs(probes, budget):
        visited.extend(run)
        for row, probe in enumerate(run):
            row_pos = pos[indptr[row]:indptr[row + 1]]
            assert np.all(np.diff(row_pos) > 0)
            found.update((probe, g) for g in cells.order[row_pos])
    assert sorted(visited) == list(range(len(probes)))
    assert found == expected


@pytest.mark.parametrize("n", [2, 3])
def test_runs_yield_each_pairs_squared_distance(n):
    # every row lists its centres in increasing sorted position, with the
    # square of the displacement centre - probe summed axis by axis, and
    # ``displacements`` rounds that displacement as the search did
    centres, probes, reach = _case(n)
    cells = CellList(centres, reach)
    sorted_centres = centres[cells.order]
    rows = 0
    for run, indptr, pos, dist_sq in cells.runs(probes, 50):
        assert dist_sq.shape == pos.shape
        diff = displacements(cells.columns, pos, probes[run], np.diff(indptr))
        for row, probe in enumerate(run):
            span = slice(indptr[row], indptr[row + 1])
            assert np.all(np.diff(pos[span]) > 0)
            expected = sorted_centres[pos[span]] - probes[probe]
            expected_sq = np.zeros(len(expected))
            for k in range(n):
                expected_sq += expected[:, k] * expected[:, k]
            assert np.array_equal(diff[:, span], expected.T)
            assert np.array_equal(dist_sq[span], expected_sq)
            rows += span.stop > span.start
    dist_sq = np.sum((probes[:, None] - centres[None]) ** 2, axis=2)
    assert rows == np.sum(np.any(dist_sq <= reach**2, axis=1)) > 50


def _brute_force_runs(cells, probes, budget):
    """The runs of ``CellList.runs`` from every centre's block, one probe at
    a time: a probe inside the padded grid takes, in increasing sorted
    position, the centres whose block lies within w blocks of its own on
    every axis; probes are visited by stable block key, outside ones (key
    -1) first, and a run ends before the candidate count would exceed the
    budget unless it holds a single probe. Also returns which probes are
    inside the grid and their candidate counts."""
    w = cells_module._BLOCK_SPLIT
    n = probes.shape[1]
    sorted_centres = cells.columns.T
    blocks = np.floor((sorted_centres - cells.origin) / cells.side)
    t = np.floor((probes - cells.origin) / cells.side)
    inside = np.all((t >= w) & (t < cells.shape - w), axis=1)
    keys = np.where(inside, t.astype(np.int64) @ cells.strides, -1)
    candidates = [
        np.flatnonzero(np.all(np.abs(blocks - t[p]) <= w, axis=1))
        if inside[p] else np.array([], dtype=np.int64)
        for p in range(len(probes))
    ]
    visit = list(np.argsort(keys, kind="stable"))
    runs = []
    while visit:
        run = [visit.pop(0)]
        count = len(candidates[run[0]])
        while visit and count + len(candidates[visit[0]]) <= budget:
            count += len(candidates[visit[0]])
            run.append(visit.pop(0))
        indptr, pos, dist_sq = [0], [], []
        for p in run:
            at = candidates[p]
            d = sorted_centres[at] - probes[p]
            sq = np.zeros(len(at))
            for k in range(n):
                sq += d[:, k] * d[:, k]
            near = sq <= cells.reach**2
            pos.append(at[near])
            dist_sq.append(sq[near])
            indptr.append(indptr[-1] + np.sum(near))
        runs.append((np.array(run), np.array(indptr), np.concatenate(pos),
                     np.concatenate(dist_sq)))
    return runs, inside, np.array([len(c) for c in candidates])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("budget", [1, 50, 10**9])
def test_runs_planned_from_occupied_blocks_match_brute_force(n, budget):
    # centres with a hole around the origin, so that some probes inside the
    # grid see only empty blocks, duplicate centres, probes off the grid
    rng = np.random.default_rng(10 + n)
    centres = rng.uniform(-1.0, 1.0, size=(400, n))
    centres = centres[np.linalg.norm(centres, axis=1) > 0.6]
    centres[:10] = centres[10:20]
    probes = np.vstack([rng.uniform(-1.5, 1.5, size=(150, n)),
                        rng.uniform(-0.1, 0.1, size=(3, n)), centres[:5],
                        np.full((1, n), 40.0), np.full((1, n), -40.0)])
    cells = CellList(centres, 0.25)
    expected, inside, counts = _brute_force_runs(cells, probes, budget)
    assert not inside.all() and np.any(inside & (counts == 0))
    found = list(cells.runs(probes, budget))
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
