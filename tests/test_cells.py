import numpy as np
import pytest

from varmcf.cells import CellList


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
    for run, indptr, pos, _, _ in cells.runs(probes, budget):
        visited.extend(run)
        for row, probe in enumerate(run):
            row_pos = pos[indptr[row]:indptr[row + 1]]
            assert np.all(np.diff(row_pos) > 0)
            found.update((probe, g) for g in cells.order[row_pos])
    assert sorted(visited) == list(range(len(probes)))
    assert found == expected


@pytest.mark.parametrize("n", [2, 3])
def test_runs_yield_each_pairs_displacement_and_squared_distance(n):
    # every row lists its centres in increasing sorted position, with the
    # displacement centre - probe and its square summed axis by axis
    centres, probes, reach = _case(n)
    cells = CellList(centres, reach)
    sorted_centres = centres[cells.order]
    rows = 0
    for run, indptr, pos, diff, dist_sq in cells.runs(probes, 50):
        assert diff.shape == (n, len(pos)) and dist_sq.shape == (len(pos),)
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
