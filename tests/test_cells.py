import numpy as np
import pytest

from varmcf.cells import CellList


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("budget", [1, 50, 10**9])
def test_runs_find_exactly_the_pairs_within_reach(n, budget):
    rng = np.random.default_rng(n)
    centres = rng.uniform(-1.0, 1.0, size=(300, n))
    centres[:10] = centres[10:20]  # duplicate centres
    probes = np.vstack([rng.uniform(-1.5, 1.5, size=(200, n)),
                        centres[:5], np.full((1, n), 40.0)])
    reach = 0.25
    cells = CellList(centres, reach)
    dist_sq = np.sum((probes[:, None] - centres[None]) ** 2, axis=2)
    expected = {tuple(p) for p in np.argwhere(dist_sq <= reach**2)}
    visited, found = [], set()
    for run, indptr, groups in cells.runs(probes, budget):
        visited.extend(run)
        for row, probe in enumerate(run):
            row_groups = groups[indptr[row]:indptr[row + 1]]
            assert np.all(np.diff(row_groups) > 0)
            found.update((probe, g) for g in row_groups)
    assert sorted(visited) == list(range(len(probes)))
    assert found == expected

