"""What importing the package loads: scipy.spatial and scipy.special
never, scipy.optimize only when a bounded-Lipschitz distance is solved."""

import json
import subprocess
import sys

from conftest import runner_env

CHILD = """
import json, sys
loaded = lambda: sorted(
    m for m in ("scipy.spatial", "scipy.special", "scipy.optimize")
    if m in sys.modules
)
import varmcf
after_package = loaded()
import varmcf.experiments
after_runner = loaded()
import scipy.optimize
same = varmcf.metrics.linprog is scipy.optimize.linprog
print(json.dumps([after_package, after_runner, same]))
"""


def test_import_loads_neither_scipy_spatial_nor_optimize(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tmp_path, env=runner_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    after_package, after_runner, same = json.loads(proc.stdout)
    assert after_package == []
    assert after_runner == []
    assert same is True
