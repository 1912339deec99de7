"""What importing the package loads: no scipy module and no
concurrent.futures. scipy.sparse loads only when the per-pair curvature
path or a bounded-Lipschitz distance is computed, and scipy.optimize only
for the latter; the curvature of a volumetric varifold at its own
quadrature nodes loads no scipy at all, and an Angenent oval trajectory
only scipy.special, for its perimeters. And what the package exports:
every name it lists resolves."""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import pytest
from conftest import runner_env

import varmcf

# Modules the package must not load on import.
LAZY = """
lazy = lambda: sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" or m == "concurrent.futures"
)
"""

IMPORT_CHILD = LAZY + """
import json, sys
import varmcf
after_package = lazy()
import varmcf.experiments
after_runner = lazy()
import scipy.optimize
same = varmcf.metrics.linprog is scipy.optimize.linprog
print(json.dumps([after_package, after_runner, same]))
"""

# One computation per case; each leaves its results in ``values``.
CASES = {
    "node-residual": """
from varmcf import (RadialBump, ShrinkingCircle, brakke_residual,
                    default_kernel_pair)
report = brakke_residual(
    ShrinkingCircle(1.0).trajectory(0.0, 0.125, 2, 1024), 0.05,
    default_kernel_pair(2, 1), 0.4, RadialBump([0.3, 0.0], 0.2, 1.4),
    subdivisions=1,
)
values = [report.residual, *report.mass_phi, *report.curvature_terms,
          *report.transport_terms]
""",
    "sampled-curvature": """
from varmcf import (Circle, CurvatureQuery, SampledManifoldVarifold,
                    curvature_field, default_kernel_pair)
varifold = SampledManifoldVarifold(Circle(1.0).sample(256))
field = curvature_field(varifold, CurvatureQuery(default_kernel_pair(2, 1),
                                                 0.3), varifold.positions[::16])
values = [*field.values.ravel(), *field.denominators]
""",
    "bl-distance": """
from varmcf import (Circle, Mesh, SampledManifoldVarifold, atomize,
                    bounded_lipschitz_distance, discretize)
circle = Circle(1.0)
sample = circle.sample(64)
binned = discretize(sample, Mesh(*circle.bounding_box(margin=0.05), 0.2))
values = [bounded_lipschitz_distance(atomize(SampledManifoldVarifold(sample)),
                                     atomize(binned))]
""",
    "oval-trajectory": """
from varmcf import AngenentOvalFlow
values = list(AngenentOvalFlow(-2.0).trajectory(0.0, 0.5, 4, 64).masses)
""",
}

CASE_CHILD = LAZY + """
import json, sys
import varmcf
before = lazy()
exec(sys.argv[1])
print(json.dumps([before, lazy(), values]))
"""


def _child(*args, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", *args], cwd=cwd, env=runner_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy_and_no_thread_pool(tmp_path):
    after_package, after_runner, same = _child(IMPORT_CHILD, cwd=tmp_path)
    assert after_package == []
    assert after_runner == []
    assert same is True


@pytest.mark.parametrize("case, sparse", [
    ("node-residual", False),
    ("sampled-curvature", True),
    ("bl-distance", True),
])
def test_scipy_sparse_loads_only_where_used(tmp_path, case, sparse):
    before, after, values = _child(CASE_CHILD, CASES[case], cwd=tmp_path)
    assert before == []
    assert ("scipy.sparse" in after) is sparse
    if not sparse:
        assert not [m for m in after if m.startswith("scipy")]
    # the same values as in this process, where scipy is loaded already
    # (json round-trips floats exactly)
    scope = {}
    exec(CASES[case], scope)
    assert values == [float(v) for v in scope["values"]]


def test_oval_trajectory_loads_only_scipy_special(tmp_path):
    before, after, values = _child(CASE_CHILD, CASES["oval-trajectory"],
                                   cwd=tmp_path)
    assert before == []
    # of scipy's public subpackages, only scipy.special is loaded
    import scipy
    loaded = {m.split(".")[1] for m in after if m.startswith("scipy.")}
    assert loaded & set(scipy.__all__) == {"special"}
    scope = {}
    exec(CASES["oval-trajectory"], scope)
    assert values == [float(v) for v in scope["values"]]


def test_every_export_resolves():
    # each module's __all__
    for info in pkgutil.iter_modules(varmcf.__path__):
        module = importlib.import_module(f"varmcf.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"varmcf.{info.name}.{name}"
    # each name the package re-exports, which its module lists as public
    tree = ast.parse(inspect.getsource(varmcf))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            module = importlib.import_module(f"varmcf.{node.module}")
            for alias in node.names:
                assert hasattr(varmcf, alias.name), alias.name
                assert alias.name in module.__all__, \
                    f"varmcf.{node.module}.{alias.name}"
