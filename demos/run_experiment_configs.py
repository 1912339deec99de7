"""Drive the experiment runner from Python.

The same configs work with the varmcf-run command line tool. Outputs
are deterministic: rerunning a config reproduces every byte.
"""

import pathlib
import tempfile

from varmcf.experiments import ExperimentConfig, run, validate

CONFIG = """\
[experiment]
kind = curvature-convergence

[shape]
name = circle

[curvature-convergence]
resolution = 4096
epsilons = 0.4 0.2 0.1
probes = 16
"""

with tempfile.TemporaryDirectory(prefix="varmcf-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    cfg_path = workdir / "convergence.ini"
    cfg_path.write_text(CONFIG)

    cfg = ExperimentConfig.load(cfg_path)
    problems = validate(cfg)
    print(f"validate: {problems if problems else 'ok'}")

    code = run(cfg, workdir / "out")
    print(f"exit status {code}")
    print((workdir / "out" / "results.csv").read_text())
    print((workdir / "out" / "summary.txt").read_text())

    # rerun and compare bytes
    code = run(cfg, workdir / "again")
    same = (workdir / "out" / "results.csv").read_bytes() == \
        (workdir / "again" / "results.csv").read_bytes()
    print(f"rerun byte-identical: {same}")
