import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varmcf
from conftest import runner_env
from varmcf import __version__
from varmcf.brakke import ConstantsLedger
from varmcf.experiments import (
    ConfigError,
    ExperimentConfig,
    main,
    run,
    validate,
)

LEDGER_CONFIG = """\
[experiment]
kind = constants-ledger
seed = 7

[constants-ledger]
d = 1
ahlfors_constant = 2.1
curvature_consistency_constant = 1.0
tangent_lipschitz_constant = 1.5
kernel_floor = 0.03
mesh_kernel_ratio = 1e-4
sup_rho_deriv = 2.5
sup_rho_second = 10.0
sup_xi_deriv = 3.3
initial_mass = 6.283185307179586
horizon = 0.125
"""

DISTANCE_CONFIG = """\
[experiment]
kind = distance-check

[shape]
name = circle
radius = 1.0

[distance-check]
resolution = 64
edge = 0.2
"""

BRAKKE_CONFIG = """\
[experiment]
kind = brakke-residual

[flow]
shape = circle
radius = 1.0

[kernel]
name = natural
exponent = 4

[test-function]
center = 0.3 0.0
inner_radius = 0.2
outer_radius = 1.4

[brakke-residual]
t_start = 0.0
t_end = 0.0625
panels = 2
resolution = 512
epsilons = 0.4
{extra}
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_constants_ledger_kind_matches_library(tmp_path):
    cfg = ExperimentConfig.load(_write(tmp_path, LEDGER_CONFIG))
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    header, rows = _read_rows(out / "results.csv")
    assert header == ["name", "value"]
    got = {name: float(val) for name, val in rows}
    expected = ConstantsLedger(
        d=1, ahlfors_constant=2.1, curvature_consistency_constant=1.0,
        tangent_lipschitz_constant=1.5, kernel_floor=0.03,
        mesh_kernel_ratio=1e-4, sup_rho_deriv=2.5, sup_rho_second=10.0,
        sup_xi_deriv=3.3, initial_mass=2 * np.pi, horizon=0.125,
    ).as_dict()
    assert set(got) == set(expected)
    for name in expected:
        assert got[name] == pytest.approx(expected[name], rel=1e-15)


def test_manifest_records_digest_version_and_seed(tmp_path):
    path = _write(tmp_path, LEDGER_CONFIG)
    cfg = ExperimentConfig.load(path)
    out = tmp_path / "out"
    assert run(cfg, out, seed=42) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    import hashlib

    assert manifest["config_sha256"] == hashlib.sha256(
        path.read_bytes()
    ).hexdigest()
    assert manifest["version"] == __version__
    assert manifest["seed"] == 42
    assert manifest["kind"] == "constants-ledger"
    assert "time" not in json.dumps(manifest).lower()
    # seed defaults to the config value when not overridden
    out2 = tmp_path / "out2"
    assert run(cfg, out2) == 0
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 7


def test_distance_check_stays_within_transfer_bound(tmp_path):
    cfg = ExperimentConfig.load(_write(tmp_path, DISTANCE_CONFIG))
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    header, rows = _read_rows(out / "results.csv")
    assert header == ["h", "distance", "bound", "within_bound"]
    (h, distance, bound, within), = rows
    assert float(distance) <= float(bound)
    assert within == "1"
    assert "within_bound = yes" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("text", [
    DISTANCE_CONFIG, BRAKKE_CONFIG.format(extra="edge = 0.05"),
], ids=["distance-check", "brakke-residual"])
def test_rerun_is_byte_identical(tmp_path, text):
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(cfg, out1) == 0
    assert run(cfg, out2) == 0
    for name in ("results.csv", "summary.txt", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


AHLFORS_CONFIG = """\
[experiment]
kind = ahlfors-scan

[shape]
name = circle

[ahlfors-scan]
resolution = 512
radii = 0.5 1.0
max_probes = {max_probes}
"""


def test_ahlfors_scan_kind(tmp_path):
    text = AHLFORS_CONFIG.format(max_probes=8)
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    header, rows = _read_rows(out / "results.csv")
    assert header == ["x1", "x2", "radius", "ball_mass", "ratio"]
    assert len(rows) == 16
    summary = (out / "summary.txt").read_text()
    estimate = float(summary.split("regularity_estimate = ")[1].split()[0])
    assert 2.0 <= estimate <= 2.2


def test_curvature_convergence_kind(tmp_path):
    text = """\
[experiment]
kind = curvature-convergence

[shape]
name = circle

[curvature-convergence]
resolution = 4096
epsilons = 0.4 0.2 0.1
probes = 8
"""
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    header, rows = _read_rows(out / "results.csv")
    assert header == ["epsilon", "max_error", "error_over_epsilon"]
    errors = [float(r[1]) for r in rows]
    assert errors == sorted(errors, reverse=True)
    summary = (out / "summary.txt").read_text()
    slope = float(summary.split("slope = ")[1].split()[0])
    assert slope >= 0.8


def test_missing_section_is_config_error(tmp_path, capsys):
    text = "[experiment]\nkind = constants-ledger\n"
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    assert validate(cfg)
    assert run(cfg, tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unreadable_and_unparseable_configs(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.load("/no/such/config.ini")
    for bad in ("seed = abc", "note = 50%"):
        path = _write(tmp_path, LEDGER_CONFIG.replace("seed = 7", bad))
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)


def test_gamma_diagnostic_is_warning_not_error(tmp_path, capsys):
    text = BRAKKE_CONFIG.format(extra="gamma = 1e-4\nedge = 0.05")
    path = _write(tmp_path, text)
    assert validate(ExperimentConfig.load(path)) == []
    assert main([str(path), "--validate-only"]) == 0
    lines = capsys.readouterr().out.splitlines()
    warns = [line for line in lines if line.startswith("warning: ")]
    assert len(warns) == 1
    assert "2h > gamma*eps" in warns[0]
    assert lines[-1] == "config ok"


def test_gamma_violation_exits_three(tmp_path, capsys):
    text = BRAKKE_CONFIG.format(extra="gamma = 1e-4\nedge = 0.05")
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    assert run(cfg, tmp_path / "out") == 3
    assert "hypothesis violation" in capsys.readouterr().err


def test_brakke_residual_kind_with_enforcement_off(tmp_path):
    text = BRAKKE_CONFIG.format(
        extra="gamma = 1e-4\nedge = 0.05\nenforce_gamma = false"
    )
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    out = tmp_path / "out"
    assert run(cfg, out) == 0
    header, rows = _read_rows(out / "results.csv")
    (row,) = rows
    assert header[6] == "hypothesis_satisfied"
    assert row[6] == "0"
    assert np.isfinite(float(row[2]))


def test_threads_env_does_not_change_output(tmp_path, monkeypatch):
    text = BRAKKE_CONFIG.format(extra="edge = 0.05")
    cfg = ExperimentConfig.load(_write(tmp_path, text))
    monkeypatch.delenv("VARMCF_THREADS", raising=False)
    out1 = tmp_path / "serial"
    assert run(cfg, out1) == 0
    monkeypatch.setenv("VARMCF_THREADS", "2")
    out2 = tmp_path / "threaded"
    assert run(cfg, out2) == 0
    assert (out1 / "results.csv").read_bytes() == \
        (out2 / "results.csv").read_bytes()


def _cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "varmcf.experiments", *args],
        cwd=tmp_path, env=runner_env(), capture_output=True, text=True,
    )


def test_cli_subprocess_imports_tree_under_test(tmp_path):
    # a stale installed varmcf must not stand in for the working tree
    proc = subprocess.run(
        [sys.executable, "-c", "import varmcf; print(varmcf.__file__)"],
        cwd=tmp_path, env=runner_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == \
        Path(varmcf.__file__).resolve()


def test_cli_success_and_defaults(tmp_path):
    path = _write(tmp_path, LEDGER_CONFIG)
    proc = _cli([str(path), "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "results.csv" in proc.stdout
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_validate_only(tmp_path):
    path = _write(tmp_path, LEDGER_CONFIG)
    proc = _cli([str(path), "--validate-only"], tmp_path)
    assert proc.returncode == 0
    assert "config ok" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
    bad = _write(tmp_path, "[experiment]\nkind = nonsense\n", "bad.ini")
    proc = _cli([str(bad), "--validate-only"], tmp_path)
    assert proc.returncode == 2
    assert "unknown kind" in proc.stderr


def test_cli_exit_codes(tmp_path):
    bad = _write(tmp_path, "[experiment]\nkind = nonsense\n", "bad.ini")
    assert _cli([str(bad)], tmp_path).returncode == 2

    gamma = _write(
        tmp_path,
        BRAKKE_CONFIG.format(extra="gamma = 1e-4\nedge = 0.05"),
        "gamma.ini",
    )
    proc = _cli([str(gamma), "--out", str(tmp_path / "g")], tmp_path)
    assert proc.returncode == 3
    assert "hypothesis violation" in proc.stderr

    # fewer than 8 probes: the probe sample itself is refused at run time
    starved = """\
[experiment]
kind = curvature-convergence

[shape]
name = circle

[curvature-convergence]
resolution = 64
epsilons = 0.02
probes = {probes}
"""
    few = _write(tmp_path, starved.format(probes=7), "few.ini")
    proc = _cli([str(few), "--out", str(tmp_path / "f")], tmp_path)
    assert proc.returncode == 4
    assert "runtime failure: resolution must be at least 8" in proc.stderr

    # probes fall between support atoms, outside every kernel ball
    between = _write(tmp_path, starved.format(probes=9), "starved.ini")
    proc = _cli([str(between), "--out", str(tmp_path / "s")], tmp_path)
    assert proc.returncode == 4
    assert "runtime failure: curvature evaluation failed" in proc.stderr


def test_cli_seed_flag_overrides_config(tmp_path):
    path = _write(tmp_path, LEDGER_CONFIG)
    out = tmp_path / "out"
    proc = _cli([str(path), "--out", str(out), "--seed", "99"], tmp_path)
    assert proc.returncode == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 99


# Each config is wrong in a way the config alone decides.
BAD_CONFIGS = {
    "resolution-not-integer": """\
[experiment]
kind = curvature-convergence

[shape]
name = circle

[curvature-convergence]
resolution = abc
epsilons = 0.4
""",
    "gamma-not-number": BRAKKE_CONFIG.format(extra="gamma = lots"),
    "center-not-numbers": BRAKKE_CONFIG.replace(
        "center = 0.3 0.0", "center = 0.3 zero"
    ).format(extra=""),
    "t-start-after-t-end": BRAKKE_CONFIG.replace(
        "t_start = 0.0", "t_start = 0.1"
    ).format(extra=""),
    "zero-edge": DISTANCE_CONFIG.replace("edge = 0.2", "edge = 0"),
    "unknown-kernel": BRAKKE_CONFIG.replace(
        "name = natural", "name = gauss"
    ).format(extra=""),
    "enforce-not-boolean": BRAKKE_CONFIG.format(extra="enforce_gamma = maybe"),
    "edge-overflows": BRAKKE_CONFIG.format(extra="h_power = -2000"),
    "zero-max-probes": AHLFORS_CONFIG.format(max_probes=0),
    "negative-max-probes": AHLFORS_CONFIG.format(max_probes=-3),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_two_before_writing(tmp_path, capsys, name):
    path = _write(tmp_path, BAD_CONFIGS[name])
    cfg = ExperimentConfig.load(path)
    assert validate(cfg)
    out = tmp_path / "out"
    assert run(cfg, out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    proc = _cli([str(path), "--validate-only"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # the check reports the very problem the run stops on
    assert proc.stderr == err
