"""Config-driven experiment runner and the ``varmcf-run`` command.

Experiments are described by INI files with an ``[experiment]`` section
naming the kind and kind-specific sections for parameters. Each run
writes three files into the output directory: ``results.csv`` (17
significant digits), ``summary.txt``, and ``manifest.json`` recording the
config digest, package version, seed, and resolved parameters, with no
timestamps so reruns are byte-identical.

Each kind has one reader that takes every option of the config, builds the
library inputs through their own constructors and returns the computation
to run; validation, the warnings of ``--validate-only`` and the run all go
through it, so they cannot disagree about a config.

Exit codes: 0 success, 2 invalid configuration, 3 mesh-kernel hypothesis
violation, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .brakke import (
    ConstantsLedger,
    GammaHypothesisError,
    RadialBump,
    _time_weights,
    brakke_residual,
    measure_curvature_consistency,
)
from .curvature import (
    CurvatureQuery,
    DenominatorTooSmall,
    approx_mean_curvature,
)
from .discretization import Mesh, discretize
from .flow import ShrinkingCircle, ShrinkingSphere
from .geometry import make_shape
from .kernels import make_kernel_pair
from .metrics import ahlfors_scan, atomize, bounded_lipschitz_distance
from .varifold import SampledManifoldVarifold

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "main",
    "run",
    "validate",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_RUNTIME = 4


class ConfigError(ValueError):
    pass


def _floats(parser, section, option):
    return [float(tok) for tok in parser.get(section, option).split()]


# How ExperimentConfig.get reads each option type, and what a bad value
# should have been.
_READERS = {
    str: (configparser.ConfigParser.get, "text"),
    int: (configparser.ConfigParser.getint, "an integer"),
    float: (configparser.ConfigParser.getfloat, "a number"),
    bool: (configparser.ConfigParser.getboolean, "a boolean"),
    list: (_floats, "space-separated numbers"),
}


class ExperimentConfig:
    """Parsed experiment description plus the raw bytes it came from."""

    def __init__(self, parser, raw_bytes, path=None):
        self.parser = parser
        self.raw_bytes = raw_bytes
        self.path = path
        self.kind = self.get("experiment", "kind")
        if self.kind is None:
            raise ConfigError(
                "config needs an [experiment] section with a kind"
            )
        self.seed = self.get("experiment", "seed", int, 0)

    @classmethod
    def load(cls, path):
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from None
        parser = configparser.ConfigParser()
        try:
            parser.read_string(raw.decode("utf-8"))
            cfg = cls(parser, raw, path)
            cfg.parameters()  # resolves every %-interpolation up front
        except (UnicodeDecodeError, configparser.Error) as err:
            raise ConfigError(f"cannot parse config: {err}") from None
        return cfg

    def get(self, section, option, cast=str, fallback=None):
        """``[section] option`` read as ``cast``; ``fallback`` when absent.

        ``cast`` is str, int, float, bool, or list for space-separated
        numbers. A value that does not read as ``cast`` is a ConfigError.
        """
        if not self.parser.has_option(section, option):
            return fallback
        read, what = _READERS[cast]
        try:
            return read(self.parser, section, option)
        except ValueError:
            raise ConfigError(
                f"[{section}] {option} must be {what}"
            ) from None

    def parameters(self):
        """Every config entry as section.option -> string, sorted."""
        out = {}
        for section in self.parser.sections():
            for option, value in self.parser.items(section):
                out[f"{section}.{option}"] = value
        return dict(sorted(out.items()))


def _required(cfg, section, option, cast=list):
    value = cfg.get(section, option, cast)
    if value is None or value == []:
        raise ConfigError(f"[{section}] {option} is required")
    return value


def _shape(cfg):
    name = _required(cfg, "shape", "name", str)
    params = {
        opt: cfg.get("shape", opt, float)
        for opt in cfg.parser.options("shape")
        if opt != "name"
    }
    try:
        return make_shape(name, **params)
    except TypeError as err:  # a parameter the shape does not take
        raise ConfigError(f"bad shape: {err}") from None


def _pair(cfg, n, d):
    name = cfg.get("kernel", "name", fallback="natural")
    exponent = cfg.get("kernel", "exponent", int, 4)
    return make_kernel_pair(name, n, d, exponent=exponent)


def _bump(cfg, n):
    section = "test-function"
    center = cfg.get(section, "center", list, [0.0] * n)
    if len(center) != n:
        raise ConfigError(f"[{section}] center must have {n} coordinates")
    return RadialBump(
        center,
        cfg.get(section, "inner_radius", float, 0.2),
        cfg.get(section, "outer_radius", float, 1.4),
    )


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _log_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# Each reader below takes every option of its kind, checks it, and returns
# (compute, warnings): compute() gives (header, rows, summary lines) and
# warnings are the non-fatal notes that --validate-only prints.


def _curvature_convergence(cfg):
    section = "curvature-convergence"
    shape = _shape(cfg)
    pair = _pair(cfg, shape.n, shape.d)
    resolution = cfg.get(section, "resolution", int, 8192)
    probes = cfg.get(section, "probes", int, 32)
    queries = [CurvatureQuery(pair, e)
               for e in _required(cfg, section, "epsilons")]

    def compute():
        estimate, pairs = measure_curvature_consistency(
            shape, resolution, pair, [q.epsilon for q in queries],
            probe_count=probes,
        )
        rows = [(eps, err, err / eps) for eps, err in pairs]
        slope = _log_slope([r[0] for r in rows], [r[1] for r in rows])
        summary = [
            f"kind = {cfg.kind}",
            f"slope = {_fmt(slope)}",
            f"consistency_estimate = {_fmt(estimate)}",
        ]
        return ("epsilon,max_error,error_over_epsilon".split(","), rows,
                summary)

    return compute, []


def _discretization_stability(cfg):
    section = "discretization-stability"
    shape = _shape(cfg)
    pair = _pair(cfg, shape.n, shape.d)
    query = CurvatureQuery(pair, _required(cfg, section, "epsilon", float))
    lo, hi = shape.bounding_box(margin=0.05)
    meshes = [Mesh(lo, hi, edge)
              for edge in _required(cfg, section, "edges")]
    resolution = cfg.get(section, "resolution", int, 65536)
    probe_count = cfg.get(section, "probes", int, 16)

    def compute():
        sample = shape.sample(resolution)
        reference = SampledManifoldVarifold(sample)
        probes = shape.sample(probe_count).positions
        h_ref = approx_mean_curvature(reference, query, probes)
        rows = []
        for mesh in meshes:
            vol = discretize(sample, mesh)
            h_vol = approx_mean_curvature(vol, query, probes)
            diff = float(np.max(np.linalg.norm(h_vol - h_ref, axis=1)))
            rows.append((vol.h, diff, diff / vol.h))
        slope = _log_slope([r[0] for r in rows], [r[1] for r in rows])
        summary = [
            f"kind = {cfg.kind}",
            f"epsilon = {_fmt(query.epsilon)}",
            f"slope = {_fmt(slope)}",
        ]
        return ("h,max_difference,difference_over_h".split(","), rows,
                summary)

    return compute, []


def _brakke_residual(cfg):
    flows = {"circle": ShrinkingCircle, "sphere": ShrinkingSphere}
    name = cfg.get("flow", "shape", fallback="circle")
    if name not in flows:
        raise ConfigError(f"unknown flow shape {name!r}")
    flow = flows[name](cfg.get("flow", "radius", float, 1.0))
    section = "brakke-residual"
    panels = cfg.get(section, "panels", int, 16)
    trajectory = flow.trajectory(
        cfg.get(section, "t_start", float, 0.0),
        cfg.get(section, "t_end", float, 0.125),
        panels,
        cfg.get(section, "resolution", int, 16384),
    )
    rule = cfg.get(section, "time_rule", fallback="simpson")
    _time_weights(trajectory.times, rule)  # checks the rule and panels
    shape0 = trajectory.shape(0)
    pair = _pair(cfg, shape0.n, shape0.d)
    phi = _bump(cfg, shape0.n)
    gamma = cfg.get(section, "gamma", float)
    enforce = cfg.get(section, "enforce_gamma", bool, True)
    # cell edge per kernel scale: explicit, or from h = eps^power
    edge = cfg.get(section, "edge", float)
    power = cfg.get(section, "h_power", float, 4.0)
    lo, hi = trajectory.bounding_box()
    scales = []
    for eps in _required(cfg, section, "epsilons"):
        query = CurvatureQuery(pair, eps)  # eps in (0, 1] before eps**power
        scale_edge = eps**power / np.sqrt(shape0.n) if edge is None else edge
        scales.append((query, Mesh(lo, hi, scale_edge)))
    warnings = [
        f"2h > gamma*eps at eps = {q.epsilon:g} "
        f"(2h = {2 * mesh.h:g}, gamma*eps = {gamma * q.epsilon:g}); "
        "the run will stop unless enforcement is off"
        for q, mesh in scales
        if gamma is not None and 2.0 * mesh.h > gamma * q.epsilon
    ]

    def compute():
        rows = []
        for query, mesh in scales:
            report = brakke_residual(
                trajectory, mesh.edge, pair, query.epsilon, phi,
                time_rule=rule, gamma=gamma, enforce_gamma=enforce,
            )
            rows.append((
                query.epsilon,
                report.h,
                report.residual,
                report.abs_residual,
                report.mass_difference,
                report.flux_integral,
                report.hypothesis_satisfied
                if report.hypothesis_satisfied is not None else "",
                report.failed_nodes,
            ))
        summary = [
            f"kind = {cfg.kind}",
            f"time_rule = {rule}",
            f"panels = {panels}",
            f"max_abs_residual = "
            f"{_fmt(max(float(r[3]) for r in rows))}",
        ]
        header = ("epsilon,h,residual,abs_residual,mass_difference,"
                  "flux_integral,hypothesis_satisfied,failed_nodes").split(",")
        return (header, rows, summary)

    return compute, warnings


def _distance_check(cfg):
    section = "distance-check"
    shape = _shape(cfg)
    resolution = cfg.get(section, "resolution", int, 256)
    mesh = Mesh(*shape.bounding_box(margin=0.05),
                cfg.get(section, "edge", float, 0.1))

    def compute():
        sample = shape.sample(resolution)
        vol = discretize(sample, mesh)
        distance = bounded_lipschitz_distance(
            atomize(SampledManifoldVarifold(sample)), atomize(vol)
        )
        bound = mesh.h * sample.total_weight()
        rows = [(mesh.h, distance, bound, bool(distance <= bound))]
        summary = [
            f"kind = {cfg.kind}",
            f"distance = {_fmt(distance)}",
            f"bound = {_fmt(bound)}",
            f"within_bound = {'yes' if distance <= bound else 'no'}",
        ]
        return ("h,distance,bound,within_bound".split(","), rows, summary)

    return compute, []


def _ahlfors_scan(cfg):
    section = "ahlfors-scan"
    shape = _shape(cfg)
    resolution = cfg.get(section, "resolution", int, 4096)
    radii = _required(cfg, section, "radii")
    if any(r <= 0 for r in radii):
        raise ConfigError("radii must be positive")
    max_probes = cfg.get(section, "max_probes", int, 64)
    if max_probes < 1:
        raise ConfigError("max_probes must be at least 1")

    def compute():
        v = SampledManifoldVarifold(shape.sample(resolution))
        scan = ahlfors_scan(v, shape.d, radii, max_probes=max_probes)
        rows = []
        for probe, radius, ball, ratio in scan:
            rows.append(tuple(probe) + (radius, ball, ratio))
        estimate = max(r[-1] for r in rows)
        header = [f"x{i + 1}" for i in range(shape.n)] + [
            "radius", "ball_mass", "ratio"
        ]
        summary = [
            f"kind = {cfg.kind}",
            f"regularity_estimate = {_fmt(estimate)}",
        ]
        return (header, rows, summary)

    return compute, []


def _constants_ledger(cfg):
    section = "constants-ledger"
    ledger = ConstantsLedger(**{
        name: _required(cfg, section, name, int if name == "d" else float)
        for name in ConstantsLedger.INPUT_FIELDS
    })

    def compute():
        rows = [(name, value) for name, value in ledger.as_dict().items()]
        summary = [
            f"kind = {cfg.kind}",
            f"combined_rate_coeff = {_fmt(ledger.combined_rate_coeff)}",
            f"weak_bound_coeff = {_fmt(ledger.weak_bound_coeff)}",
        ]
        return (["name", "value"], rows, summary)

    return compute, []


_KINDS = {
    "curvature-convergence": _curvature_convergence,
    "discretization-stability": _discretization_stability,
    "brakke-residual": _brakke_residual,
    "distance-check": _distance_check,
    "ahlfors-scan": _ahlfors_scan,
    "constants-ledger": _constants_ledger,
}


def _read(cfg):
    """(compute, warnings) for a config; ConfigError if it cannot run.

    The library constructors check their own ranges; the ValueError they
    raise while the config is read, or the OverflowError of an extreme
    ``h_power``, becomes a ConfigError.
    """
    if cfg.kind not in _KINDS:
        raise ConfigError(
            f"unknown kind {cfg.kind!r}; expected one of {', '.join(_KINDS)}"
        )
    try:
        return _KINDS[cfg.kind](cfg)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as err:
        raise ConfigError(str(err)) from None


def validate(cfg):
    """Configuration problems; empty when the config is runnable.

    Reading stops at the first problem, so at most one is listed.
    """
    try:
        _read(cfg)
    except ConfigError as err:
        return [str(err)]
    return []


def run(cfg, out_dir, seed=None):
    """Execute a config; writes results, summary, and manifest.

    Returns the process exit code. A config error is reported before any
    file is written.
    """
    try:
        compute, _ = _read(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    seed = cfg.seed if seed is None else int(seed)
    out_dir = Path(out_dir)
    try:
        header, rows, summary = compute()
    except GammaHypothesisError as err:
        print(f"hypothesis violation: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (DenominatorTooSmall, ValueError, RuntimeError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "results.csv", header, rows)
    summary = summary + [f"seed = {seed}", f"rows = {len(rows)}"]
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    manifest = {
        "config_sha256": hashlib.sha256(cfg.raw_bytes).hexdigest(),
        "kind": cfg.kind,
        "parameters": cfg.parameters(),
        "seed": seed,
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="varmcf-run",
        description="Run a varmcf experiment described by an INI config.",
    )
    parser.add_argument("config", help="path to the experiment config")
    parser.add_argument(
        "--out", default=None,
        help="output directory (default: <config stem>_out)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the seed recorded in the manifest",
    )
    parser.add_argument(
        "--validate-only", action="store_true",
        help="check the config and exit without running",
    )
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        if args.validate_only:
            _, warnings = _read(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.validate_only:
        for w in warnings:
            print(f"warning: {w}")
        print("config ok")
        return EXIT_OK
    out_dir = args.out
    if out_dir is None:
        out_dir = Path(args.config).stem + "_out"
    code = run(cfg, out_dir, seed=args.seed)
    if code == EXIT_OK:
        print(f"wrote {out_dir}/results.csv")
        print(f"wrote {out_dir}/summary.txt")
        print(f"wrote {out_dir}/manifest.json")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
