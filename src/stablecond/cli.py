"""Configuration-driven experiment runner.

Configs are flat ``key = value`` files (``#`` comments allowed); the
resolved configuration with every default made explicit is emitted as
JSON next to the results, and feeding that JSON back through ``run``
reproduces the same artifacts byte for byte.  Every key can be
overridden by an environment variable ``STABLECOND_<KEY>``.

Exit codes: 0 success, 2 the experiment ran but its theory check failed,
1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks as chk
from . import condition as cond
from . import geometry as geo
from .potential import StableParams

ENV_PREFIX = "STABLECOND_"

# key -> (parser-kind, default); None defaults mean "must be supplied or
# derived"; list-like values are stored as lists in the resolved config
_SCHEMA: dict[str, tuple[str, object]] = {
    "experiment": ("choice", None),
    "alpha": ("float", None),
    "d": ("int", None),
    "caps": ("caps", []),
    "subcaps": ("caps", []),
    "plane_normal": ("vector", []),
    "plane_shape": ("str", "ball"),
    "plane_center": ("vector", []),
    "plane_radius": ("float", 1.0),
    "plane_lo": ("vector", []),
    "plane_hi": ("vector", []),
    "sub_plane_center": ("vector", []),
    "sub_plane_radius": ("float", 0.0),
    "x0": ("vector", []),
    "eps_grid": ("vector", [0.2, 0.1, 0.05, 0.025]),
    "n_paths": ("int", 10_000),
    "h": ("float", 0.0),           # 0 means: derive from eps / h_rule
    "h_rule": ("float", 8.0),
    "r_far": ("float", 50.0),
    "horizon": ("float", 0.0),     # 0 means: 10 * r_far^alpha (reversal: 30)
    "t": ("float", 0.5),
    "window_f": ("window", []),
    "window_g": ("window", []),
    "r_exit": ("float", 2.0),
    "n_bins": ("int", 8),
    "clip": ("float", 0.5),
    "seed": ("int", None),         # omitted: drawn from entropy, recorded
    "workers": ("int", 1),
    "out_dir": ("str", "results"),
}


class ConfigError(ValueError):
    pass


def _parse_value(kind: str, raw: str, key: str, where: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw.strip()
        if kind == "choice":
            val = raw.strip()
            if val not in EXPERIMENTS:
                raise ConfigError(
                    f"{where}: unknown experiment {val!r}; valid names: "
                    + ", ".join(EXPERIMENTS))
            return val
        if kind in ("vector", "caps", "window") and not raw.strip():
            return []
        if kind == "vector":
            return [float(v) for v in raw.replace(",", " ").split()]
        if kind == "caps":
            caps = []
            for part in raw.split(";"):
                part = part.strip()
                if not part:
                    continue
                coords, _, rad = part.partition(":")
                if not rad:
                    raise ConfigError(f"{where}: cap needs 'center : radius'")
                caps.append(([float(v) for v in coords.split()], float(rad)))
            return caps
        if kind == "window":
            coords, _, rad = raw.partition(":")
            if not rad:
                raise ConfigError(f"{where}: window needs 'center : radius'")
            return [[float(v) for v in coords.split()], float(rad)]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value for {key!r}: {exc}") from None
    raise ConfigError(f"{where}: unknown value kind {kind}")


def parse_config(path) -> dict:
    """Read a key=value (or resolved JSON) config, apply environment
    overrides and defaults, validate, and return the resolved dict."""
    path = Path(path)
    raw: dict[str, tuple[str, str]] = {}
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        for key, val in data.items():
            raw[key] = (_unparse(val), f"{path}:{key}")
    else:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = (val.strip(), f"{path}:{lineno}")
    for key in _SCHEMA:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            raw[key] = (env, f"env {ENV_PREFIX + key.upper()}")
    return resolve_config(raw)


def _unparse(val) -> str:
    if isinstance(val, list):
        if val and isinstance(val[0], list) and len(val) == 2 and \
                not isinstance(val[0][0], list):  # window [center, radius]
            return " ".join(repr(v) for v in val[0]) + " : " + repr(val[1])
        if val and isinstance(val[0], list):      # caps [[center, radius], ...]
            return " ; ".join(
                " ".join(repr(c) for c in center) + " : " + repr(rad)
                for center, rad in val)
        return " ".join(repr(v) for v in val)
    return str(val)


def resolve_config(raw: dict[str, tuple[str, str]]) -> dict:
    cfg: dict = {}
    for key, (kind, default) in _SCHEMA.items():
        if key in raw:
            val, where = raw[key]
            cfg[key] = _parse_value(kind, val, key, where)
        else:
            cfg[key] = default
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    if cfg["experiment"] is None:
        raise ConfigError("missing required key 'experiment'")
    if cfg["experiment"] not in ("specfun-suite", "potential-suite"):
        for req in ("alpha", "d"):
            if cfg[req] is None:
                raise ConfigError(f"missing required key {req!r}")
    if cfg["seed"] is None:
        cfg["seed"] = int(np.random.SeedSequence().entropy % (2 ** 63))
    grid = cfg["eps_grid"]
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("eps_grid must be strictly decreasing")
    if cfg["experiment"] in ("hitting", "strike"):
        if not grid:
            raise ConfigError("eps_grid must not be empty")
        if len(cfg["x0"]) != cfg["d"]:
            raise ConfigError(f"x0 must have d = {cfg['d']} coordinates, "
                              f"got {len(cfg['x0'])}")
    if cfg["experiment"] == "duality":
        if cfg["h"]:
            raise ConfigError("duality draws X_t in one step and takes no h")
        for key in ("window_f", "window_g"):
            if cfg[key] and len(cfg[key][0]) != cfg["d"]:
                raise ConfigError(f"{key} center must have d = {cfg['d']} "
                                  f"coordinates, got {len(cfg[key][0])}")
    if cfg["n_paths"] < 1:
        raise ConfigError("n_paths must be >= 1")
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


def _build_sphere_set(cfg, key="caps") -> geo.CapSet | None:
    caps = cfg[key]
    if not caps:
        return None
    return geo.CapSet(tuple((tuple(c), r) for c, r in caps), cfg["d"])


def _build_plane_set(cfg) -> geo.PlanarSet | None:
    if not cfg["plane_normal"]:
        return None
    if cfg["plane_shape"] == "ball":
        center = cfg["plane_center"] or [0.0] * (cfg["d"] - 1)
        if cfg["plane_radius"] <= 0.0:
            return None
        return geo.PlanarSet.ball(cfg["plane_normal"], center, cfg["plane_radius"])
    return geo.PlanarSet.box(cfg["plane_normal"], cfg["plane_lo"], cfg["plane_hi"])


def _target_set(cfg):
    sset = _build_sphere_set(cfg)
    pset = _build_plane_set(cfg)
    if sset is None and pset is None:
        raise ConfigError("no target set: provide caps or plane_normal/...")
    return sset if sset is not None else pset


def _params(cfg) -> StableParams:
    return StableParams(cfg["alpha"], cfg["d"])


def _grid_options(cfg) -> dict:
    """Keyword arguments that hitting and strike share."""
    return dict(h=cfg["h"] or None, h_rule=cfg["h_rule"], seed=cfg["seed"],
                workers=cfg["workers"], r_far=cfg["r_far"],
                horizon=cfg["horizon"] or None)


def _hitting(cfg) -> cond.Report:
    return cond.hitting_experiment(
        _params(cfg), _target_set(cfg), cfg["x0"], cfg["eps_grid"],
        cfg["n_paths"], **_grid_options(cfg))


def _strike(cfg) -> cond.Report:
    p = _params(cfg)
    big = _target_set(cfg)
    subs = _build_sphere_set(cfg, "subcaps")
    if subs is None and cfg["sub_plane_radius"] > 0.0:
        subs = geo.PlanarSet.ball(
            cfg["plane_normal"],
            cfg["sub_plane_center"] or [0.0] * (cfg["d"] - 1),
            cfg["sub_plane_radius"])
    if subs is None:
        raise ConfigError("strike experiment needs subcaps or sub_plane_*")
    return cond.strike_experiment(p, big, subs, cfg["x0"], cfg["eps_grid"],
                                  cfg["n_paths"], **_grid_options(cfg))


def _duality(cfg) -> cond.Report:
    p = _params(cfg)
    S = _build_sphere_set(cfg)
    if S is None or not cfg["window_f"] or not cfg["window_g"]:
        raise ConfigError("duality needs caps, window_f and window_g")
    wf = cond.Window(tuple(cfg["window_f"][0]), cfg["window_f"][1])
    wg = cond.Window(tuple(cfg["window_g"][0]), cfg["window_g"][1])
    return cond.duality_experiment(p, S, wf, wg, cfg["t"], cfg["n_paths"],
                                   seed=cfg["seed"], workers=cfg["workers"])


def _reversal(cfg) -> cond.Report:
    p = _params(cfg)
    S = _build_sphere_set(cfg)
    if S is None:
        raise ConfigError("reversal needs caps")
    return cond.reversal_experiment(
        p, S, r_exit=cfg["r_exit"], n_paths=cfg["n_paths"],
        h=cfg["h"] or 0.02, seed=cfg["seed"], workers=cfg["workers"],
        r_far=cfg["r_far"], horizon=cfg["horizon"] or 30.0,
        n_bins=cfg["n_bins"], clip=cfg["clip"])


# experiment name -> function making its report from the resolved config
_BUILDERS = {
    "specfun-suite": lambda cfg: chk.suite_report(chk.specfun_suite()),
    "potential-suite": lambda cfg: chk.suite_report(chk.potential_suite()),
    "hitting": _hitting,
    "strike": _strike,
    "duality": _duality,
    "reversal": _reversal,
}
EXPERIMENTS = tuple(_BUILDERS)


def _write(out: Path, name: str, text: str):
    (out / name).write_text(text, encoding="utf-8", newline="\n")


def _line(cells, sep: str) -> str:
    return sep.join(c if isinstance(c, str) else repr(c) for c in cells)


def _write_report(report: cond.Report, out: Path):
    """report.json, report.csv and plot.dat of one report."""
    _write(out, "report.json",
           json.dumps(report.data, indent=2, sort_keys=True, allow_nan=False)
           + "\n")
    _write(out, "report.csv", "\n".join(
        _line(row, ",") for row in (report.header, *report.rows)) + "\n")
    _write(out, "plot.dat",
           "\n".join(_line(row, " ") for row in report.plot) + "\n")


def run(cfg: dict, out_dir: str | None = None) -> int:
    """Execute the configured experiment and write its artifacts; the exit
    code is the report's verdict."""
    out = Path(out_dir or cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write(out, "resolved-config.json",
           json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    report = _BUILDERS[cfg["experiment"]](cfg)
    _write_report(report, out)
    print(report.summary)
    return 0 if report.passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablecond",
        description="Potential-theory experiments for isotropic stable processes")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("config", help="path to a key=value or resolved-JSON config")
    runp.add_argument("--workers", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.workers is not None:
            cfg["workers"] = args.workers
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run(cfg, out_dir=args.out)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
