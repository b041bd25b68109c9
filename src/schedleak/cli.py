"""Command-line front end: solve policies, run experiments, emit data files.

Subcommands::

    schedleak solve    --config cfg.json --out DIR [--seed N] [--workers N]
    schedleak simulate --config cfg.json --out DIR [--seed N] [--workers N]
    schedleak pareto   --config cfg.json --out DIR [--seed N] [--workers N]

The config is a single JSON document with sections ``model``, ``planner``,
``defense``, ``simulation`` and ``output``; unknown keys anywhere are hard
errors so sweep typos fail fast.  Exit codes: 0 success, 2 config error,
3 numerical failure.  Set SCHEDLEAK_LOG=debug|info|warning to control
verbosity.  ``pareto`` solves only the first ``theta`` and ``beta`` of
the grid, in one process: it ignores ``--workers``.

Every run writes a ``manifest.json`` with the resolved grid, seed, tool
version and content hashes of emitted artifacts, sufficient to reproduce
each output file exactly.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, policy, simulate
from .markov import NumericalError, Scenario
from .simulate import EpisodeConfig, PolicyKind

log = logging.getLogger("schedleak")


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "model": {"scenario": "estimation", "num_states": 30, "theta": 32.0},
    "planner": {"gamma": 0.95, "beta": 1.0, "t_max": 10, "value_tolerance": 1e-9},
    "defense": {"l_low": 0.4, "l_high": 0.6, "target_entropy_fraction": 0.5,
                "ade_l_low_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
                "pde_fraction_grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                "forecast_mode": "interval_max"},
    "simulation": {"n_steps": 200, "n_episodes": 10, "d_gap": 5,
                   "policies": ["MPI", "PP", "ADE", "PDE"], "epsilon": 0.0,
                   "trace": False, "seed": 0},
    "output": {"dir": "out", "prefix": "schedleak"},
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    cfg = {}
    for section, defaults in _DEFAULTS.items():
        body = raw.pop(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        unknown = set(body) - set(defaults)
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in {section!r}: {sorted(unknown)}")
        merged = dict(defaults)
        merged.update(body)
        cfg[section] = merged
    if raw:
        raise ConfigError(f"{path}: unknown section(s): {sorted(raw)}")
    cfg["_path"] = str(path)
    return cfg


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _whole(value, key: str) -> int:
    """A JSON whole number (an int, or a float with an integral value) as an
    int; anything else is a config error that names ``key``."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be a whole number, got {value!r}")


def _scenario(cfg: dict) -> Scenario:
    name = str(cfg["model"]["scenario"]).lower()
    try:
        return Scenario(name)
    except ValueError as exc:
        raise ConfigError(f"unknown scenario {name!r}") from exc


def _base_episode_config(cfg: dict, theta: float, beta: float, d_gap: int,
                         seed: int, kind: PolicyKind) -> EpisodeConfig:
    try:
        # planner.value_tolerance is accepted and checked but read by nothing:
        # policy iteration's fixed improvement margin, 1e-11, gives the result
        # of every value at or above it
        tolerance = float(cfg["planner"]["value_tolerance"])
        if not tolerance >= 1e-11:
            raise ValueError("planner.value_tolerance must be at least 1e-11, the "
                             f"improvement margin of policy iteration; got {tolerance!r}")
        # defense.forecast_mode is accepted with its one value and read by nothing:
        # the defense always forecasts the peak over the hypothetical segment
        forecast = cfg["defense"]["forecast_mode"]
        if forecast != "interval_max":
            raise ValueError('defense.forecast_mode must be "interval_max", the one '
                             f"forecast the defense makes; got {forecast!r}")
        return EpisodeConfig(
            scenario=_scenario(cfg),
            theta=float(theta),
            beta=float(beta),
            gamma=float(cfg["planner"]["gamma"]),
            t_max=_whole(cfg["planner"]["t_max"], "planner.t_max"),
            d_gap=_whole(d_gap, "simulation.d_gap"),
            n_steps=_whole(cfg["simulation"]["n_steps"], "simulation.n_steps"),
            seed=seed,
            policy_kind=kind,
            num_states=_whole(cfg["model"]["num_states"], "model.num_states"),
            l_low=float(cfg["defense"]["l_low"]),
            l_high=float(cfg["defense"]["l_high"]),
            target_entropy_fraction=float(cfg["defense"]["target_entropy_fraction"]),
            epsilon=float(cfg["simulation"]["epsilon"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _policy_cache_key(cfg: dict, theta: float, beta: float, kind: str) -> str:
    blob = json.dumps({
        "scenario": cfg["model"]["scenario"],
        "num_states": cfg["model"]["num_states"],
        "theta": theta, "beta": beta,
        "planner": cfg["planner"], "kind": kind,
        "pde_fraction": cfg["defense"]["target_entropy_fraction"],
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _solve_cell(payload: tuple[EpisodeConfig, float]) -> dict[str, str]:
    """Serialize every policy kind for one grid cell; returns name->JSON."""
    ep, fraction = payload
    sol = simulate.CellSolution(ep)
    return {
        "MPI": policy.policy_to_json(sol.goc),
        "PP": policy.policy_to_json(sol.pp_policy),
        "PDE": policy.policy_to_json(sol.policy(PolicyKind.PDE, fraction)),
    }


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _manifest(out_dir: Path, cfg: dict, seed: int, artifacts: dict[str, str]) -> None:
    doc = {
        "tool": "schedleak",
        "version": __version__,
        "master_seed": seed,
        "config_path": cfg.get("_path", ""),
        "output_dir": str(out_dir),
        "config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "artifacts": artifacts,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2))


def cmd_solve(cfg: dict, out_dir: Path, seed: int, workers: int) -> int:
    thetas = _as_list(cfg["model"]["theta"])
    betas = _as_list(cfg["planner"]["beta"])
    cells = [(t, b) for t in thetas for b in betas]
    d_gap = _as_list(cfg["simulation"]["d_gap"])[0]
    # every cell's config is checked before any cell is solved
    payloads = [(_base_episode_config(cfg, t, b, d_gap, seed, PolicyKind.MPI),
                 cfg["defense"]["target_entropy_fraction"]) for t, b in cells]
    artifacts = {}
    results = _map_cells(_solve_cell, payloads, workers)
    for (theta, beta), payload in zip(cells, results):
        for kind, text in payload.items():
            name = (f"policy_{kind}_theta{theta:g}_beta{beta:g}_"
                    f"{_policy_cache_key(cfg, theta, beta, kind)}.json")
            artifacts[name] = _write(out_dir / name, text)
            log.info("wrote %s", name)
    _manifest(out_dir, cfg, seed, artifacts)
    return 0


def _simulate_cell_task(payload):
    local, theta, beta, d_gaps, kind_names, n_episodes = payload
    kinds = [PolicyKind(k) for k in kind_names]
    return simulate.sweep(local, [theta], [beta], d_gaps, kinds, n_episodes)


def cmd_simulate(cfg: dict, out_dir: Path, seed: int, workers: int) -> int:
    thetas = _as_list(cfg["model"]["theta"])
    betas = _as_list(cfg["planner"]["beta"])
    d_gaps = [_whole(d, "simulation.d_gap") for d in _as_list(cfg["simulation"]["d_gap"])]
    kind_names = [PolicyKind(k).value for k in cfg["simulation"]["policies"]]
    n_episodes = _whole(cfg["simulation"]["n_episodes"], "simulation.n_episodes")
    # every cell's config is checked before any cell is solved
    payloads = [(_base_episode_config(cfg, t, b, d_gaps[0], seed, PolicyKind(kind_names[0])),
                 t, b, d_gaps, kind_names, n_episodes) for t in thetas for b in betas]
    base = payloads[0][0]
    rows = [row for chunk in _map_cells(_simulate_cell_task, payloads, workers)
            for row in chunk]
    artifacts = {}
    csv_text = simulate.rows_to_csv(rows)
    artifacts["aggregate.csv"] = _write(out_dir / "aggregate.csv", csv_text)
    artifacts["aggregate.json"] = _write(
        out_dir / "aggregate.json", json.dumps(rows, sort_keys=True, indent=2))
    if cfg["simulation"]["trace"]:
        for kind in map(PolicyKind, kind_names):
            ep = dataclasses.replace(base, policy_kind=kind)
            record, _ = simulate.run_episode(ep)
            buf = io.StringIO()
            record.write_csv(buf)
            name = f"trace_{kind.value}.csv"
            artifacts[name] = _write(out_dir / name, buf.getvalue())
    _manifest(out_dir, cfg, seed, artifacts)
    log.info("wrote %d aggregate rows", len(rows))
    return 0


def cmd_pareto(cfg: dict, out_dir: Path, seed: int, workers: int) -> int:
    thetas = _as_list(cfg["model"]["theta"])
    betas = _as_list(cfg["planner"]["beta"])
    d_gap = _as_list(cfg["simulation"]["d_gap"])[0]
    base = _base_episode_config(cfg, thetas[0], betas[0], d_gap, seed,
                                PolicyKind.MPI)
    n_episodes = _whole(cfg["simulation"]["n_episodes"], "simulation.n_episodes")
    log.info("frontier for theta=%g, beta=%g (the first of the grid)",
             base.theta, base.beta)
    try:  # pareto_sweep checks every grid point before it solves the cell
        rows = simulate.pareto_sweep(
            base,
            ade_lows=cfg["defense"]["ade_l_low_grid"],
            pde_fractions=cfg["defense"]["pde_fraction_grid"],
            n_episodes=n_episodes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    artifacts = {}
    artifacts["frontier.csv"] = _write(out_dir / "frontier.csv",
                                       simulate.rows_to_csv(rows))
    kept = simulate.pareto_filter(rows)
    artifacts["frontier_filtered.csv"] = _write(out_dir / "frontier_filtered.csv",
                                                simulate.rows_to_csv(kept))
    _manifest(out_dir, cfg, seed, artifacts)
    log.info("frontier: %d points, %d undominated", len(rows), len(kept))
    return 0


def _map_cells(fn, payloads, workers: int):
    """Map a module-level function over picklable payloads, maybe in a pool."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedleak",
        description="timing side-channel experiments for pull-based scheduling")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("solve", "solve and serialize policies"),
                           ("simulate", "run episodes and emit aggregates"),
                           ("pareto", "sweep defense parameters into a frontier "
                                      "for the first theta and beta of the grid, "
                                      "in one process (--workers is ignored)")):
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("SCHEDLEAK_LOG", "warning").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else _whole(cfg["simulation"]["seed"],
                                                              "simulation.seed")
        cfg["simulation"]["seed"] = seed
        out_dir = Path(args.out if args.out is not None else cfg["output"]["dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {"solve": cmd_solve, "simulate": cmd_simulate,
                   "pareto": cmd_pareto}[args.command]
        return handler(cfg, out_dir, seed, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
