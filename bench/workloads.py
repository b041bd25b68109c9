"""The benchmark's three workloads.

A pass is one complete run of a workload as its user would make it:
solve the cells (set-up), run the episodes, write the artifacts.  A
benchmark run repeats passes; pass ``i`` of a run with seed ``m`` draws its
episodes from master seed ``1000 * m + i``, so the same seed gives the same
inputs and the passes of one run differ only in their episodes.

The checks in ``checks.py`` run after every timed pass has finished.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from schedleak import cli, policy, simulate
from schedleak.markov import Scenario
from schedleak.simulate import EpisodeConfig, PolicyKind

import checks as C

KINDS = tuple(PolicyKind)


@dataclass
class Pass:
    """Timings, work and outputs of one pass."""

    setup_s: float = 0.0
    episodes_s: float = 0.0
    artifacts_s: float = 0.0
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    data: dict = field(default_factory=dict)
    cell_digest: str = ""     # the solved policies, the same in every pass
    files_digest: str = ""    # the artifacts written, set by the runner

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.episodes_s + self.artifacts_s

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed operation is reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


class EpisodeCapture:
    """Keeps what ``simulate.run_episode`` returns while installed.

    Sweeps return only aggregates; the checks need each episode.  The
    wrapper replaces the module attribute that ``run_batch`` and the CLI
    look up, and adds one list append per episode.
    """

    def __init__(self):
        self.items: list[tuple] = []

    def __enter__(self):
        self._orig = orig = simulate.run_episode
        items = self.items

        def run_episode(cfg, solution=None, episode_index=0):
            record, metrics = orig(cfg, solution, episode_index)
            items.append((cfg, solution, record))
            return record, metrics

        simulate.run_episode = run_episode
        return self

    def __exit__(self, *exc):
        simulate.run_episode = self._orig


def pass_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# episode checks shared by the workloads
# ---------------------------------------------------------------------------


def _regimes(sol, kind: PolicyKind, fraction: float) -> dict[str, C.Regime]:
    goc = C.Regime(sol.sigma_goc.intervals, sol.goc.control)
    pp = C.Regime(np.full(sol.model.num_states, sol.pp_period), sol.pp_policy.control)
    if kind is PolicyKind.MPI:
        return {"goc": goc}
    if kind is PolicyKind.PP:
        return {"periodic": pp}
    if kind is PolicyKind.ADE:
        return {"goc": goc, "periodic": pp}
    sigma, jp, _ = sol.pde(fraction)
    return {"goc": C.Regime(sigma.intervals, jp.control)}


class Reference:
    """Independently built model, reward and priors for one cell."""

    def __init__(self, cfg: EpisodeConfig):
        self.control = cfg.scenario is Scenario.CONTROL
        self.trans = C.ring_transitions(cfg.theta, cfg.num_states, self.control)
        self.reward = C.control_reward(cfg.num_states) if self.control else None
        self.beta = cfg.beta
        self._priors: dict = {}

    def prior(self, kind: PolicyKind, regimes: dict[str, C.Regime]) -> np.ndarray:
        # the listener's prior is the occupancy of the goal-oriented schedule
        # for ADE, and of the kind's own schedule otherwise
        reg = regimes["periodic"] if kind is PolicyKind.PP else regimes["goc"]
        key = (reg.taus.tobytes(), reg.actions.tobytes())
        if key not in self._priors:
            self._priors[key] = C.occupancy(self.trans, reg.taus,
                                            reg.actions if self.control else None)
        return self._priors[key]

    def check_model(self, sol) -> list[str]:
        dev = float(np.abs(sol.model.transitions - self.trans).max())
        return [] if dev < 1e-12 else [f"transition matrices differ by {dev:.3e}"]

    def check_episode(self, ep: C.Episode, kind: PolicyKind, regimes, gap: int):
        """Schedule, listener and (estimation PP) floor checks; per-episode stats."""
        prior = self.prior(kind, regimes)
        errs = C.check_schedule(ep, self.trans, regimes)
        found, leak, hits = C.check_listener(ep, C.Smoother(self.trans, prior, regimes), gap)
        errs += found
        if kind is PolicyKind.PP and not self.control:
            errs += C.check_pp_floor(ep, prior)
        return errs, C.episode_stats(ep, leak, hits, self.reward, self.beta)

    def check_cell(self, sol, fractions) -> list[str]:
        """Model, MPI optimality certificate and packing steps of a solved cell."""
        errs = self.check_model(sol)
        n = sol.model.num_states
        errs += C.check_optimal_policy(
            self.trans, self.reward, sol.sigma_goc.intervals, sol.goc.control,
            sol.planner.gamma, sol.planner.beta, sol.planner.t_max,
            periodic=(np.full(n, sol.pp_period), sol.pp_policy.control))
        steps = [(sig.intervals, h) for sig, h in sol.pde_steps()]
        errs += C.check_packing(steps, {f: sol.pde(f)[0].intervals for f in fractions})
        return errs


def _cell_digest(sol, fractions) -> str:
    return _digest(policy.policy_to_json(sol.goc), policy.policy_to_json(sol.pp_policy),
                   *(policy.policy_to_json(sol.pde(f)[1]) for f in fractions))


def _check_captured(ref_of, items, rows_by_key, key_of) -> list[tuple[str, list[str]]]:
    """Check every captured episode, then each aggregate row against the
    recomputed stats of its episodes."""
    results = []
    stats: dict = {}
    for cfg, sol, record in items:
        ref = ref_of(cfg)
        regimes = _regimes(sol, cfg.policy_kind, cfg.target_entropy_fraction)
        errs, st = ref.check_episode(C.Episode.from_record(record), cfg.policy_kind,
                                     regimes, cfg.d_gap)
        results.append((f"episode {cfg.policy_kind.value} theta={cfg.theta:g} "
                        f"beta={cfg.beta:g} d={cfg.d_gap}", errs))
        stats.setdefault(key_of(cfg), []).append(st)
    for key, row in rows_by_key.items():
        if row.get("error"):
            continue
        results.append((f"row {key}", C.check_row(str(key), row, stats.get(key, []))))
    return results


def _frontier_key(kind: str, param) -> tuple:
    return (kind, None if param in (None, "") else float(param))


def _cfg_frontier_key(cfg: EpisodeConfig) -> tuple:
    kind = cfg.policy_kind
    param = {PolicyKind.ADE: cfg.l_low,
             PolicyKind.PDE: cfg.target_entropy_fraction}.get(kind)
    return _frontier_key(kind.value, param)


# ---------------------------------------------------------------------------
# est-long
# ---------------------------------------------------------------------------


class EstLong:
    """Estimation at (theta=32, beta=1, D=5): one cell, one long episode of
    each policy kind per pass, so the listener does nearly all the work."""

    name = "est-long"
    n_steps = 1000
    cell = dict(scenario=Scenario.ESTIMATION, theta=32.0, beta=1.0, d_gap=5)

    def run_pass(self, seed: int, index: int, work: Path) -> Pass:
        p = Pass()
        base = EpisodeConfig(**self.cell, n_steps=self.n_steps,
                             seed=pass_seed(seed, index))
        frac = base.target_entropy_fraction
        t0 = perf_counter()
        sol = p.attempt(_solve_cell, base, [frac])
        t1 = perf_counter()
        records = {}
        for kind in KINDS:
            if sol is None:
                p.attempted += 1
                p.failed += 1
                continue
            cfg = dataclasses.replace(base, policy_kind=kind)
            out = p.attempt(simulate.run_episode, cfg, sol)
            if out is not None:
                records[kind] = out[0]
                p.steps += len(out[0].states)
        t2 = perf_counter()
        for kind, record in records.items():
            record.to_csv(work / f"trace_{kind.value}.csv")
        t3 = perf_counter()
        p.setup_s, p.episodes_s, p.artifacts_s = t1 - t0, t2 - t1, t3 - t2
        p.data = {"sol": sol, "records": records, "cfg": base}
        p.cell_digest = _cell_digest(sol, [frac]) if sol else ""
        return p

    def checks(self, p: Pass):
        sol, base = p.data["sol"], p.data["cfg"]
        if sol is None:
            return []
        ref = Reference(base)
        out = []
        out.append(("cell", ref.check_cell(sol, [base.target_entropy_fraction])))
        for kind, record in p.data["records"].items():
            errs, _ = ref.check_episode(
                C.Episode.from_record(record), kind,
                _regimes(sol, kind, base.target_entropy_fraction), base.d_gap)
            out.append((f"episode {kind.value}", errs))
        return out


def _solve_cell(cfg: EpisodeConfig, fractions):
    sol = simulate.CellSolution(cfg)
    for f in fractions:
        sol.pde(f)
    return sol


# ---------------------------------------------------------------------------
# ctl-pareto
# ---------------------------------------------------------------------------


class CtlPareto:
    """Control at (theta=32, beta=1): the cell solved from scratch with its
    packing and PDE plans, then a defense frontier of short episodes."""

    name = "ctl-pareto"
    cell = dict(scenario=Scenario.CONTROL, theta=32.0, beta=1.0, d_gap=5, n_steps=200)
    ade_lows = (0.2, 0.4, 0.6)
    pde_fractions = (0.25, 0.5, 0.75)
    n_episodes = 6

    def run_pass(self, seed: int, index: int, work: Path) -> Pass:
        p = Pass()
        base = EpisodeConfig(**self.cell, seed=pass_seed(seed, index))
        t0 = perf_counter()
        sol = p.attempt(_solve_cell, base, self.pde_fractions)
        t1 = perf_counter()
        rows = []
        n_rows = 2 + len(self.ade_lows) + len(self.pde_fractions)
        with EpisodeCapture() as cap:
            if sol is not None:
                rows = simulate.pareto_sweep(base, self.ade_lows, self.pde_fractions,
                                             self.n_episodes, sol)
        t2 = perf_counter()
        p.attempted += n_rows * self.n_episodes
        p.failed += self.n_episodes * (n_rows - len(rows)
                                       + sum("error" in r for r in rows))
        p.steps = sum(len(rec.states) for _, _, rec in cap.items)
        kept = simulate.pareto_filter(rows)
        (work / "frontier.csv").write_text(simulate.rows_to_csv(rows))
        (work / "frontier_filtered.csv").write_text(simulate.rows_to_csv(kept))
        t3 = perf_counter()
        p.setup_s, p.episodes_s, p.artifacts_s = t1 - t0, t2 - t1, t3 - t2
        p.data = {"sol": sol, "cfg": base, "rows": rows, "kept": kept,
                  "captured": cap.items}
        p.cell_digest = _cell_digest(sol, self.pde_fractions) if sol else ""
        return p

    def checks(self, p: Pass):
        sol, base = p.data["sol"], p.data["cfg"]
        if sol is None:
            return []
        ref = Reference(base)
        out = []
        out.append(("cell", ref.check_cell(sol, self.pde_fractions)))
        rows = {_frontier_key(r["defense"], r["param"]): r for r in p.data["rows"]}
        out += _check_captured(lambda cfg: ref, p.data["captured"], rows, _cfg_frontier_key)
        out.append(("frontier filter", C.check_pareto_filter(p.data["rows"], p.data["kept"])))
        return out


# ---------------------------------------------------------------------------
# est-grid-cli
# ---------------------------------------------------------------------------


class EstGridCli:
    """Estimation through ``schedleak.cli.main`` in-process, one worker:
    ``solve``, ``simulate`` (trace on, two gaps) and ``pareto`` over a grid
    of cheap cells with short episodes."""

    name = "est-grid-cli"
    config = {
        "model": {"scenario": "estimation", "num_states": 30, "theta": [4.0, 32.0]},
        "planner": {"gamma": 0.95, "beta": [0.5, 2.0], "t_max": 10,
                    "value_tolerance": 1e-9},
        "defense": {"l_low": 0.4, "l_high": 0.6, "target_entropy_fraction": 0.5,
                    "ade_l_low_grid": [0.2, 0.4], "pde_fraction_grid": [0.25, 0.75],
                    "forecast_mode": "interval_max"},
        "simulation": {"n_steps": 60, "n_episodes": 2, "d_gap": [2, 5],
                       "policies": ["MPI", "PP", "ADE", "PDE"], "epsilon": 0.0,
                       "trace": True, "seed": 0},
        "output": {"dir": "out", "prefix": "schedleak"},
    }

    def _command(self, p: Pass, name: str, cfg_path: Path, out: Path, seed: int) -> bool:
        code = p.attempt(cli.main, [name, "--config", str(cfg_path), "--out", str(out),
                                    "--seed", str(seed), "--workers", "1"])
        if code not in (None, 0):
            p.failed += 1
            print(f"schedleak {name} exited with {code}", file=sys.stderr)
        return code == 0

    def run_pass(self, seed: int, index: int, work: Path) -> Pass:
        p = Pass()
        master = pass_seed(seed, index)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(self.config, indent=2))
        dirs = {name: work / name for name in ("solve", "simulate", "pareto")}
        t0 = perf_counter()
        self._command(p, "solve", cfg_path, dirs["solve"], master)
        t1 = perf_counter()
        with EpisodeCapture() as sim_cap:
            sim_ok = self._command(p, "simulate", cfg_path, dirs["simulate"], master)
        with EpisodeCapture() as par_cap:
            par_ok = self._command(p, "pareto", cfg_path, dirs["pareto"], master)
        t2 = perf_counter()
        # the episode phase is the two commands, their own solving included
        p.setup_s, p.episodes_s = t1 - t0, t2 - t1
        p.steps = sum(len(rec.states) for _, _, rec in sim_cap.items + par_cap.items)
        sim = self.config["simulation"]
        n_cells = len(self.config["model"]["theta"]) * len(self.config["planner"]["beta"])
        p.attempted += n_cells * len(sim["d_gap"]) * len(KINDS) * sim["n_episodes"]
        rows = json.loads((dirs["simulate"] / "aggregate.json").read_text()) if sim_ok else []
        p.failed += sim["n_episodes"] * sum("error" in r for r in rows)
        p.attempted += len(KINDS)     # one trace episode per kind
        if sim_ok:
            p.failed += sum(not (dirs["simulate"] / f"trace_{k.value}.csv").is_file()
                            for k in KINDS)
        frontier = _read_csv(dirs["pareto"] / "frontier.csv") if par_ok else []
        d = self.config["defense"]
        p.attempted += sim["n_episodes"] * (2 + len(d["ade_l_low_grid"]) + len(d["pde_fraction_grid"]))
        p.failed += sim["n_episodes"] * sum(bool(r.get("error")) for r in frontier)
        p.cell_digest = _artifacts(dirs["solve"])
        p.data = {"dirs": dirs, "rows": rows, "frontier": frontier,
                  "sim": sim_cap.items, "pareto": par_cap.items}
        return p

    def checks(self, p: Pass):
        dirs = p.data["dirs"]
        out = [(f"manifest {n}", C.check_manifest(d)) for n, d in dirs.items()
               if (d / "manifest.json").is_file()]
        sim_items = [it for it in p.data["sim"] if it[1] is not None]
        trace_items = [it for it in p.data["sim"] if it[1] is None]
        refs: dict = {}

        def ref_of(cfg):
            return refs.setdefault((cfg.theta, cfg.beta), Reference(cfg))

        cells = {}
        for cfg, sol, _ in sim_items:
            cells.setdefault((cfg.theta, cfg.beta), (cfg, sol))
        frac = self.config["defense"]["target_entropy_fraction"]
        for (theta, beta), (cfg, sol) in cells.items():
            errs = ref_of(cfg).check_cell(sol, [frac])
            errs += self._check_policy_files(dirs["solve"], theta, beta, sol, frac)
            out.append((f"cell theta={theta:g} beta={beta:g}", errs))
        rows = {(r["theta"], r["beta"], r["d_gap"], r["policy"]): r for r in p.data["rows"]}
        out += _check_captured(ref_of, sim_items, rows,
                               lambda c: (c.theta, c.beta, c.d_gap, c.policy_kind.value))
        out += self._check_row_columns(p.data["rows"], cells, ref_of, frac)
        # trace CSVs: episode 0 of the first cell and gap, one per kind
        if trace_items:
            cfg0 = trace_items[0][0]
            _, sol0 = cells[(cfg0.theta, cfg0.beta)]
            for cfg, _, _ in trace_items:
                kind = cfg.policy_kind
                ep = C.Episode.from_csv(dirs["simulate"] / f"trace_{kind.value}.csv")
                errs, _ = ref_of(cfg).check_episode(ep, kind, _regimes(sol0, kind, frac),
                                                    cfg.d_gap)
                out.append((f"trace CSV {kind.value}", errs))
        par_items = p.data["pareto"]
        if par_items:
            fractions = self.config["defense"]["pde_fraction_grid"]
            sol_p = par_items[0][1]
            out.append(("pareto cell", ref_of(par_items[0][0]).check_cell(sol_p, fractions)))
            frontier = {_frontier_key(r["defense"], r["param"]): r for r in p.data["frontier"]}
            out += _check_captured(ref_of, par_items, frontier, _cfg_frontier_key)
            kept = _read_csv(dirs["pareto"] / "frontier_filtered.csv")
            out.append(("frontier filter", C.check_pareto_filter(_numeric(p.data["frontier"]),
                                                                 _numeric(kept))))
        return out

    @staticmethod
    def _check_policy_files(solve_dir: Path, theta, beta, sol, frac) -> list[str]:
        """The solve command's policy files are the policies simulate used."""
        errs = []
        for kind in ("MPI", "PP", "PDE"):
            reg = _regimes(sol, PolicyKind(kind), frac)
            reg = reg.get("goc") or reg["periodic"]
            found = sorted(solve_dir.glob(f"policy_{kind}_theta{theta:g}_beta{beta:g}_*.json"))
            if len(found) != 1:
                errs.append(f"{len(found)} {kind} policy files for theta={theta:g} beta={beta:g}")
                continue
            doc = json.loads(found[0].read_text())
            if doc["sigma"] != reg.taus.tolist() or doc["pi"] != reg.actions.tolist():
                errs.append(f"{found[0].name} differs from the policy simulate used")
        return errs

    @staticmethod
    def _check_row_columns(rows, cells, ref_of, frac) -> list[tuple[str, list[str]]]:
        """Schedule entropy and leakage floor columns of the aggregate rows."""
        out = []
        for r in rows:
            if "error" in r:
                continue
            cfg, sol = cells[(r["theta"], r["beta"])]
            kind = PolicyKind(r["policy"])
            regimes = _regimes(sol, kind, frac)
            ref = ref_of(cfg)
            prior = ref.prior(kind, regimes)
            floor = 1.0 - C.entropy_bits(prior) / np.log2(len(prior))
            reg = regimes.get("goc") if kind is not PolicyKind.PP else regimes["periodic"]
            want_h = float("nan") if kind is PolicyKind.ADE else C.schedule_entropy(reg.taus)
            errs = []
            if abs(r["min_leakage"] - floor) > C.LEAKAGE_TOL:
                errs.append(f"min_leakage {r['min_leakage']} != {floor!r}")
            got_h = r["policy_entropy"]
            if not (np.isnan(want_h) and np.isnan(got_h)) and abs(got_h - want_h) > 1e-12:
                errs.append(f"policy_entropy {got_h} != {want_h!r}")
            out.append((f"row columns {r['theta']:g}/{r['beta']:g}/{r['d_gap']}/{r['policy']}", errs))
        return out


def _artifacts(out_dir: Path) -> str:
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ""
    return json.dumps(json.loads(path.read_text())["artifacts"], sort_keys=True)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _numeric(rows: list[dict]) -> list[dict]:
    return [{**r, "mean_leakage": float(r["mean_leakage"]),
             "mean_total_reward": float(r["mean_total_reward"])} for r in rows]


WORKLOADS = {w.name: w for w in (EstLong(), CtlPareto(), EstGridCli())}
