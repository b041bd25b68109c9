"""Each output checker accepts the library's real output and rejects a
deliberately perturbed copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks as C  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402
from schedleak import cli, simulate  # noqa: E402
from schedleak.markov import Scenario  # noqa: E402
from schedleak.simulate import EpisodeConfig, PolicyKind  # noqa: E402


def _cell(scenario, **kw):
    cfg = EpisodeConfig(scenario=scenario, theta=32.0, beta=1.0, d_gap=5,
                        n_steps=120, seed=7, **kw)
    return cfg, simulate.CellSolution(cfg)


@pytest.fixture(scope="module")
def est():
    return _cell(Scenario.ESTIMATION)


@pytest.fixture(scope="module")
def ctl():
    # a short horizon keeps the control plan search cheap; at t_max=6 the
    # optimal schedule is not periodic
    return _cell(Scenario.CONTROL, t_max=6)


def _episode(cell, kind):
    cfg, sol = cell
    cfg = dataclasses.replace(cfg, policy_kind=kind)
    record, _ = simulate.run_episode(cfg, sol)
    regimes = W._regimes(sol, kind, cfg.target_entropy_fraction)
    return cfg, C.Episode.from_record(record), regimes


def _listener_errors(cfg, ep, regimes):
    ref = W.Reference(cfg)
    smoother = C.Smoother(ref.trans, ref.prior(cfg.policy_kind, regimes), regimes)
    return C.check_listener(ep, smoother, cfg.d_gap)[0]


@pytest.mark.parametrize("which,kind", [("est", PolicyKind.MPI), ("est", PolicyKind.ADE),
                                        ("est", PolicyKind.PDE), ("ctl", PolicyKind.ADE)])
def test_listener_rejects_perturbed_leakage_and_hits(request, which, kind):
    cfg, ep, regimes = _episode(request.getfixturevalue(which), kind)
    assert _listener_errors(cfg, ep, regimes) == []
    bad = dataclasses.replace(ep, leakages=ep.leakages.copy())
    bad.leakages[37] += 1e-7
    assert any("leakage" in e for e in _listener_errors(cfg, bad, regimes))
    bad = dataclasses.replace(ep, eve_hits=1 - ep.eve_hits)
    assert any("hit" in e for e in _listener_errors(cfg, bad, regimes))


def test_pp_floor_rejects_perturbed_leakage(est):
    cfg, ep, regimes = _episode(est, PolicyKind.PP)
    prior = W.Reference(cfg).prior(PolicyKind.PP, regimes)
    assert C.check_pp_floor(ep, prior) == []
    bad = dataclasses.replace(ep, leakages=ep.leakages.copy())
    bad.leakages[-1] += 1e-7
    assert C.check_pp_floor(bad, prior)


@pytest.mark.parametrize("which", ["est", "ctl"])
def test_schedule_rejects_moved_request_wrong_action_and_impossible_step(request, which):
    cfg, ep, regimes = _episode(request.getfixturevalue(which), PolicyKind.MPI)
    trans = W.Reference(cfg).trans
    assert C.check_schedule(ep, trans, regimes) == []
    t = int(np.flatnonzero(ep.transmits)[1])
    moved = ep.transmits.copy()
    moved[t], moved[t + 1] = 0, 1
    assert C.check_schedule(dataclasses.replace(ep, transmits=moved), trans, regimes)
    acts = ep.actions.copy()
    acts[t + 1] = (acts[t + 1] + 1) % 3 if trans.shape[0] > 1 else acts[t + 1] % 30 + 1
    assert C.check_schedule(dataclasses.replace(ep, actions=acts), trans, regimes)
    states = ep.states.copy()
    a = int(ep.actions[50]) if trans.shape[0] > 1 else 0
    states[51] = int(np.argmin(trans[a, states[50] - 1])) + 1
    assert trans[a, states[50] - 1, states[51] - 1] == 0.0
    assert any("probability 0" in e for e in
               C.check_schedule(dataclasses.replace(ep, states=states), trans, regimes))


@pytest.mark.parametrize("which", ["est", "ctl"])
def test_certificate_rejects_suboptimal_policy(request, which):
    cfg, sol = request.getfixturevalue(which)
    ref = W.Reference(cfg)
    t_max = sol.planner.t_max
    taus, acts = sol.sigma_goc.intervals, sol.goc.control
    pp = (np.full(len(taus), sol.pp_period), sol.pp_policy.control)
    args = (cfg.planner().gamma, cfg.beta, t_max)
    assert C.check_optimal_policy(ref.trans, ref.reward, taus, acts, *args, periodic=pp) == []
    worse = taus.copy()
    worse[3] = t_max if taus[3] != t_max else 1
    assert C.check_optimal_policy(ref.trans, ref.reward, worse, acts, *args)
    # the fixed-period policy is not optimal, and the optimum beats it
    assert C.check_optimal_policy(ref.trans, ref.reward, pp[0], pp[1], *args,
                                  periodic=(taus, acts))


def test_packing_rejects_double_change_flat_step_and_wrong_choice(est):
    _, sol = est
    steps = [(s.intervals, h) for s, h in sol.pde_steps()]
    chosen = {0.5: sol.pde(0.5)[0].intervals}
    assert C.check_packing(steps, chosen) == []
    two = steps[2][0].copy()
    two[np.flatnonzero(two == steps[1][0])[0]] += 1
    assert C.check_packing(steps[:2] + [(two, C.schedule_entropy(two))] + steps[3:], chosen)
    assert C.check_packing(steps[:2] + [steps[1]] + steps[2:], chosen)
    assert C.check_packing(steps, {0.5: steps[0][0]})


def test_rows_and_frontier_filter_reject_perturbed_aggregates(est):
    cfg, sol = est
    base = dataclasses.replace(cfg, n_steps=60)
    with W.EpisodeCapture() as cap:
        rows = simulate.pareto_sweep(base, [0.3], [0.5], 2, sol)
    kept = simulate.pareto_filter(rows)
    ref = W.Reference(base)
    by_key = {W._frontier_key(r["defense"], r["param"]): r for r in rows}
    found = W._check_captured(lambda c: ref, cap.items, by_key, W._cfg_frontier_key)
    assert all(not errs for _, errs in found)
    assert C.check_pareto_filter(rows, kept) == []
    bad = {k: dict(r) for k, r in by_key.items()}
    bad[("MPI", None)]["mean_leakage"] += 1e-7
    found = W._check_captured(lambda c: ref, cap.items, bad, W._cfg_frontier_key)
    assert any(errs for _, errs in found)
    worse = {**kept[0], "mean_leakage": kept[0]["mean_leakage"] + 0.5}
    assert C.check_pareto_filter(rows + [worse], kept + [worse])
    assert C.check_pareto_filter(rows, kept[1:])


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    """The ``solve`` command's output for the estimation cell (32, 1)."""
    tmp = tmp_path_factory.mktemp("solve")
    cfg = {"model": {"theta": 32.0}, "planner": {"beta": 1.0},
           "simulation": {"n_steps": 20, "n_episodes": 1, "policies": ["MPI"]}}
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    out = tmp / "solve"
    assert cli.main(["solve", "--config", str(tmp / "cfg.json"), "--out", str(out),
                     "--workers", "1"]) == 0
    return out


def test_manifest_rejects_altered_artifact(solve_dir, tmp_path):
    out = tmp_path / "solve"
    shutil.copytree(solve_dir, out)
    assert C.check_manifest(out) == []
    doc = json.loads((out / "manifest.json").read_text())
    victim = out / sorted(doc["artifacts"])[0]
    victim.write_text(victim.read_text() + " ")
    assert any("SHA-256" in e for e in C.check_manifest(out))
    victim.unlink()
    assert any("missing" in e for e in C.check_manifest(out))


def test_policy_files_reject_other_schedule(est, solve_dir, tmp_path):
    cfg, sol = est
    frac = cfg.target_entropy_fraction
    check = W.EstGridCli._check_policy_files
    assert check(solve_dir, 32.0, 1.0, sol, frac) == []
    out = tmp_path / "solve"
    shutil.copytree(solve_dir, out)
    victim, = out.glob("policy_PDE_theta32_beta1_*.json")
    doc = json.loads(victim.read_text())
    doc["sigma"][0] = doc["sigma"][0] % 10 + 1
    victim.write_text(json.dumps(doc))
    assert any(victim.name in e for e in check(out, 32.0, 1.0, sol, frac))
    victim.unlink()
    assert any("0 PDE policy files" in e for e in check(out, 32.0, 1.0, sol, frac))


def test_row_columns_reject_perturbed_floor_and_entropy(est):
    cfg, sol = est
    base = dataclasses.replace(cfg, n_steps=30)
    rows = simulate.sweep(base, [cfg.theta], [cfg.beta], [cfg.d_gap], list(PolicyKind), 1,
                          {(cfg.scenario.value, cfg.theta, cfg.beta): sol})
    cells = {(cfg.theta, cfg.beta): (cfg, sol)}
    ref = W.Reference(cfg)
    frac = cfg.target_entropy_fraction
    check = W.EstGridCli._check_row_columns
    found = check(rows, cells, lambda c: ref, frac)
    assert len(found) == len(PolicyKind) and all(not errs for _, errs in found)
    for column, delta in (("min_leakage", 1e-7), ("policy_entropy", 1e-9)):
        bad = [dict(r) for r in rows]
        bad[0][column] += delta
        found = check(bad, cells, lambda c: ref, frac)
        assert [column in " ".join(errs) for _, errs in found] == [True, False, False, False]


def test_repeat_checks_reject_differing_passes():
    assert R._same(["a", "a", "a"], "digests") == []
    assert R._same([("a", "b"), ("a", "c")], "digests")
    counts = (4, 36, 1200)
    assert R._same([counts, counts], "counts") == []
    assert R._same([counts, (4, 36, 1201)], "counts")


def test_model_check_rejects_other_dynamics(est):
    cfg, sol = est
    assert W.Reference(cfg).check_model(sol) == []
    assert W.Reference(dataclasses.replace(cfg, theta=8.0)).check_model(sol)
