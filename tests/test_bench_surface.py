"""Every library name the benchmark reads still exists and keeps its shape.

``bench/workloads.py``, ``bench/test_checks.py`` and ``bench/reference.py``
read attributes of a solved ``CellSolution``, always bound to ``sol``, and
names of the package's modules.  Renaming or deleting one of them breaks
the benchmark.  The files are read with ``ast``, so this check does not
import the benchmark.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import schedleak as sl

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = [BENCH / name for name in ("workloads.py", "test_checks.py", "reference.py")]
MODULES = {"policy", "defenses", "simulate", "markov", "cli"}


def library_reads(source: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Names read as ``sol.<name>``, and (module, name) pairs read as
    ``<module>.<name>`` or imported ``from schedleak.<module>``."""
    tree = ast.parse(source)
    modules = {}     # local name -> package module
    module_reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "schedleak":
            modules.update({a.asname or a.name: a.name for a in node.names if a.name in MODULES})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("schedleak."):
            module_reads.update((node.module.split(".", 1)[1], a.name) for a in node.names)
    sol_reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "sol":
                sol_reads.add(node.attr)
            elif node.value.id in modules:
                module_reads.add((modules[node.value.id], node.attr))
    return sol_reads, module_reads


def missing_reads(source: str, sol) -> list[str]:
    """The reads of ``source`` that ``sol`` or the package lacks."""
    sol_reads, module_reads = library_reads(source)
    missing = [f"sol.{name}" for name in sorted(sol_reads) if not hasattr(sol, name)]
    missing += [f"{module}.{name}" for module, name in sorted(module_reads)
                if not hasattr(importlib.import_module(f"schedleak.{module}"), name)]
    return missing


def test_every_benchmark_read_exists(est_cell):
    sol_reads, module_reads = set(), set()
    for path in SOURCES:
        found = library_reads(path.read_text())
        sol_reads |= found[0]
        module_reads |= found[1]
        assert missing_reads(path.read_text(), est_cell) == [], path.name
    assert {"pde", "pde_steps", "sigma_goc", "pp_period", "pp_policy"} <= sol_reads
    assert {("defenses", "pde_packing_steps"), ("cli", "main")} <= module_reads


def test_pde_has_the_shape_the_benchmark_unpacks(est_cell):
    out = est_cell.pde(0.5)
    assert len(out) == 3
    sigma, jp, _ = out
    assert isinstance(sigma.intervals, np.ndarray)
    assert isinstance(jp, sl.JointPolicy)
    assert all(isinstance(step.intervals, np.ndarray) for step, _ in est_cell.pde_steps())


def test_checker_reports_missing_reads(est_cell):
    src = ("from schedleak import policy, simulate as sim\n"
           "from schedleak.markov import Scenario, Gone\n"
           "def f(sol):\n"
           "    return sol.goc.control, sol.sigma_gone, policy.solve_goc, sim.gone\n")
    assert library_reads(src) == ({"goc", "sigma_gone"},
                                  {("markov", "Scenario"), ("markov", "Gone"),
                                   ("policy", "solve_goc"), ("simulate", "gone")})
    assert missing_reads(src, est_cell) == ["sol.sigma_gone", "markov.Gone", "simulate.gone"]
