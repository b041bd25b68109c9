"""Every name the benchmark tracer patches still exists in the package.

``bench/tracing.py`` wraps ``owner.__dict__[attr]`` for each entry of its
``TARGETS`` list, so deleting or renaming a traced library name breaks a
traced benchmark run (``--trace 1``) with a ``KeyError``.  The list is read
with ``ast``, so this check does not import the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    raise ValueError(f"unsupported target owner {ast.dump(node)}")


def tracer_targets(path: Path) -> list[tuple[str, str]]:
    """(owner as a dotted path inside ``schedleak``, attribute) per entry."""
    tree = ast.parse(path.read_text())
    aliases = {}    # module-level names bound to modules or their attributes
    targets = None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "schedleak":
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            name = node.targets[0].id
            if name == "TARGETS":
                targets = node.value
            elif isinstance(node.value, (ast.Name, ast.Attribute)):
                aliases[name] = _dotted(node.value)

    def resolve(dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        if aliases.get(head, head) == head:
            return dotted
        return resolve(aliases[head] + (f".{rest}" if rest else ""))

    assert targets is not None, f"no TARGETS list in {path}"
    return [(resolve(_dotted(entry.elts[0])), entry.elts[1].value) for entry in targets.elts]


def missing_targets(targets: list[tuple[str, str]]) -> list[str]:
    """Entries whose owner lacks the attribute in its own ``__dict__``."""
    missing = []
    for owner_path, attr in targets:
        module, *names = owner_path.split(".")
        owner = importlib.import_module(f"schedleak.{module}")
        for name in names:
            owner = vars(owner).get(name)
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
    return missing


def test_every_traced_name_exists():
    targets = tracer_targets(TRACING)
    assert len(targets) > 10
    assert missing_targets(targets) == []


def test_parser_resolves_aliases_and_reports_missing(tmp_path):
    src = tmp_path / "tracing.py"
    src.write_text("from schedleak import policy, eavesdropper\n"
                   "Est = eavesdropper.EveEstimator\n"
                   "TARGETS = [(policy, 'solve_goc', 'a', None),\n"
                   "           (Est, 'observe', 'b', None),\n"
                   "           (eavesdropper.SegmentModel, 'goal_oriented', 'c', None),\n"
                   "           (policy.JointPolicy, 'transmit', 'd', None)]\n")
    targets = tracer_targets(src)
    assert targets == [("policy", "solve_goc"), ("eavesdropper.EveEstimator", "observe"),
                       ("eavesdropper.SegmentModel", "goal_oriented"),
                       ("policy.JointPolicy", "transmit")]
    assert missing_targets(targets) == ["eavesdropper.SegmentModel.goal_oriented"]
