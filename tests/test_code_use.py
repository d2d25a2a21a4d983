"""No code under src/ that only tests call.

Every public function, class and method of the package must be referenced
from the package itself or from the benchmark harness, so that each one is
on a path the pipeline or its measurement runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genmatch"

ALLOWED = {
    # the gradient-check suite: the tests and the acceptance gate are its
    # callers, it is the contract every tape op is held to
    "check_gradients",
}


def public_definitions() -> dict[str, str]:
    """``name`` or ``Class.method`` -> the file that defines it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.name
    return found


def referenced_names() -> set[str]:
    names = set()
    for base in (PACKAGE, ROOT / "perfbench"):
        for path in base.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    definitions = public_definitions()
    assert "PipelineModel.stage_one_loss" in definitions and "backward" in definitions
    used = referenced_names()
    unused = sorted(f"{path}: {name}" for name, path in definitions.items()
                    if name.split(".")[-1] not in used and name not in ALLOWED)
    assert unused == [], "only tests call these; delete them or move them to tests/helpers.py"
