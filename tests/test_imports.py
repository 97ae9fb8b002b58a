"""Each torustc module reaches the others, and each script reaches the
package, through their public names only."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "torustc"
SCRIPTS = Path(__file__).parents[1] / "scripts"


def private_imports(source: str) -> list[str]:
    """Underscore names a module's source imports from a torustc module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level or module.split(".")[0] == "torustc":
            found += [f"{alias.name} from {module} (line {node.lineno})"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_check_sees_relative_and_absolute_imports():
    assert private_imports("from .planner import _travel, plan_skeleton\n"
                           "from torustc.planner import _ONE as ONE\n"
                           "from torustc import _x\n") == [
        "_travel from .planner (line 1)", "_ONE from torustc.planner (line 2)",
        "_x from torustc (line 3)"]
    assert private_imports("from __future__ import annotations\n"
                           "from fractions import _gcd\n"
                           "from .planner import plan_skeleton\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"scripts/{p.name}")
def test_no_module_imports_private_names_of_another(path):
    assert private_imports(path.read_text()) == []
