"""Each torustc module reaches the others, and each script reaches the
package, through their public names only; and importing the command line
loads no heavy standard-library module it does not use."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


# dataclasses, which no torustc module needs, would load all but the last
# two, at more than half the import time of torustc.cli; the command line
# parses argv from its own table, without argparse and the gettext it loads
UNUSED_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "argparse",
                    "gettext")


def test_cli_import_loads_no_unused_stdlib_modules():
    # -S leaves out site and the .pth files it runs, which may import
    # modules of their own; the rest of the environment is kept
    probe = ("import sys, torustc.cli; "
             f"print(' '.join(m for m in {UNUSED_AT_IMPORT!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []
