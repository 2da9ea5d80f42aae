"""The CLI and the limit-law module use the rest of the package through
its public names only: neither binds a _-prefixed name of another lpvol
module, by import or by attribute, so a module's private helpers can
change without touching them.  Read with ast; nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lpvol"


def _private(name: str) -> bool:
    # a dunder such as __version__ is public
    return name.startswith("_") and not name.endswith("__")


def _private_uses(source: str) -> list:
    """lpvol-private names that source imports or reads off a module."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("lpvol")):
            for alias in node.names:
                if node.module is None or node.module == "lpvol":
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{node.lineno}:{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.lineno}:{node.value.id}.{node.attr}")
    return found


def test_checker_sees_private_names():
    assert _private_uses("from .asymptotics import (face_index,\n"
                         "    _left_edge_log)\n") == ["1:_left_edge_log"]
    assert _private_uses("from . import oracles\n"
                         "oracles._project_outside(1)\n") == [
        "2:oracles._project_outside"]
    assert _private_uses("from lpvol.specfun import _cfg\n") == ["1:_cfg"]
    # dunders, the CLI's own private names and the standard library's
    # are fine
    assert _private_uses("from . import __version__\n"
                         "from dataclasses import _MISSING_TYPE\n"
                         "_SUITES = {}\nargs._x = 1\n") == []


@pytest.mark.parametrize("module", ["cli.py", "maxwell.py"])
def test_uses_no_private_lpvol_name(module):
    assert _private_uses((SRC / module).read_text()) == []
