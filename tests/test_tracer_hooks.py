"""The benchmark tracer (bench/tracer.py) wraps lpvol functions by name.

A rename in the package breaks the traced benchmark run without failing
any other test, so this reads the names the tracer uses from its source,
with ast, and checks that each still exists.  The tracer itself is
neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_names():
    tree = ast.parse(TRACER.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(
                node.targets[0], ast.Name):
            target = node.targets[0].id
            if target == "EXTRA":
                names |= {(mod, name)
                          for mod, name, _ in ast.literal_eval(node.value)}
            elif target == "TIMED":
                names |= {tuple(key.split("."))
                          for key in ast.literal_eval(node.value)}
        elif isinstance(node, ast.FunctionDef) and node.name == "_hooks":
            # the counter hooks are keyed by "module.function"
            returned = node.body[-1].value
            names |= {tuple(key.value.split(".")) for key in returned.keys}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "specfun"):
            names.add(("specfun", node.attr))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Subscript)
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id == "mods"):
            names.add((node.value.slice.value, node.attr))
        elif isinstance(node, ast.Attribute) and node.attr == "cache_key":
            names.add(("specfun", "QuadConfig.cache_key"))
    return sorted(names)


def test_tracer_source_is_found():
    names = _tracer_names()
    assert ("oracles", "_project_outside") in names
    assert ("specfun", "_cfg") in names
    assert ("specfun", "QuadConfig.cache_key") in names


@pytest.mark.parametrize("module, name", _tracer_names())
def test_traced_name_exists(module, name):
    obj = importlib.import_module(f"lpvol.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
