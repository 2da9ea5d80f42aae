"""The benchmark tracer (bench/tracer.py) wraps lpvol functions by name.

A rename in the package breaks the traced benchmark run without failing
any other test, so this reads the names the tracer uses from its source,
with ast, and checks that each still exists.  The same goes for its
call contract: the parameters its hooks read from bound calls, and the
max_subdivisions keyword of every GK call.  The tracer itself is neither
imported nor run.
"""

import ast
import importlib
import inspect
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


def _binder_parameters():
    """{(module, function): the argument names the counter hooks read
    from the bound call}.  The hooks bind each call with
    bind = _binder(fn) and read bind(args, kwargs)["name"], directly or
    through a local a = bind(args, kwargs)."""
    hooks = next(node for node in ast.walk(ast.parse(TRACER.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "_hooks")
    binders = {}
    for node in ast.walk(hooks):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "_binder"):
            fn = node.value.args[0]
            base = fn.value
            module = (base.id if isinstance(base, ast.Name)
                      else base.slice.value)
            binders[node.targets[0].id] = (module, fn.attr)

    def binder_of(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in binders):
            return binders[node.func.id]
        return None

    params = {key: set() for key in binders.values()}
    # each hook is its own scope: two hooks may reuse one local name
    for hook in hooks.body:
        if not isinstance(hook, ast.FunctionDef):
            continue
        local = {node.targets[0].id: binder_of(node.value)
                 for node in ast.walk(hook)
                 if isinstance(node, ast.Assign) and binder_of(node.value)}
        for node in ast.walk(hook):
            if not (isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)):
                continue
            key = binder_of(node.value)
            if key is None and isinstance(node.value, ast.Name):
                key = local.get(node.value.id)
            if key is not None:
                params[key].add(node.slice.value)
    return params


def test_binder_parameters_are_found():
    assert _binder_parameters() == {
        ("specfun", "f_family_log_table"): {"p", "ts", "nus", "cfg"},
        ("symfun", "batched_loo_log"): {"logv", "m"},
        ("oracles", "steiner_mc_volume"): {"mc"},
    }


@pytest.mark.parametrize("module, name, param", sorted(
    (module, name, param)
    for (module, name), params in _binder_parameters().items()
    for param in params))
def test_bound_parameter_exists(module, name, param):
    # a renamed parameter makes the bound call raise KeyError mid-run
    fn = getattr(importlib.import_module(f"lpvol.{module}"), name)
    assert param in inspect.signature(fn).parameters


def _gk_calls():
    src = Path(__file__).resolve().parents[1] / "src" / "lpvol"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name in ("quad_gk", "quad_gk_log"):
                yield f"{path.name}:{node.lineno}", node


def test_gk_calls_pass_budget_by_keyword():
    # the gk hook reads kwargs["max_subdivisions"]
    calls = list(_gk_calls())
    assert len(calls) >= 3
    for where, node in calls:
        assert any(kw.arg == "max_subdivisions" for kw in node.keywords), \
            where
