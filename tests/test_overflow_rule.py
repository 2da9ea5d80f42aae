"""One overflow rule: a log becomes a float through logspace.exp_checked,
which raises a typed error naming the quantity when the value overflows
a double.  No other module catches OverflowError itself, so the rule and
its message live in one place.  Read with ast; nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lpvol"


def _catches_overflow(handler):
    caught = (handler.type.elts if isinstance(handler.type, ast.Tuple)
              else [handler.type])
    return any(isinstance(name, ast.Name) and name.id == "OverflowError"
               for name in caught)


def test_only_logspace_catches_overflow():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "logspace.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and _catches_overflow(node)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []
