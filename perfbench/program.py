"""The program under test: accesslint, imported from ./src and nowhere else.

This module imports nothing that a fresh interpreter has not already
loaded, so child.py can time `import_accesslint` as the cost a new
process pays.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class ProgramMissing(Exception):
    pass


def import_accesslint() -> dict:
    """Import accesslint afresh from ./src; return its modules and the call table."""
    if not (SRC / "accesslint" / "__init__.py").is_file():
        raise ProgramMissing(f"no accesslint package under {SRC}")
    for name in [n for n in sys.modules if n == "accesslint" or n.startswith("accesslint.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"accesslint.{name}")
               for name in ("cli", "modelio", "validation")}
    package = sys.modules["accesslint"]
    if Path(package.__file__).resolve().parent != SRC / "accesslint":
        raise ProgramMissing(f"accesslint was imported from {package.__file__}")
    modules["api"] = types.SimpleNamespace(
        main=modules["cli"].main,
        parse_model=package.parse_model,
        serialize_model=package.serialize_model,
        render_report=package.render_report,
        validate_access=package.validate_access,
        expand_hierarchy=package.expand_hierarchy,
        lookup_statement=package.lookup_statement,
        trace=package.trace,
        AccessNeed=package.AccessNeed,
        Permission=package.Permission,
        PolicyStatement=package.PolicyStatement,
        SecurityValue=package.SecurityValue,
    )
    return modules
