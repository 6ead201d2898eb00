"""Source checks on the package, with the standard library's ast."""

import ast
import sys
from pathlib import Path

import frob2d

PACKAGE = Path(frob2d.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports bind and the module never reads.

    ``from __future__`` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_a_name_read_nowhere():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom fractions import Fraction\n"
        "from typing import Iterable, Union\n"
        "def f(x: Iterable) -> str:\n    return os.path.join(j.dumps(x))\n"
    )
    assert unused_imports(source) == ["Fraction", "Union"]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports names to re-export them
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: unused for name, unused in found.items() if unused} == {}


def outside_imports(source: str) -> list[str]:
    """The modules a source imports that are neither relative, ``__future__`` nor stdlib.

    Every import statement counts, at module level or inside a function.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name != "__future__"
                  and name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_outside_imports_finds_a_module_outside_the_standard_library():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\nfrom . import linalg\nfrom .report import Witness\n"
        "from fractions import Fraction\n"
        "def f():\n    import yaml.loader\n    from requests import get\n"
    )
    assert outside_imports(source) == ["numpy", "yaml.loader", "requests"]


def test_the_package_imports_only_the_standard_library_and_itself():
    found = {str(path.relative_to(PACKAGE)): outside_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {}
