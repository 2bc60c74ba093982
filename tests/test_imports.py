"""Every module-level import of a ``sipsolve`` module is used in that
module, so an import that outlives its last use cannot stay behind."""
import ast
from pathlib import Path

import pytest

import sipsolve

PACKAGE = Path(sipsolve.__file__).parent

# names imported for another module's sake: the package's re-exports, and
# the evaluators that perfbench/tracing.py hooks through specfile
ALLOWED = {"specfile": {"eval_taylor2", "eval_value"}}


def _imported(tree) -> dict:
    """Name bound -> line, for each import at the top level of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _used(tree) -> set:
    """Names read anywhere in a module."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree) | ALLOWED.get(path.stem, set())
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Callable, Optional\n"
                     "x: Optional[int] = math.pi\n")
    assert set(_imported(tree)) - _used(tree) == {"Callable"}
