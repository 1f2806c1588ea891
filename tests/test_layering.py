"""Production modules never import the test oracle ``densecheck``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "homcone"


def _imported_modules(tree):
    """Dotted names of everything the module imports; a relative
    ``from . import x`` yields "x" and ``from .x import y`` yields "x"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module
            if node.level or node.module == "homcone":
                yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_densecheck_uses_the_dense_oracle(path):
    if path.name == "densecheck.py":
        return
    names = set(_imported_modules(ast.parse(path.read_text())))
    assert not any(n.split(".")[-1] == "densecheck" for n in names), \
        f"{path.name} imports densecheck"
