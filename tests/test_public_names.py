"""Every public name has a user besides its own tests.

A name in a module's ``__all__`` must be referenced in code (an AST
``Name`` or ``Attribute``, not a docstring or an import line) outside its
own definition: elsewhere in ``src/hartogs/``, in ``bench/`` or in
``perfbench/``.  A name that only its tests call is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hartogs"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


USERS = {
    path: _parse(path)
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
}
MODULES = sorted(
    path for path, tree in USERS.items() if path.parent == PACKAGE and path.stem != "__init__" and _public_names(tree)
)


def _references(tree, skip=None):
    """Identifiers read as names or attributes, outside the top-level
    definition named ``skip``."""
    found = set()
    todo = [node for node in tree.body if skip is None or getattr(node, "name", None) != skip]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_is_used(module):
    elsewhere = set()
    for path, tree in USERS.items():
        if path != module:
            elsewhere |= _references(tree)
    home = USERS[module]
    unused = [
        name for name in _public_names(home) if name not in elsewhere and name not in _references(home, skip=name)
    ]
    assert unused == [], f"{module.stem}: public names with no user outside their tests: {unused}"
