"""Every public name of the library is used where the paper's questions reach.

A name in a module's ``__all__`` must be used, as a name, an attribute or
an identifier string (the benchmark's tracer names its targets by string),
in some library module, in the acceptance suite or in the benchmark.  Its
own ``def``/``class`` statement, its ``__all__`` entry and its imports do
not count, and neither do unit tests: a function only they call belongs
in ``tests/oracles.py`` as a reference, or nowhere.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "dagbroadcast").glob("*.py"))
USERS = [*MODULES, ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _exported(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if _is_all(node):
            return list(ast.literal_eval(node.value))
    return []


def _used_names() -> set[str]:
    used: set[str] = set()
    for path in USERS:
        stack = [ast.parse(path.read_text(encoding="utf-8"))]
        while stack:
            node = stack.pop()
            if _is_all(node):
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
            stack.extend(ast.iter_child_nodes(node))
    return used


USED = _used_names()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used(path):
    unused = [name for name in _exported(path) if name not in USED]
    assert not unused, f"{path.name} exports names nothing reaches: {unused}"


def test_package_root_reexports_nothing():
    init = ROOT / "src" / "dagbroadcast" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
