"""Every public name of the library is used where the paper's questions reach.

A name in a module's ``__all__`` must be used, as a name, an attribute or
an identifier string (the benchmark's tracer names its targets by string),
in some library module, in the acceptance suite or in the benchmark.  Its
own ``def``/``class`` statement, its ``__all__`` entry, its imports and
assignments to it do not count, and neither do unit tests: a function
only they call belongs in ``tests/oracles.py`` as a reference, or
nowhere.  Likewise every public method of a library class must be reached
as an attribute (``.name``) in those same files.  And a ``src/`` draw
compared with a threshold asks ``uniforms`` for ``below=`` rather than
comparing the floats it returns, directly or through a name.  A flag in
``cli._SHARED_FLAGS`` is requested by at least two subcommands.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "dagbroadcast").glob("*.py"))
USERS = [*MODULES, ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in USERS]


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
    for tree in TREES:
        stack = [tree]
        while stack:
            node = stack.pop()
            if _is_all(node):
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
            stack.extend(ast.iter_child_nodes(node))
    return used


USED = _used_names()
ATTRIBUTES = {node.attr for tree in TREES for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _public_methods(path: Path) -> list[tuple[str, str]]:
    """(class, method) for every public function defined in a class body."""
    return [
        (node.name, item.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used(path):
    unused = [name for name in _exported(path) if name not in USED]
    assert not unused, f"{path.name} exports names nothing reaches: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_method_is_reached(path):
    unreached = [f"{cls}.{name}" for cls, name in _public_methods(path) if name not in ATTRIBUTES]
    assert not unreached, f"{path.name} has public methods nothing reaches: {unreached}"


def _draw_compared_below(node: ast.AST) -> bool:
    """``uniforms(...) < x`` or ``uniform_matrix(...) < x``: a draw compared with ``<`` where it is made."""
    if not (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Lt) and isinstance(node.left, ast.Call)):
        return False
    func = node.left.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name in ("uniforms", "uniform_matrix")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_single_threshold_draws_use_below(path):
    """A draw compared with one threshold asks ``uniforms`` for ``below=``, which never forms the floats."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if _draw_compared_below(node)]
    assert not lines, f"{path.name} compares a uniforms(...) result with < on lines {lines}; pass below= instead"


def _draw_names(tree: ast.AST) -> set[str]:
    """Names assigned from an expression that calls ``uniforms``, such as ``u = uniforms(...).reshape(...)``."""
    return {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", "")) == "uniforms"
                for call in ast.walk(node.value))
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _named_draws_compared_below(tree: ast.AST) -> list[int]:
    """Lines where a name holding a ``uniforms(...)`` result is compared with ``<``."""
    names = _draw_names(tree)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, ast.Lt) for op in node.ops)
        and any(isinstance(side, ast.Name) and side.id in names for side in (node.left, *node.comparators))
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_threshold_draws_never_compare_floats(path):
    """No draw reaches a ``<`` through a name either: threshold draws are Bernoulli draws
    (``below=``), and the float stream only feeds arithmetic such as ``u * size``."""
    lines = _named_draws_compared_below(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} compares a name holding a uniforms(...) result with < on lines {lines}; pass below= instead"


def test_named_draw_guard_sees_the_old_float_compares():
    # the three shapes the node-law samplers once had
    for code in (
        "u = uniforms(s, n).reshape(a, b)\nbits = (u < q.take(w)).view(np.uint8)",
        "u = uniforms(s, pos)\nnew = (u < t.take(pair)).view(np.int8)\nnew += u < c.take(pair)",
        "u = uniforms(s, n)\nsp = np.count_nonzero(u < pp[:, None], axis=1)",
    ):
        assert _named_draws_compared_below(ast.parse(code))
    assert not _named_draws_compared_below(ast.parse("u = uniforms(s, n).reshape(a, d)\nx = np.minimum((u * size).astype(int), size - 1)"))


def _rng_imports(tree: ast.AST) -> list[str]:
    """Names a module takes from the package's ``rng`` module, and ``rng`` itself if it imports the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("rng", "dagbroadcast.rng"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "dagbroadcast"):
            names += [alias.name for alias in node.names if alias.name == "rng"]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name == "dagbroadcast.rng"]
    return names


@pytest.mark.parametrize("path", [m for m in MODULES if m.stem != "rng"], ids=lambda p: p.stem)
def test_draws_enter_through_uniforms(path):
    """``src/`` draws only through ``rng.uniforms``, the one RNG entry point the benchmark's tracer counts."""
    other = [name for name in _rng_imports(ast.parse(path.read_text(encoding="utf-8"))) if name not in ("derive_seed", "uniforms")]
    assert not other, f"{path.name} takes {other} from rng; draw through uniforms instead"


def test_cli_takes_dag_models_from_sigma_stages():
    """``cli.py`` names no random-DAG model itself: the model names, periods and read
    levels all come from ``sigma.STAGES``, so a new model is one row there."""
    tree = ast.parse((ROOT / "src" / "dagbroadcast" / "cli.py").read_text(encoding="utf-8"))
    literals = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.removeprefix("random-dag-") in ("maj3", "andor2")
    ]
    constants = ("MODEL_MAJ3", "MODEL_ANDOR2")
    refs = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in constants)
        or (isinstance(node, ast.Attribute) and node.attr in constants)
        or (isinstance(node, ast.alias) and node.name in constants)
    ]
    assert not literals, f"cli.py names a DAG model on lines {literals}; read sigma.STAGES instead"
    assert not refs, f"cli.py refers to a sigma model constant on lines {refs}; read sigma.STAGES instead"


def _model_constant_refs(tree: ast.AST) -> list[int]:
    """Lines where ``MODEL_MAJ3`` or ``MODEL_ANDOR2`` is read outside their own
    definitions and the ``STAGES`` table."""
    tables = ("MODEL_MAJ3", "MODEL_ANDOR2", "STAGES")
    allowed = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in tables for t in node.targets)
        for inner in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in ("MODEL_MAJ3", "MODEL_ANDOR2") and id(node) not in allowed
    ]


def test_sigma_states_each_model_once():
    """In ``sigma.py`` a model is one ``STAGES`` row: no other code names a model,
    so nothing branches on one or states anything about it by hand."""
    lines = _model_constant_refs(ast.parse((ROOT / "src" / "dagbroadcast" / "sigma.py").read_text(encoding="utf-8")))
    assert not lines, f"sigma.py names a model outside STAGES on lines {lines}"


def test_model_guard_sees_a_model_branch():
    code = "MODEL_MAJ3 = 'maj3'\nSTAGES = {MODEL_MAJ3: ()}\nif model == MODEL_MAJ3:\n    pass\n"
    assert _model_constant_refs(ast.parse(code)) == [3]


def test_package_root_reexports_nothing():
    init = ROOT / "src" / "dagbroadcast" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_cli_import_leaves_out_scipy_and_fractions():
    """Start-up pays for numpy only: scipy, fractions and numpy.polynomial stay unimported."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, dagbroadcast.cli; print(sorted({'scipy', 'fractions', 'numpy.polynomial'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _shared_flag_requests(tree: ast.AST) -> dict[str, int]:
    """Each ``_SHARED_FLAGS`` key, with the number of ``add(...)`` subcommand calls that request it."""
    keys = [
        key.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_SHARED_FLAGS" for t in node.targets)
        for key in node.value.keys
    ]
    requests = dict.fromkeys(keys, 0)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "add":
            for arg in node.args[2:]:
                if isinstance(arg, ast.Constant) and arg.value in requests:
                    requests[arg.value] += 1
    return requests


def test_shared_flags_are_shared():
    """A flag in ``cli._SHARED_FLAGS`` is requested by two subcommands or more;
    a flag only one subcommand reads is declared with that subcommand."""
    requests = _shared_flag_requests(ast.parse((ROOT / "src" / "dagbroadcast" / "cli.py").read_text(encoding="utf-8")))
    assert requests, "cli.py has no _SHARED_FLAGS table"
    lonely = sorted(flag for flag, n in requests.items() if n < 2)
    assert not lonely, f"cli.py shares flags that fewer than two subcommands request: {lonely}"


def test_shared_flag_guard_sees_a_lonely_flag():
    code = '_SHARED_FLAGS = {"--seed": {}, "--tol": {}}\nadd("a", "x", "--seed", "--tol")\nadd("b", "y", "--seed")\n'
    assert _shared_flag_requests(ast.parse(code)) == {"--seed": 2, "--tol": 1}
