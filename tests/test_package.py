"""The package's public names and the hygiene of its modules."""

import ast
import re
import types
from pathlib import Path

import dpbayes
from dpbayes.errors import DpBayesError

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_public_names_and_no_module():
    namespace: dict = {}
    exec("from dpbayes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(dpbayes.__all__))
    assert len(set(dpbayes.__all__)) == len(dpbayes.__all__)
    assert all(hasattr(dpbayes, name) for name in dpbayes.__all__)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []


def test_every_public_name_has_a_reader_beyond_its_unit_tests():
    # a reader is a line naming it, other than its def or class line, in the
    # package's modules (not the re-exporting __init__), the benchmark, the
    # README or the acceptance gates
    paths = [p for p in sorted((ROOT / "src" / "dpbayes").glob("*.py")) if p.name != "__init__.py"]
    paths += [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    lines = [line for p in [*paths, ROOT / "tests" / "test_acceptance.py"]
             for line in p.read_text().splitlines()]
    unread = set()
    for name in dpbayes.__all__:
        value = getattr(dpbayes, name)
        if isinstance(value, type) and issubclass(value, DpBayesError):
            continue
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class) {name}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unread.add(name)
    assert unread == set()


def test_modules_have_no_unused_top_level_imports():
    # the project declares no linter; this is pyflakes' unused-import check,
    # limited to module-level imports
    unused = []
    for path in sorted(Path(dpbayes.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def test_modules_raise_no_plain_value_or_type_error():
    # a bad argument raises InvalidArgumentError, a DpBayesError that is also
    # a ValueError; a plain ValueError or TypeError would escape the contract
    plain = []
    for path in sorted(Path(dpbayes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    plain.append(f"{path.name}:{node.lineno} {exc.id}")
    assert plain == []


def test_every_error_class_is_raised_or_caught():
    # one class per kind of failure: an exported error that no module raises
    # or catches is a name no caller can tell apart from its kind's class
    named = set()
    for path in sorted(Path(dpbayes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                named.add(getattr(exc, "id", None))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                named.update(getattr(exc, "id", None) for exc in caught)
    errors = {
        name for name in dpbayes.__all__
        if isinstance(getattr(dpbayes, name), type)
        and issubclass(getattr(dpbayes, name), DpBayesError)
        and getattr(dpbayes, name) is not DpBayesError
    }
    assert errors and errors - named == set()
