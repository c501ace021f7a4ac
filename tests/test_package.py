"""The package's public names: ``swfold.__all__`` lists exactly what ``__init__`` imports;
every other module uses each name it imports; no module keeps a memo for the process; and the
README names no private attribute."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import swfold


def imported_names() -> list[str]:
    """Names that ``swfold/__init__.py`` imports from its own submodules."""
    tree = ast.parse(pathlib.Path(swfold.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_has_no_duplicates():
    assert len(swfold.__all__) == len(set(swfold.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in swfold.__all__ if not hasattr(swfold, name)]
    assert missing == []


def test_all_equals_the_imported_names():
    names = imported_names()
    assert len(names) == len(set(names))
    assert set(swfold.__all__) == set(names)


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports (``__future__`` aside) that no expression in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


MODULES = sorted(path for path in pathlib.Path(swfold.__file__).parent.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def _calls(node: ast.AST):
    """The calls an expression makes when it is evaluated: none inside a lambda it only defines."""
    if isinstance(node, ast.Lambda):
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child)


CACHES = {"cache", "lru_cache", "functools.cache", "functools.lru_cache"}


def process_memos(path: pathlib.Path) -> list[str]:
    """What in a module keeps results for the life of the process: each ``_Memo(...)`` bound by a
    module-level or class-level statement, and each function under a ``functools.cache`` or
    ``lru_cache`` decorator, as ``module.name``."""
    tree, found = ast.parse(path.read_text(encoding="utf-8")), []
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.ClassDef):
            statements.extend(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            if any(ast.unparse(call.func).rpartition(".")[2] == "_Memo" for call in _calls(node.value)):
                target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                found.append(f"{path.stem}.{ast.unparse(target)}")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator) in CACHES:
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_no_memo_outlives_a_command():
    """A memo lives in the call that made it: only the argument parser, built once per process, is cached."""
    assert [name for path in MODULES for name in process_memos(path)] == ["cli.build_parser"]


@pytest.mark.parametrize("source, found", [
    ("_TEXTS = _Memo(str)", ["m._TEXTS"]),
    ("TABLE: dict = {1: [_Memo(str)]}", ["m.TABLE"]),
    ("class C:\n    texts = _Memo(str)", ["m.texts"]),
    ("@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x", ["m.f"]),
    ("class C:\n    @cache\n    def g(self):\n        return 1", ["m.g"]),
    ("make = lambda: _Memo(str)\ndef f():\n    return _Memo(str)", []),
], ids=["memo", "nested", "class", "lru_cache", "method", "per-call"])
def test_process_memos_finds_each_form(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert process_memos(path) == found


FOLD_INTERNALS = ("QuotientLattice", "canonical_rep", "fold_poly", "fold_poly_bruteforce")


def test_fold_internals_are_not_exported_but_stay_in_their_module():
    """``fold`` is the one public fold; its kernel and the brute-force oracle stay public in
    ``swfold.fold`` alone, where the benchmark imports them."""
    module = sys.modules["swfold.fold"]
    for name in FOLD_INTERNALS:
        assert name not in swfold.__all__ and not hasattr(swfold, name)
        assert callable(getattr(module, name))


def private_names() -> set[str]:
    """The ``_``-prefixed, non-dunder attributes of every swfold module and of the classes they define."""
    names = set()
    for path in MODULES:
        module = importlib.import_module(f"swfold.{path.stem}")
        scopes = [vars(module)] + [vars(value) for value in vars(module).values()
                                   if isinstance(value, type) and value.__module__ == module.__name__]
        names.update(name for scope in scopes for name in scope
                     if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))
    return names


def test_readme_names_no_private_attribute():
    """The README states the contract: no backticked span in it names a private attribute of the package."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    private = private_names()
    assert {"_sweep", "_Record", "_terms", "_of"} <= private
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S)  # fenced blocks hold no spans
    named = {word for span in re.findall(r"`([^`]+)`", prose) for word in re.findall(r"\w+", span)}
    assert sorted(named & private) == []
