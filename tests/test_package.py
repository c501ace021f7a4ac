"""The package's public names: ``swfold.__all__`` lists exactly what ``__init__`` imports;
and every other module uses each name it imports."""

import ast
import pathlib

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
