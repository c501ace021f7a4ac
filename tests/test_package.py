"""The package's public names: ``swfold.__all__`` lists exactly what ``__init__`` imports."""

import ast
import pathlib

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
