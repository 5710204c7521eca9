"""``kpshap.__all__`` lists exactly the public names ``__init__`` imports.

A name removed from a module but left in ``__all__`` breaks
``from kpshap import *``, and one imported but not listed is public by
accident; the test parses ``__init__.py`` so both lists are read as written.
"""

import ast
from pathlib import Path

import kpshap


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(kpshap.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(imported) == len(set(imported))
    assert len(kpshap.__all__) == len(set(kpshap.__all__))
    assert sorted(kpshap.__all__) == sorted(imported)
    assert all(hasattr(kpshap, name) for name in kpshap.__all__)
