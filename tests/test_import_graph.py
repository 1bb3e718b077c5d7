"""Import-graph guards, read from the source tree with ``ast``.

Discovery has one mining engine, ``ParDis`` (``parallel/pardis.py``), and
one oracle, ``SequentialDiscovery`` on dict adjacency
(``core/discovery.py``).  The engine must not be built on the oracle, and
no product module may reach the oracle except the packages that export
its public name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The names of the discovery oracle.
ORACLE_NAMES = {"SequentialDiscovery", "_DictAdjacencyDiscovery"}

#: The modules that may name the oracle: its own, and the two package
#: ``__init__``s that export ``SequentialDiscovery``.
ORACLE_MODULES = {"core/discovery.py", "core/__init__.py", "__init__.py"}


def _modules():
    return sorted(
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
    )


def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(), filename=module)


def _named(tree: ast.Module) -> set:
    """Every name a module imports, binds or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            names.update(alias.asname for alias in node.names if alias.asname)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    return names


def test_pardis_is_not_built_on_the_oracle():
    tree = _parse("parallel/pardis.py")
    (engine,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ParallelDiscovery"
    ]
    from_discovery = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith("core.discovery")
        for alias in node.names
    }
    bases = {ast.unparse(base) for base in engine.bases}
    assert not bases & (from_discovery | ORACLE_NAMES), bases


def test_only_the_oracle_packages_name_the_oracle():
    offenders = [
        module
        for module in _modules()
        if module not in ORACLE_MODULES
        and _named(_parse(module)) & ORACLE_NAMES
    ]
    assert offenders == []


def test_dict_adjacency_subclass_is_gone():
    for module in ORACLE_MODULES:
        assert "_DictAdjacencyDiscovery" not in _named(_parse(module))
