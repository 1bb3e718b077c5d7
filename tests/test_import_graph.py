"""Import-graph guards, read from the source tree with ``ast``.

Every reference oracle lives in ``repro/oracle/`` and nowhere else.  The
product is built without it: no product module imports the oracle
package, except the package ``__init__``s that re-export one of its public
names, and the oracle itself reads the product's dict-graph and core
modules but never the CSR index (``repro.graph.index``) or the execution
layer (``repro.parallel``).  Discovery has one mining engine, ``ParDis``
(``parallel/pardis.py``), and one oracle, ``SequentialDiscovery`` on dict
adjacency (``oracle/discovery.py``); the engine must not be built on it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.oracle

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The names of the discovery oracle.
ORACLE_NAMES = {"SequentialDiscovery", "_DictAdjacencyDiscovery"}

#: The modules that may name the discovery oracle: its own, the oracle
#: package, and the package ``__init__`` that exports it.
ORACLE_MODULES = {"oracle/discovery.py", "oracle/__init__.py", "__init__.py"}

#: The package ``__init__``s that re-export oracle names, and so may import
#: the oracle package.
EXPORTING_INITS = {
    "__init__.py",
    "core/__init__.py",
    "gfd/__init__.py",
    "pattern/__init__.py",
}


def _modules():
    return sorted(
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
    )


def _is_oracle(module: str) -> bool:
    return module.startswith("oracle/")


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


def _imported(module: str) -> set:
    """The dotted names a module imports, relative imports resolved —
    ``from .. import oracle`` counts as ``repro.oracle``."""
    package = ["repro", *module.split("/")[:-1]]
    targets = set()
    for node in ast.walk(_parse(module)):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            targets.add(stem)
            targets.update(f"{stem}.{alias.name}" for alias in node.names)
    return targets


def _imports_from(module: str, package: str) -> bool:
    return any(
        target == package or target.startswith(package + ".")
        for target in _imported(module)
    )


def _defined(module: str) -> set:
    """The functions and classes a module defines at top level."""
    return {
        node.name
        for node in _parse(module).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_pardis_is_not_built_on_the_oracle():
    tree = _parse("parallel/pardis.py")
    (engine,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ParallelDiscovery"
    ]
    bases = {ast.unparse(base) for base in engine.bases}
    assert not bases & ORACLE_NAMES, bases


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


def test_no_product_module_imports_the_oracle():
    offenders = [
        module
        for module in _modules()
        if not _is_oracle(module)
        and module not in EXPORTING_INITS
        and _imports_from(module, "repro.oracle")
    ]
    assert offenders == []


def test_oracle_reads_neither_the_index_nor_the_execution_layer():
    offenders = [
        (module, target)
        for module in _modules()
        if _is_oracle(module)
        for target in ("repro.graph.index", "repro.parallel")
        if _imports_from(module, target)
    ]
    assert offenders == []


def test_oracle_names_are_defined_only_in_the_oracle():
    oracle_names = set(repro.oracle.__all__)
    in_oracle = set().union(*(_defined(m) for m in _modules() if _is_oracle(m)))
    assert oracle_names <= in_oracle
    offenders = {
        module: sorted(_defined(module) & oracle_names)
        for module in _modules()
        if not _is_oracle(module) and _defined(module) & oracle_names
    }
    assert offenders == {}


def test_package_reexports_are_the_oracle_objects():
    """Each exporting ``__init__`` re-exports public oracle names as the
    oracle's own objects, and lists them in its ``__all__``."""
    import repro.core
    import repro.gfd
    import repro.pattern

    for package in (repro, repro.core, repro.gfd, repro.pattern):
        assert package._ORACLE_EXPORTS <= set(repro.oracle.__all__)
        assert package._ORACLE_EXPORTS <= set(package.__all__)
        for name in package._ORACLE_EXPORTS:
            assert getattr(package, name) is getattr(repro.oracle, name)


def test_importing_the_product_does_not_load_the_oracle():
    """The re-exports resolve on first use: a fresh interpreter that imports
    the package and every product entry point has not loaded the oracle."""
    probe = (
        "import sys, repro, repro.cli, repro.session, repro.serve, "
        "repro.baselines, repro.quality\n"
        "assert 'repro.oracle' not in sys.modules, sorted(sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

