"""Import layering, read from the source with `ast`: the oracles stay
independent of the engine they cross-check, and the engine never reaches up
into the command line."""

import ast
import os
import sys

import hbinom

PKG = os.path.dirname(os.path.abspath(hbinom.__file__))


def _imports(module: str) -> set[str]:
    """Imported module names; package-relative ones as ".name"."""
    with open(os.path.join(PKG, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    names.add("." + node.module)
                else:
                    names.update("." + alias.name for alias in node.names)
            else:
                names.add(node.module)
    return names


def test_oracles_import_only_the_ring_and_the_stdlib():
    for name in _imports("oracles"):
        if name.startswith("."):
            assert name == ".ring", name
        else:
            assert name.split(".")[0] in sys.stdlib_module_names, name


def test_recurrences_do_not_import_the_cli():
    names = _imports("recurrences")
    assert ".cli" not in names
    assert not any(name.startswith("hbinom") for name in names), names
