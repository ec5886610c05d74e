"""The package's public names, and the independence of the test oracle."""

import ast
from pathlib import Path

import bgsub


def test_all_names_resolve():
    assert len(bgsub.__all__) == len(set(bgsub.__all__))
    for name in bgsub.__all__:
        assert hasattr(bgsub, name), name


def test_oracles_import_nothing_from_bgsub():
    # The oracle is the only reference the engine is checked against; an
    # import from the package would let a shared mistake pass both sides.
    path = Path(__file__).with_name("oracles.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found: the walk is not reading the oracle"
    for module in imported:
        assert module.split(".")[0] not in ("bgsub", ""), module
