"""The oracles stay independent of the code paths they check.

tests/oracles.py may import hetmac.errors and nothing else of hetmac, and
must never name the library's rail or 2-D alphabet builders: an oracle
that called them would agree with the library by construction.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
LIBRARY_PATHS = {"transmit_points", "transmit_axis", "iq_indices", "minkowski_sum", "received_rail"}


def test_oracles_import_only_errors_from_hetmac():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "hetmac.errors" in modules
    assert [m for m in modules if m.split(".")[0] == "hetmac"] == ["hetmac.errors"]


def test_oracles_name_no_library_alphabet_path():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    # every identifier: names, attributes, imported and defined names, arguments
    names = {
        value
        for node in ast.walk(tree)
        for value in (getattr(node, f, None) for f in ("id", "attr", "name", "asname", "arg"))
        if isinstance(value, str)
    }
    assert not names & LIBRARY_PATHS, names & LIBRARY_PATHS
