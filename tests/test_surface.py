"""The package exports only what something reads: a library module, the
README example, the acceptance criteria or the benchmark's tools."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hetmac"


def _loads(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names and attributes tree reads, outside the top-level definition of skip."""
    nodes = [tree]
    if skip is not None:
        nodes = [
            node for node in tree.body
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)
        ]
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return [alias.name for node in imports for alias in node.names]


def _readers() -> tuple[set[str], list[ast.Module]]:
    """Names the README example, the acceptance tests and bench/ read (with the
    strings of spans.WRAPPED, the attributes the tracer rebinds), and the
    library modules' trees."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    read = _loads(ast.parse(example))
    read |= _loads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _loads(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
            ):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    modules = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    ]
    return read, modules


def test_every_export_has_a_reader():
    read, modules = _readers()
    unread = [
        name for name in _exports()
        if name not in read
        and not any(name in _loads(tree, skip=name) for tree in modules)
    ]
    assert unread == []


def test_cli_reads_no_private_name_of_another_module():
    # det-verify prints repeat allocations from records built on detmac's public
    # API, so the command must not reach past it into a module's seams
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hetmac")):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
            if node.module in (None, "hetmac"):  # from . import detmac
                modules |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert "detmac" in modules
    assert private == []


def test_no_module_imports_a_thread_library():
    # a run is one thread: every estimate evaluates its chunks on the calling thread
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append((path.name, node.module))
    assert [(f, m) for f, m in imported if m.split(".")[0] in ("threading", "concurrent")] == []
    assert ("infodensity.py", "numpy") in imported  # the walk reads the imports
