"""The benchmark's correctness reference stays independent of senvr.

``bench/reference.py`` recomputes every verdict from rank vectors, and the
benchmark compares senvr's output against it.  That comparison means
something only while neither side imports the other, so the imports of
both are read here with ``ast``; nothing under ``bench/`` is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference.py"
PACKAGE = ROOT / "src" / "senvr"


def imported_modules(path):
    """Dotted names of the modules that ``path`` imports, relative ones
    with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_reference_imports_no_senvr_module():
    modules = imported_modules(REFERENCE)
    assert "numpy" in modules
    assert not [name for name in modules if name.split(".")[0] == "senvr"]


def test_no_senvr_module_imports_the_reference_or_the_bench():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "cli.py" in sources
    for path in sources:
        modules = imported_modules(path)
        assert modules, path
        for name in modules:
            assert name.lstrip(".").split(".")[0] not in ("reference", "bench"), (path, name)
