"""The mutant list in ``tools/mutants.py`` stays in step with the code.

Each entry's ``old`` text must occur exactly once in its file, its edited
file must still parse, and each test it names must be a test function of
the named file, so that an edit to the source or the tests cannot leave an
entry that no longer applies or that any test kills by a syntax error.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # dataclass() looks its module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_mutant_names_are_distinct():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_edit_still_parses(mutant):
    # a mutant that only breaks the syntax is killed by any test at import
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    ast.parse(text.replace(mutant.old, mutant.new), filename=mutant.path)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert name in _test_functions(ROOT / path), test
