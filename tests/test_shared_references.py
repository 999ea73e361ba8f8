"""The tests' shared helpers live once, in ``reference.py``: no test module
defines a top-level function of the same name, and the test modules import
helpers from ``reference`` and from no other test module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(TESTS.glob("test_*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, FUNCTIONS)}


def _modules_imported(path: Path) -> set[str]:
    # the top-level name of every module imported anywhere in the file
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
    return found


def test_no_test_module_redefines_a_shared_helper():
    shared = _functions(TESTS / "reference.py")
    assert shared
    redefined = [
        (path.name, name) for path in TEST_MODULES for name in sorted(_functions(path) & shared)
    ]
    assert redefined == []


def test_helpers_come_from_reference_and_no_other_test_module():
    test_modules = {path.stem for path in TEST_MODULES}
    imported = [
        (path.name, module)
        for path in [*TEST_MODULES, TESTS / "reference.py"]
        for module in sorted(_modules_imported(path) & test_modules)
    ]
    assert imported == []
