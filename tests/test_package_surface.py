"""The ``csflab`` namespace holds exactly what its callers reach through it,
and every public function and class of the package has a caller."""

import ast
import re
from pathlib import Path

import csflab

ROOT = Path(__file__).resolve().parents[1]

# `cs.<name>` with `import csflab as cs`; the lookbehind skips `diagnostics.`
_CS_NAME = re.compile(r"(?<![\w.])cs\.(\w+)")


def _readme_entry_points() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library entry points", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def _names_used() -> set[str]:
    # the acceptance gate with the shared references its criterion 10 reads
    sources = [
        (ROOT / "tests" / "test_acceptance.py").read_text(),
        (ROOT / "tests" / "reference.py").read_text(),
        (ROOT / "perfbench" / "workloads.py").read_text(),
        _readme_entry_points(),
    ]
    return {name for text in sources for name in _CS_NAME.findall(text)}


def test_every_name_the_callers_use_is_exported():
    used = _names_used()
    assert used, "no cs.<name> found in the callers"
    assert sorted(used - set(csflab.__all__)) == []
    for name in used:
        assert hasattr(csflab, name)


def test_the_namespace_holds_nothing_beyond_its_callers():
    assert sorted(set(csflab.__all__) - _names_used() - {"__version__"}) == []
    assert len(csflab.__all__) == len(set(csflab.__all__))


# public names that nothing calls yet, each with the reason it stays
UNCALLED = {
    # the paper's graph-curve condition: ROADMAP item 9 gives it a caller
    ("helix", "graph_curve_condition"),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions() -> set[tuple[str, str]]:
    found = set()
    for path in sorted((ROOT / "src" / "csflab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                found.add((path.stem, node.name))
    return found


def _names_read(top: ast.stmt) -> set[str]:
    # the Name and Attribute nodes of one top-level statement, less the name
    # that the statement itself defines, which a recursive call would read
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    if isinstance(top, DEFINITIONS):
        names.discard(top.name)
    return names


def _names_called() -> set[str]:
    # an import reads no Name, so being imported is not a call
    return {
        name
        for folder in ("src", "tools", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for top in ast.parse(path.read_text()).body
        for name in _names_read(top)
    }


def test_every_public_function_and_class_has_a_caller():
    called = _names_called() | set(csflab.__all__)
    uncalled = {
        (module, name)
        for module, name in _public_definitions()
        if name not in called
    }
    assert sorted(uncalled - UNCALLED) == []
    # an exception whose name has found a caller, or is gone, leaves the list
    assert sorted(UNCALLED - uncalled) == []


def _exported(tree: ast.Module) -> set[str]:
    # the strings of a module's __all__, which reads what it re-exports
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted((ROOT / "src" / "csflab").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = _exported(tree) | {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append((path.stem, bound))
    assert unread == []


def _package_imports(module: str) -> set[str]:
    # the csflab modules that one module imports, anywhere in its body:
    # relative imports, and absolute ones of csflab or csflab.<module>
    found = set()
    tree = ast.parse((ROOT / "src" / "csflab" / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "csflab"
        ):
            base = (node.module or "").removeprefix("csflab").lstrip(".")
            found |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "csflab":
                    found.add(rest.split(".")[0] or "csflab")
    return found


def test_the_laws_home_imports_only_the_errors():
    # helix holds the closed-form laws that flow and sphere read, so it may
    # import nothing that imports them back; errors imports no csflab module
    assert _package_imports("errors") == set()
    assert _package_imports("helix") == {"errors"}
    assert "flow" not in _package_imports("presets")
