"""The ``csflab`` namespace holds exactly what its callers reach through it."""

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
    sources = [
        (ROOT / "tests" / "test_acceptance.py").read_text(),
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
