"""The documentation and the code name the same ``REPRO_*`` variables.

A variable counts as read where a Python file holds its name as a whole
string constant: ``os.environ.get("REPRO_CHECK")``, ``monkeypatch.setenv``
and ``LEDGER_ENV = "REPRO_LEDGER"`` all do; a docstring that mentions one
in passing does not.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = (
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
)
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def documented() -> set[str]:
    return {
        name
        for path in DOCS
        for name in NAME.findall(path.read_text(encoding="utf-8"))
    }


def read_under(*dirs: str) -> set[str]:
    names: set[str] = set()
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and NAME.fullmatch(node.value)
                ):
                    names.add(node.value)
    return names


def test_every_documented_variable_is_read():
    unread = documented() - read_under("src", "bench", "benchmarks", "tests")
    assert not unread, f"documented but read nowhere: {sorted(unread)}"


def test_every_variable_read_in_src_is_documented():
    undocumented = read_under("src") - documented()
    assert not undocumented, f"read in src/ but undocumented: {sorted(undocumented)}"
