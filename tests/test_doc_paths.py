"""Every repository path the documentation cites exists.

A backticked path under ``src/``, ``tests/``, ``bench/``, ``benchmarks/``,
``docs/``, ``examples/`` or ``analysis/`` in README.md, DESIGN.md,
EXPERIMENTS.md or ``docs/*.md`` names a file or directory of this
checkout; a ``::`` suffix (a pytest node id) is ignored, and a glob must
match something.  A rename or deletion that leaves a stale citation
fails here.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "docs").glob("*.md")
)
CITED = re.compile(r"`((?:src|tests|bench|benchmarks|docs|examples|analysis)/[^`\s]*)`")


def _cited_paths() -> dict[str, list[str]]:
    """Each cited path, with the documents that cite it."""
    cited: dict[str, list[str]] = {}
    for doc in DOCS:
        for match in CITED.finditer((ROOT / doc).read_text(encoding="utf-8")):
            cited.setdefault(match.group(1).split("::")[0], []).append(doc)
    return cited


def _exists(path: str) -> bool:
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


def test_documents_cite_paths():
    # The scan finds the citations it is meant to check.
    cited = _cited_paths()
    assert len(cited) >= 40
    assert "tests/data/quickstart.explain.txt" in cited


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_exists(doc):
    missing = [
        path for path, docs in sorted(_cited_paths().items()) if doc in docs and not _exists(path)
    ]
    assert missing == [], f"{doc} cites paths that do not exist: {missing}"
