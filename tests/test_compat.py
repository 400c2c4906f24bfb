"""Every source file parses as the oldest Python that pyproject.toml admits.

``ast.parse`` with ``feature_version`` rejects syntax newer than that
version (``except*``, ``type`` aliases, PEP 695 generics), so a newer
interpreter running the tests still catches it.  It cannot see newer
library APIs; the CI leg on that version does.
"""

import ast
import re
from pathlib import Path

import pytest

import arbqubo

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(arbqubo.__file__).parent.glob("*.py"))


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest_python())
