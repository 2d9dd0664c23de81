"""Every file of the package and of its tests parses as Python 3.10, the oldest version
the package supports (pyproject's requires-python), so syntax that needs a later version
fails here and not only on a 3.10 run."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/poslab/**/*.py"), *ROOT.glob("tests/**/*.py")])


def test_sources_found():
    assert ROOT / "src" / "poslab" / "positivity.py" in SOURCES
    assert pathlib.Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
