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


PACKAGE = sorted(path for path in ROOT.glob("src/poslab/*.py") if path.name != "__init__.py")
TESTS = sorted(ROOT.glob("tests/*.py"))


@pytest.mark.parametrize("path", [*PACKAGE, *TESTS], ids=lambda path: path.name)
def test_every_import_is_used(path):
    # __init__ imports to re-export; any other module, and every test file, imports
    # only what it reads
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"unused imports: {sorted(imported - used)}"
