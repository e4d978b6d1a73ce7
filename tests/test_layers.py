"""The lower layers never import the layers built on them."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import signgame

PACKAGE = Path(signgame.__file__).parent
UPPER_LAYERS = {"datagen", "game", "experiment", "cli"}


def package_imports(path: Path) -> set[str]:
    """The signgame modules a source file imports anywhere in its tree, an
    `if TYPE_CHECKING:` block or a function body included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is one level deep
            base = ("signgame." + node.module if node.module else "signgame") if node.level else node.module or ""
            modules = [f"signgame.{alias.name}" for alias in node.names] if base == "signgame" else [base]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("signgame."))
    return found


def test_the_parser_sees_relative_and_absolute_imports(tmp_path):
    assert package_imports(PACKAGE / "game.py") >= {"agents", "datagen", "metrics", "stochastic"}
    source = tmp_path / "sample.py"
    source.write_text(
        "import signgame.game\n"
        "from signgame import cli\n"
        "from . import metrics\n"
        "if TYPE_CHECKING:\n"
        "    from .datagen import Dataset\n"
        "def f():\n"
        "    from signgame.experiment import run_cell\n"
    )
    assert package_imports(source) == {"game", "cli", "metrics", "datagen", "experiment"}


@pytest.mark.parametrize("module", ["stochastic", "metrics", "agents"])
def test_lower_layers_import_no_upper_layer(module):
    assert package_imports(PACKAGE / f"{module}.py") & UPPER_LAYERS == set()
