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


def unused_module_names(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level def, class or assigned name (dunders
    aside) that no top-level statement of the sources loads, the statement
    that defines it excepted. sources maps module names to their text."""
    defined = []
    loads = []  # (module, statement index, loaded names)
    for module, text in sources.items():
        for index, stmt in enumerate(ast.parse(text).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                names = []
            defined += [(module, index, name) for name in names if not name.startswith("__")]
            used = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
            }
            loads.append((module, index, used))
    return [
        f"{module}.{name}"
        for module, index, name in defined
        if not any(name in used for where, at, used in loads if (where, at) != (module, index))
    ]


def test_the_name_check_sees_unused_classes_constants_and_functions():
    sources = {
        "lower": "LIMIT = 3\nUNUSED = 4\nclass Spare:\n    pass\ndef helper():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n",
        "upper": "from .lower import helper\n__version__ = '1'\ndef main():\n    return helper()\n",
    }
    assert unused_module_names(sources) == ["lower.UNUSED", "lower.Spare", "lower.recursive", "upper.main"]


def test_every_module_level_name_is_used_by_package_code():
    # the profiler guard in test_experiment sees only functions; this one
    # also catches a class or constant that only tests read
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_module_names(sources) == []


# The kernels that run on every iteration of a game. Their preconditions
# hold at the boundaries (Hyperparams, SyntheticConfig, ExperimentConfig,
# init_agent, run_game and install_parameters' floor), so none of them
# re-checks its input. stochastic._row_layout keeps its check and is left
# out: it is cached and runs once per layout.
KERNELS = {
    "stochastic": [
        "sample_dirichlet_rows",
        "_log_gamma_draws",
        "normalize_log_rows",
        "sample_categorical_rows",
        "open_generator",
    ],
    "agents": [
        "_views",
        "posterior_concentrations",
        "install_parameters",
        "update_parameters",
        "observation_log_likelihood",
        "sample_categories",
    ],
    "game": ["acceptance_ratio", "mh_exchange", "gibbs_word", "run_iteration"],
}


def raising_functions(text: str, names) -> list[str]:
    """Those of the named module-level functions of a source text whose body
    holds a raise statement anywhere, nested functions included; a name the
    source does not define counts as raising, so a rename cannot hide one."""
    bodies = {
        stmt.name: stmt for stmt in ast.parse(text).body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return [
        name
        for name in names
        if name not in bodies or any(isinstance(node, ast.Raise) for node in ast.walk(bodies[name]))
    ]


def test_the_raise_check_sees_raises_in_kernels():
    source = (
        "def plain(x):\n    return x\n"
        "def checked(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n"
        "def nested(x):\n    def inner():\n        raise RuntimeError\n    return inner\n"
        "def guarded(x):\n    try:\n        return 1 / x\n    except ZeroDivisionError:\n        raise\n"
    )
    assert raising_functions(source, ["plain", "checked", "nested", "guarded", "missing"]) == [
        "checked",
        "nested",
        "guarded",
        "missing",
    ]


@pytest.mark.parametrize("module", sorted(KERNELS))
def test_per_iteration_kernels_raise_nothing(module):
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert raising_functions(text, KERNELS[module]) == []


def attribute_readers(text: str, attr: str) -> list[str]:
    """The defs of a source text that read the attribute attr, nested ones
    and methods by their dotted path, such as Class.method; a read outside
    any def counts as "<module>"."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope is None else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(text), None)
    return sorted(found)


def test_the_attribute_check_sees_reads_in_functions_methods_and_module_code():
    source = (
        "class Model:\n    def __post_init__(self):\n        return self.variant\n"
        "def plain(agent):\n    return agent.signs\n"
        "def branching(agent):\n    if agent.variant == 'h2h':\n        return 1\n"
        "def nested(agent):\n    def inner():\n        return agent.variant\n    return inner\n"
        "def writer(agent):\n    agent.variant = 'h2h'\n"
        "LABEL = Model().variant\n"
    )
    assert attribute_readers(source, "variant") == ["<module>", "Model.__post_init__", "branching", "nested.inner"]
    assert attribute_readers(source, "signs") == ["plain"]


# The functions that build or read the flat parameter layout, the only ones
# that tell the h2h and t2t variants apart; every other kernel reads the
# tables install_parameters sets.
LAYOUT_FUNCTIONS = {"agents": ["AgentModel.__post_init__", "_views"], "game": []}


@pytest.mark.parametrize("module", sorted(LAYOUT_FUNCTIONS))
def test_only_the_layout_functions_read_the_variant(module):
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert attribute_readers(text, "variant") == LAYOUT_FUNCTIONS[module]


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "stochastic"))
def test_only_stochastic_reads_a_stream_id(module):
    # the rest of the package reaches a derived stream through RngStream's
    # methods (derive, generator, seed_table), never through its raw id
    text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert attribute_readers(text, "stream") == []
