"""Layering lint: every subcommand's problem is built in ``scenarios``, and
``cli`` only loads a config, merges the flags, runs and prints.  So ``cli``
imports nothing from ``condenser.model`` and constructs no geometry or Green
context, and ``scenarios`` exposes only its scenario type, its ``build_*``
functions, the built-in examples and the sweep plane.  ``model`` sits below
``kernel``: it imports nothing from ``condenser.kernel``, not even inside a
function."""

import ast

from test_pairwise_lint import PACKAGE, calls_by_function

# public names of scenarios besides its build_* functions
SCENARIO_NAMES = {"Scenario", "EXAMPLES", "ex1_config", "ex2_config",
                  "example_one", "example_two", "ball_in_ball",
                  "sweep_plane_context"}


def module_imports(source: str, name: str) -> list:
    """Line numbers of the imports of ``condenser.<name>`` or of names from
    it, absolute or relative, at module level or inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names
                      if a.name == f"condenser.{name}"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module in (name, f"condenser.{name}") or (
                    module in ("", "condenser") and name in names):
                found.append(node.lineno)
    return found


def public_names(source: str) -> set:
    """Module-level functions, classes and assigned names that do not start
    with an underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_lint_sees_model_imports():
    src = ("from .model import NodeSet\nfrom . import model\n"
           "import condenser.model\nfrom condenser.model import x\n"
           "from .kernel import potential\n"
           "def f():\n    from . import kernel as _kernel\n")
    assert module_imports(src, "model") == [1, 2, 3, 4]
    assert module_imports(src, "kernel") == [5, 7]


def test_cli_imports_nothing_from_model():
    assert module_imports((PACKAGE / "cli.py").read_text(), "model") == []


def test_model_imports_nothing_from_kernel():
    assert module_imports((PACKAGE / "model.py").read_text(), "kernel") == []


def test_cli_builds_no_geometry_and_no_green_context():
    model = ast.parse((PACKAGE / "model.py").read_text())
    built = {node.name for node in model.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    built |= {"GreenContext", "sweep_plane_context"}
    cli = (PACKAGE / "cli.py").read_text()
    assert [name for name in sorted(built)
            if calls_by_function(cli, name)] == []


def test_lint_sees_public_names():
    src = "def require():\n    pass\ndef _read():\n    pass\nX = 1\n_Y = 2\n"
    assert public_names(src) == {"require", "X"}


def test_scenarios_exposes_only_its_builders_and_examples():
    names = public_names((PACKAGE / "scenarios.py").read_text())
    assert {n for n in names if not n.startswith("build_")} == SCENARIO_NAMES
    assert {n for n in names if n.startswith("build_")} == {
        "build_scenario", "build_balayage", "build_capacity", "build_sweep"}
