"""Determinism lint: no module of the package but ``verify`` (whose zone
checks draw their probe points) reads ``numpy.random``, so the solve path
has no random draw and a run is a function of its config."""

import ast
import pathlib

import condenser

PACKAGE = pathlib.Path(condenser.__file__).parent
ALLOWED = {"verify"}


def numpy_random_uses(source: str) -> list:
    """Line numbers at which ``source`` imports or reads ``numpy.random``."""
    tree = ast.parse(source)
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            hit = mod.startswith("numpy.random") or (
                mod == "numpy" and any(a.name == "random" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "random" and isinstance(node.value, ast.Name) \
                and node.value.id in aliases
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_lint_sees_every_form():
    for src in ("import numpy as np\nnp.random.default_rng(0)",
                "import numpy\nnumpy.random.random()",
                "import numpy.random",
                "from numpy import random",
                "from numpy.random import default_rng"):
        assert numpy_random_uses(src), src
    assert not numpy_random_uses("import numpy as np\nnp.linalg.norm(1)")


def test_only_verify_draws_random_numbers():
    users = {path.stem: numpy_random_uses(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert "_pg" in users and "gauss_solver" in users
    offenders = {name: lines for name, lines in users.items()
                 if lines and name not in ALLOWED}
    assert not offenders, offenders
