"""Plate-law lint: ``verify`` decides in one place each which nodes of a
plate lie in its boundary zone and whether the plate is a domain complement.
``boundary_zone`` is called only in ``_boundary_zone``, and the unbounded
geometries are named only in ``_domain_probes``, which picks the sampler of
D after ``zone_checks_apply`` has admitted the plate: whether a plate is a
domain complement is read from its truncation radius (``model.PLATE_KEYS``),
never from a list of tags."""

import ast
import pathlib

import condenser
from condenser.model import PLATE_KEYS
from test_pivot_lint import callers

VERIFY = pathlib.Path(condenser.__file__).parent / "verify.py"
UNBOUNDED = {tag for tag, keys in PLATE_KEYS.items() if "truncation" in keys}


def geometry_names(source: str, tags: set) -> list:
    """Top-level function of ``source`` around each string literal equal to
    one of ``tags``, in source order; None outside functions."""
    out = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in tags:
                out.append(top.name if isinstance(top, ast.FunctionDef)
                           else None)
    return out


def test_lint_finds_geometry_names():
    source = ('KINDS = ("half_space", "disk")\n'
              'def f(spec):\n    return spec.tag in ("ball_complement",)\n'
              'def g(spec):\n    """A half_space plate."""\n'
              '    return getattr(spec, "tag", None) == "ball"\n')
    assert geometry_names(source, UNBOUNDED) == [None, "f"]


def test_verify_reads_each_plate_law_in_one_place():
    source = VERIFY.read_text()
    assert UNBOUNDED == {"ball_complement", "half_space"}
    assert callers(source, "boundary_zone") == ["_boundary_zone"]
    assert geometry_names(source, UNBOUNDED) == ["_domain_probes"]
