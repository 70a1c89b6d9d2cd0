"""Layout guards: the library holds no code that only the tests call."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "egf_lab"

# Top-level functions and classes of src/egf_lab that no other src code names:
# only tests call them.  Test-only oracles belong under tests/, so this set may
# only shrink, by moving an entry to tests/ or by giving it a caller in src.
TEST_ONLY = {
    "evolve_normalized_ricci",
    "conformal_killing_factor",
    "check_trace_identity",
    "estimate_eps_leaf",
    "conformal_shift",
    "extrinsic_scalar",
    "classify_extrinsic_ricci_flat",
}


def unnamed_definitions(src: Path) -> set[str]:
    """Names of the top-level functions and classes of the modules in src that
    no top-level statement of src other than their own definition reads."""
    defined, named = set(), set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                names.discard(stmt.name)  # a recursive call is not a caller
            named |= names
    return defined - named


def test_test_only_library_code_only_shrinks():
    assert unnamed_definitions(SRC) == TEST_ONLY


def test_guard_sees_an_uncalled_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Unused:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nVALUE = used()\n")
    assert unnamed_definitions(tmp_path) == {"recursive", "Unused"}
