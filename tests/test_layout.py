"""Layout guards: the library holds no code that only the tests call."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "egf_lab"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Top-level functions and classes of src/egf_lab that no module-level code of
# src reaches, directly or through the definitions it reads: only tests call
# them.  Test-only oracles belong under tests/, so this set may only shrink, by
# moving an entry to tests/ or by giving it a caller in src.
TEST_ONLY = {
    "PrincipalCurvatureSpectrum",
    "RicciFlatVerdict",
    "_tols",
    "assemble_h_eigen",
    "check_trace_identity",
    "classify_extrinsic_ricci_flat",
    "conformal_killing_factor",
    "conformal_shift",
    "estimate_eps_leaf",
    "extrinsic_ricci_eigen",
    "extrinsic_scalar",
    "power_sums",
}


def _names_read(stmt: ast.stmt) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreachable_definitions(src: Path) -> set[str]:
    """Names of the top-level functions and classes of the modules in src that
    no other top-level statement of src reads, nor any definition it reaches."""
    reads, roots = {}, set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, DEFINITIONS):
                reads.setdefault(stmt.name, set()).update(_names_read(stmt))
            else:
                roots |= _names_read(stmt)
    reached, todo = set(), roots & reads.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (reads[name] & reads.keys()) - reached
    return reads.keys() - reached


def test_test_only_library_code_only_shrinks():
    assert unreachable_definitions(SRC) == TEST_ONLY


def test_guard_sees_an_uncalled_definition(tmp_path):
    # a recursive call is not a caller, and neither is a definition that
    # nothing reaches: chain_head calls chain_tail, and nothing calls chain_head
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "def chain_head():\n    return chain_tail()\n\n\n"
        "def chain_tail():\n    return 2\n\n\n"
        "class Unused:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nVALUE = used()\n")
    assert unreachable_definitions(tmp_path) == {
        "recursive", "chain_head", "chain_tail", "Unused"}
