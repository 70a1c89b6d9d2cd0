"""Layout guards: the library holds no code that only the tests call."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "egf_lab"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _names_read(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreachable_definitions(src: Path) -> set[str]:
    """Names of the top-level functions and classes of the modules in src, and
    ``Class.method`` of the methods of the other classes, that no other
    top-level statement of src reaches, directly or through the definitions
    it reaches.

    A class reads its decorators, bases and class-level statements, its
    dunder methods included.  Any other method is reached when its class is
    and some reached code reads its name, as an attribute or a name."""
    reads, owner, names = {}, {}, set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, DEFINITIONS):
                names |= _names_read(stmt)
                continue
            own = reads.setdefault(stmt.name, set())
            for node in ast.iter_child_nodes(stmt):
                if (isinstance(stmt, ast.ClassDef) and isinstance(node, FUNCTIONS)
                        and not _is_dunder(node.name)):
                    key = f"{stmt.name}.{node.name}"
                    reads[key], owner[key] = _names_read(node), stmt.name
                else:
                    own |= _names_read(node)
    reached = set()
    while True:
        new = {key for key in reads.keys() - reached
               if key.rsplit(".", 1)[-1] in names
               and (key not in owner or owner[key] in reached)}
        if not new:  # an unreached class stands for its methods
            unreached = reads.keys() - reached
            return {key for key in unreached if owner.get(key) not in unreached}
        reached |= new
        names = names.union(*(reads[key] for key in new))


def test_library_holds_no_test_only_code():
    # test-only oracles belong under tests/: every definition of src, and
    # every method of its classes, is reached from module-level src code
    assert unreachable_definitions(SRC) == set()


def test_guard_sees_an_uncalled_definition(tmp_path):
    # a recursive call is not a caller, and neither is a definition that
    # nothing reaches: chain_head calls chain_tail, and nothing calls chain_head;
    # Unused.called is not listed, though b.py reads .called: Unused covers it
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "def chain_head():\n    return chain_tail()\n\n\n"
        "def chain_tail():\n    return 2\n\n\n"
        "class Unused:\n    def called(self):\n        return 3\n")
    (tmp_path / "b.py").write_text(
        "from .a import used\n\nVALUE = used()\nSIZE = VALUE.called\n")
    assert unreachable_definitions(tmp_path) == {
        "recursive", "chain_head", "chain_tail", "Unused"}


def test_guard_sees_an_uncalled_method(tmp_path):
    # a method is reached through an attribute read of its name, once its
    # class is; dunders, decorators and bases are read with the class
    (tmp_path / "a.py").write_text(
        "def tag(cls):\n    return cls\n\n\n"
        "class Base:\n    pass\n\n\n"
        "def setup():\n    return 0\n\n\n"
        "@tag\nclass Used(Base):\n"
        "    def __init__(self):\n        self.x = setup()\n\n"
        "    def called(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def uncalled(self):\n        return 2\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n\n"
        "VALUE = Used().called()\n")
    assert unreachable_definitions(tmp_path) == {"Used.uncalled", "Used.recursive"}


def test_one_way_to_a_second_process():
    # cli._beside is the one fork site: one child at a time, with a pipe back
    sites = [(path.name, getattr(stmt, "name", None))
             for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body
             for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and "fork" in _names_read(node.func)]
    assert sites == [("cli.py", "_beside")]
    assert sum(path.read_text().count("os.fork(") for path in SRC.glob("*.py")) == 1
