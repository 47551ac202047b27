"""Source-level rules for the package."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "diskeds"
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_no_assert_statements_in_the_package():
    # asserts vanish under python -O; invariants raise CrossCheckMismatch
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_floats_in_the_package():
    # exact arithmetic only: no float literal, no float(...) call, no
    # import of math (its functions return floats) and from math only its
    # integer functions
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: float literal")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float(...)")
            elif isinstance(node, ast.Import) and any(
                    alias.name == "math" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                    alias.name not in INTEGER_MATH for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: from math import")
    assert found == []



def test_every_top_level_definition_is_reachable_from_the_cli():
    # the package holds only what the CLI runs; reference oracles live in
    # tests/oracles.py.  A function or class outside __init__ is reachable
    # when cli.main or a module-level statement other than an import names
    # it, directly or through a reachable definition.
    refs, todo = {}, ["main"]
    for path in sorted(SRC.glob("[!_]*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = [sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs[(path.stem, node.name)] = names
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo += names
    reached = set()
    while todo:
        name = todo.pop()
        for key, names in refs.items():
            if key[1] == name and key not in reached:
                reached.add(key)
                todo += names
    unreachable = sorted(f"{mod}.{name}" for mod, name in set(refs) - reached)
    assert not unreachable, ", ".join(unreachable)
