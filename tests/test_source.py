"""Source-level rules for the package."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "diskeds"


def test_no_assert_statements_in_the_package():
    # asserts vanish under python -O; invariants raise CrossCheckMismatch
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
