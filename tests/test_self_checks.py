import ast
from pathlib import Path

import clairvoyant

SRC = Path(clairvoyant.__file__).parent


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; self-checks raise
    # PropertyViolation instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
