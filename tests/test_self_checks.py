import ast
from pathlib import Path

import clairvoyant

SRC = Path(clairvoyant.__file__).parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; self-checks raise
    # PropertyViolation instead, and demos exit non-zero
    paths = sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    # an empty glob would pass without looking at any module
    assert {"embedding.py", "lattice.py", "cli.py",
            "compatibility_horizon.py"} <= {p.name for p in paths}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
