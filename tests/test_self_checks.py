import ast
import hashlib
import types
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


def test_only_rng_turns_streams_into_values():
    # one draw interface: outside rng.py no module reads np.random, asks
    # RngSpec for a generator or names the private rewind; one-off draws go
    # through its row methods.  (runner.py imports numpy.random before it
    # forks, and draws nothing)
    paths = sorted(SRC.glob("*.py"))
    assert {"rng.py", "scheduling.py", "lattice.py"} <= {p.name for p in paths}
    found = []
    for path in paths:
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
            hit |= (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("generator", "generators"))
            hit |= (isinstance(node, ast.Name) and node.id == "_rewound")
            hit |= (isinstance(node, ast.Attribute)
                    and node.attr == "_rewound")
            hit |= (isinstance(node, ast.ImportFrom)
                    and any(a.name == "_rewound" for a in node.names))
            if hit:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


MODELS = {"compatibility", "embedding", "environment", "lattice",
          "scheduling"}
SHARED = {"words", "rng", "runner", "stats", "errors", "_lazy", "_record"}


def _package_imports(path):
    """Short names of the package modules a module imports.  The package
    imports its own modules by relative imports only."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module
                         else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            absolute = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else [node.module]
            assert not any(m.split(".")[0] == "clairvoyant"
                           for m in absolute), path.name
    return names


def test_models_import_only_shared_layers():
    # two layers: a model module imports the shared ones and no other
    # model, and a shared module imports no model
    paths = {p.stem: p for p in SRC.glob("*.py")}
    assert MODELS | SHARED <= set(paths)
    graph = {name: _package_imports(paths[name]) for name in MODELS | SHARED}
    assert {name: sorted(graph[name] - SHARED) for name in MODELS} == \
        {name: [] for name in MODELS}
    assert {name: sorted(graph[name] & MODELS) for name in SHARED} == \
        {name: [] for name in SHARED}
    assert "lattice" not in graph["scheduling"] | graph["environment"]
    assert "environment" not in graph["scheduling"]
    assert {"words", "runner"} <= graph["scheduling"]


def test_public_names_pinned():
    # __all__ is derived from what __init__.py imports; these are the 76
    # names it once listed by hand, sorted and joined by newlines
    names = sorted(clairvoyant.__all__)
    assert len(names) == 76
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == \
        "ae016da5e45a43207f21fd12f978c13914981d3acde17aa9da77f37675f8e9d8"
    assert [n for n in names if n.startswith("_") or isinstance(
        getattr(clairvoyant, n), types.ModuleType)] == []
