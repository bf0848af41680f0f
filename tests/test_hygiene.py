"""Source hygiene: no module-level import in the package goes unused."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bodyregion"

# Imported only so that perfbench/tracing.py can patch the name there.
KEPT_FOR_TRACING = {("cli", "train_centroid_baseline"),
                    ("report", "bootstrap_ci")}


def _imported_names(tree):
    """(bound name, line) of every module-level import statement."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used and (path.stem, name) not in KEPT_FOR_TRACING]


def test_no_unused_module_level_imports():
    found = {path.name: unused for path in sorted(PACKAGE.glob("*.py"))
             if (unused := unused_imports(path))}
    assert found == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nimport sys\nfrom typing import List, Tuple\n"
                      "x: List[int] = sys.argv\n")
    assert unused_imports(module) == [("os", 1), ("Tuple", 3)]
