"""Source hygiene: no module-level import goes unused, no public top-level
name or method in the package is defined for nothing to load, only
errors.py spells an error's reason, and only cli.main prints."""

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "bodyregion"

sys.path[:0] = [str(REPO / "perfbench")]
import tracing  # noqa: E402

# (module, name) pairs perfbench/tracing.py wraps; some modules import a
# name only so that the wrapper can patch it there.
TRACED = {(owner[len("bodyregion."):], attr)
          for owner, attr, _, _ in tracing.BINDINGS
          if owner.startswith("bodyregion.")}

# Library API that no stage loads: the oracles the tests check the fast
# paths against, and the names the acceptance gate or perfbench calls.
LIBRARY_API = {("stats", "cramers_v"), ("cohort", "partition_patients"),
               ("stats", "weighted_sensitivity_exact"),
               ("pixels", "rle_encode_frame")}

# Read by perfbench/run.py for its machine record.
READ_BY_BENCHMARK = {("_kernels", "USE_NUMBA")}


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
            if name not in used and (path.stem, name) not in TRACED]


def test_no_unused_module_level_imports():
    found = {path.name: unused for path in sorted(PACKAGE.glob("*.py"))
             if (unused := unused_imports(path))}
    assert found == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nimport sys\nfrom typing import List, Tuple\n"
                      "x: List[int] = sys.argv\n")
    assert unused_imports(module) == [("os", 1), ("Tuple", 3)]


def reason_spellings(path):
    """Lines of `path` that name an error by `type(...).__name__`, the
    spelling errors.py owns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "__name__"
                  and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Name)
                  and node.value.func.id == "type")


def test_reason_is_spelled_in_errors_only():
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "errors.py" and (lines := reason_spellings(path))}
    assert found == {}


def test_scan_flags_a_reason_spelling(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def f(exc):\n    name = type(exc).__name__\n"
                      "    return f'{type(exc).__name__}: {exc}', "
                      "f.__name__\n")
    assert reason_spellings(module) == [2, 3]


def _defined_names(node):
    """Public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if not n.startswith("_")]


def _loaded_names(*nodes):
    """Identifiers the statements load, as a bare name or an attribute."""
    loaded = set()
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            loaded.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            loaded.add(n.attr)
    return loaded


def _units(node):
    """(defined names, loaded names) of a top-level statement; each method
    of a top-level class is a unit of its own, defining `Class.method`
    when public, and the class's unit is the rest of the class."""
    if not isinstance(node, ast.ClassDef):
        return [(_defined_names(node), _loaded_names(node))]
    methods = [n for n in node.body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    rest = [n for n in node.body if n not in methods]
    return [(_defined_names(node), _loaded_names(
        *node.decorator_list, *node.bases, *node.keywords, *rest))] + [
        ([f"{node.name}.{m.name}"] if not m.name.startswith("_") else [],
         _loaded_names(m)) for m in methods]


def unreached_names(package):
    """(module, name) of each public top-level definition, or public method
    of a top-level class (as `Class.method`), in `package` that no statement
    of it loads, outside the definition itself and `__init__.py`. A class
    loaded only inside its own methods counts as unreached."""
    units = []  # (module, top-level statement index, defined, loaded)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        units.extend((path.stem, (path.stem, i), defined, loaded)
                     for i, node in enumerate(tree.body)
                     for defined, loaded in _units(node))
    unreached = []
    for i, (module, statement, defined, _) in enumerate(units):
        for name in defined:
            method = "." in name
            attr = name.rsplit(".", 1)[-1]
            if not any(attr in loaded for j, (_, other, _, loaded)
                       in enumerate(units)
                       if (j != i if method else other != statement)):
                unreached.append((module, name))
    return unreached


def test_every_public_name_is_reached_or_listed():
    # A traced name is exempt in the module that defines it, too.
    traced = {name for _, name in TRACED}
    assert [(module, name) for module, name in unreached_names(PACKAGE)
            if name.rsplit(".", 1)[-1] not in traced
            and (module, name) not in LIBRARY_API | READ_BY_BENCHMARK] == []


def test_listed_names_exist_and_are_unreached():
    # A listed name that a stage starts to load, or that is deleted,
    # comes off the list.
    unreached = set(unreached_names(PACKAGE))
    for module, name in LIBRARY_API | READ_BY_BENCHMARK:
        assert (module, name) in unreached


def test_scan_flags_an_unreached_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\nSPARE = 4\n\n\ndef used(n):\n    return used(n - 1)\n\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nx = a.LIMIT\n")
    (tmp_path / "__init__.py").write_text("from .a import SPARE\n"
                                          "y = SPARE\n")
    assert unreached_names(tmp_path) == [("a", "SPARE"), ("a", "used"),
                                         ("b", "x")]


def test_scan_flags_an_unreached_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def used(self):\n        return self._size()\n\n"
        "    def spare(self):\n        return Box()\n\n"
        "    def again(self, n):\n        return self.again(n - 1)\n\n"
        "    def _size(self):\n        return 0\n\n\n"
        "class Lone:\n"
        "    def make(self):\n        return Lone()\n")
    (tmp_path / "b.py").write_text("from .a import Box\n\nx = Box().used()\n")
    assert unreached_names(tmp_path) == [
        ("a", "Box.spare"), ("a", "Box.again"), ("a", "Lone"),
        ("a", "Lone.make"), ("b", "x")]


def test_package_root_imports_nothing():
    """Each name has one import path, its own module's: the package root
    holds a docstring and __version__, and re-exports nothing."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_every_traced_binding_resolves():
    """perfbench/run.py --trace 1 patches each binding through its owner's
    __dict__; a missing one would end the run with a KeyError. Installing
    the tracer once patches, and then restores, every binding."""
    with tracing.Tracer("hygiene").installed():
        pass


def print_calls(path, exempt=None):
    """Lines of `path` that call `print`, outside its top-level function
    named `exempt`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = {id(n) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == exempt
               for n in ast.walk(node)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "print" and id(node) not in allowed)


def test_only_cli_main_prints():
    """Stages yield the lines they report, and `cli.main` prints them."""
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := print_calls(
                 path, "main" if path.name == "cli.py" else None))}
    assert found == {}


def test_scan_flags_a_print(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def stage():\n    print('done')\n\n\n"
                      "def main():\n    print('ok')\n\n\n"
                      "class Cli:\n    def main(self):\n        print(1)\n")
    assert print_calls(module) == [2, 6, 11]
    assert print_calls(module, "main") == [2, 11]
