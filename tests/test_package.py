"""Package-level checks: every public name has a caller, every private
top-level definition of the package and every top-level definition of the
tests is read, and the README example runs as written."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "winflow"
TESTS = ROOT / "tests"

# Public names that nothing in src calls, each kept for a stated reason.
# perfbench/tracer.py looks the first five up in their module's __dict__ and
# perfbench/workloads.py calls them, so they leave only with a change to the
# benchmark.  The scipy test of regularized_lower_gamma is the reference
# check of the log lower gamma that erlang_quantile runs.
UNCALLED = {
    "backlog_bound",
    "best_effcap_lower",
    "feedback_mgf_blocks_iid",
    "feedback_mgf_blocks_markov",
    "golden_section_max",
    "regularized_lower_gamma",
}


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _read_names(node: ast.AST) -> set:
    """Names that a piece of code reads, as bare names or attributes.  An
    import alone is not a use."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined(stmt: ast.stmt) -> list:
    """The names a top-level function, class or assignment defines."""
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    return [stmt.name] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else []


def _modules(src: pathlib.Path) -> list:
    """The modules of a directory, parsed.  A package ``__init__`` only
    re-exports and does not count as a caller."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
        if path.stem != "__init__"
    ]


def _unread(modules: list, names: list, reader=_read_names) -> set:
    """The given names that no top-level statement of the modules reads,
    outside their own definition."""
    # (names defined, names read) of every top-level statement
    reads = [(_defined(stmt), reader(stmt)) for tree in modules for stmt in tree.body]
    return {name for name in names if not any(name in read for defined, read in reads if name not in defined)}


def uncalled_public_names(src: pathlib.Path) -> set:
    """Names in a module's ``__all__`` that no code of the package reads."""
    modules = _modules(src)
    return _unread(modules, [name for tree in modules for name in _exported(tree)])


def unread_private_definitions(src: pathlib.Path) -> set:
    """Private top-level functions and classes that no other top-level
    statement of the package reads."""
    modules = _modules(src)
    defs = [stmt.name for tree in modules for stmt in tree.body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    return _unread(modules, [name for name in defs if name.startswith("_")])


def unread_test_definitions(tests: pathlib.Path) -> set:
    """Top-level functions, classes and module constants of the tests,
    other than those pytest collects, that no other top-level statement of
    the tests reads.  A test reads a fixture by naming it as a parameter."""
    modules = _modules(tests)
    names = {name for tree in modules for stmt in tree.body for name in _defined(stmt)}
    return _unread(
        modules,
        [name for name in names if not name.startswith(("test_", "Test"))],
        lambda stmt: _read_names(stmt) | {sub.arg for sub in ast.walk(stmt) if isinstance(sub, ast.arg)},
    )


def test_every_public_name_has_a_caller_or_a_stated_reason():
    assert uncalled_public_names(SRC) == UNCALLED


def test_every_private_definition_is_read():
    assert unread_private_definitions(SRC) == set()


def test_every_test_helper_and_constant_is_read():
    assert unread_test_definitions(TESTS) == set()


def test_readme_python_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) >= 2
    assert float(printed[0]) > 0.0
