"""Every public name of the package is used by the CLI, the solver or the
simulator; code only the tests need belongs in tests/_oracles.py.

A name in a module's `__all__` passes when the package's own code reaches it
from the CLI entry points.  Each top-level definition is a node linked to
every name its body mentions, and module-level statements that define
nothing (such as the `__main__` guard) are reached unconditionally.  Names
are matched by spelling alone, which can only over-count uses, never miss
one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cogarq"
ENTRY_POINTS = {"main", "run_experiment", "load_config", "ExperimentConfig", "ConfigError"}


def _mentions(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _package_graph():
    """(public names per module, definition -> mentions, always-reached names)."""
    public, links, roots = {}, {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                links.setdefault(stmt.name, set()).update(_mentions(stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if "__all__" in names:
                    public[path.stem] = ast.literal_eval(stmt.value)
                for name in names:
                    links.setdefault(name, set()).update(_mentions(stmt.value or stmt))
            else:
                roots |= _mentions(stmt)
    return public, links, roots


def test_every_public_name_is_used_by_the_package():
    public, links, roots = _package_graph()
    reached = set()
    frontier = list(ENTRY_POINTS | roots)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(links.get(name, ()))
    unused = sorted(
        f"{module}.{name}"
        for module, names in public.items()
        for name in names
        if name not in reached
    )
    assert not unused, f"public but unused by the CLI, solver or simulator: {unused}"


def _callers(predicate) -> set:
    """The functions of `src/cogarq`, as module.function or
    module.Class.method, whose own bodies make a call that `predicate` picks."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and predicate(child.func):
                found.add(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_the_compact_step_is_evaluated_in_one_place():
    # The model's phase update and reward are called from `mdp.step_table`
    # alone, and the tracker's `update` (imported by name; a dict's
    # `.update(` is another thing) from it and from the true PU's ARQ
    # table.  The kernel, the reachability search and the simulator's walk
    # all read that one table.
    def method(name):
        return lambda f: isinstance(f, ast.Attribute) and f.attr == name

    assert _callers(method("next_cd")) == {"mdp.step_table"}
    assert _callers(method("reward")) == {"mdp.step_table"}
    tracker = lambda f: (isinstance(f, ast.Name) and f.id == "update") or (
        isinstance(f, ast.Attribute) and f.attr == "update"
        and isinstance(f.value, ast.Name) and f.value.id == "pu_tracker")
    assert _callers(tracker) == {"mdp.step_table", "simulator._arq_table"}
