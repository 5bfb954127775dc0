"""Checks on the source tree itself, not on what the compiler does."""

from __future__ import annotations

import ast
import dataclasses
import importlib
from collections import Counter
from functools import cached_property
from pathlib import Path

import erdmc

SRC = Path(erdmc.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"


def _top_level_names(tree: ast.Module):
    """Each top-level function, class or constant of *tree*, with its statement."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            yield statement.name, statement
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    yield target.id, statement
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            yield statement.target.id, statement


def _names_used(node: ast.AST) -> set[str]:
    """Every name that *node* reads, bare or as an attribute; imports are no use."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
    return used


def _member_uses(node: ast.AST) -> Counter[str]:
    """How often *node* names each member: as an attribute, or as a string
    such as "member" or "Class.member" (getattr, the benchmark's layer table)."""
    used: Counter[str] = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            used[child.attr] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            used[child.value.rpartition(".")[2]] += 1
    return used


def _source_trees() -> dict[Path, ast.Module]:
    """src/ but __init__, which only re-exports, and perfbench/; tests do not count."""
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(PERFBENCH.glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}


def test_every_top_level_name_in_src_has_a_caller():
    # A caller is any statement of src/ or perfbench/ but the definition itself.
    trees = _source_trees()
    uses = [(statement, _names_used(statement))
            for tree in trees.values() for statement in tree.body]
    unused = []
    for path in trees:
        if path.parent != SRC:
            continue
        for name, definition in _top_level_names(trees[path]):
            if not any(name in used for statement, used in uses if statement is not definition):
                unused.append(f"{path.stem}.{name}")
    assert PERFBENCH / "run.py" in trees
    assert unused == []


def test_every_method_and_property_in_src_has_a_caller():
    # The class-member half of the check above: a method or property counts
    # as used when some attribute access or string outside its own body names
    # it. Python calls the dunder methods itself.
    trees = _source_trees()
    total = sum((_member_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                name = member.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if total[name] == _member_uses(member)[name]:
                    unused.append(f"{path.stem}.{cls.name}.{name}")
    assert unused == []


def test_only_the_diagnostics_module_builds_a_diagnostic():
    # Every finding goes through Diagnostics.add, so its arguments come in
    # one order: code, element, message, severity.
    builders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "diagnostics.py":
            continue
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "Diagnostic":
                    builders.append(f"{path.stem}:{call.lineno}")
    assert builders == []


def test_src_holds_no_assert():
    # An assert vanishes under python -O, and otherwise ends in a traceback
    # where a command should end in an exit code and a diagnostic.
    asserts = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_src_records_are_slotted():
    # A record is built once per element: slots make that cheaper. A class
    # with a cached_property needs its __dict__ to cache into.
    modules = [importlib.import_module(f"erdmc.{path.stem}")  # erdmc.census is also a function
               for path in sorted(SRC.glob("*.py")) if path.stem != "__main__"]
    classes = [cls for module in modules for cls in vars(module).values()
               if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    frozen = [cls.__name__ for cls in classes if cls.__dataclass_params__.frozen]
    cached = [cls.__name__ for cls in classes
              if any(isinstance(v, cached_property) for v in vars(cls).values())]
    unslotted = [cls.__name__ for cls in classes
                 if "__slots__" not in vars(cls) and cls.__name__ not in cached]
    assert "ObjectSet" in frozen and "ERModel" in frozen
    assert unslotted == []
    assert cached == ["ERModel"] and "__slots__" not in vars(erdmc.ERModel)
    # record generates each __init__ itself, so dataclass writes none; ERModel is the exception.
    assert [cls.__name__ for cls in classes
            if cls.__dataclass_params__.frozen and cls.__dataclass_params__.init] == ["ERModel"]
    assert len(classes) == 41
    # One decorator builds them all.
    homes = [path.stem for path in SRC.glob("*.py")
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef) and node.name == "record"]
    assert homes == ["diagnostics"]


def test_report_records_are_named_tuples():
    # One of each is built per finding, rule firing or question.
    records = {"diagnostics.py": {"Diagnostic"},
               "enrichment.py": {"EnrichmentAction", "Question", "PendingQuestion"},
               "translator.py": {"ImplicitKeyNote"}}
    found = {}
    for file, names in records.items():
        for cls in ast.parse((SRC / file).read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef) and cls.name in names:
                found[cls.name] = [ast.unparse(base) for base in cls.bases]
    assert found == {name: ["NamedTuple"] for names in records.values() for name in names}


# The lines of src/erdmc/*.py, blank lines and comments included, as `wc -l` counts them.
SRC_LINES = 4204


def test_src_holds_no_more_lines_than_recorded():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    assert lines <= SRC_LINES, (
        f"src/erdmc holds {lines} lines, over the {SRC_LINES} recorded in SRC_LINES: a change "
        "that needs the lines raises SRC_LINES and says why in CHANGES.md")
