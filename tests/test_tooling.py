"""Checks on the source tree itself, not on what the compiler does."""

from __future__ import annotations

import ast
from collections import Counter
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


def _passes_true(decorator: ast.expr, keyword: str) -> bool:
    """True iff *decorator* is a call that passes ``keyword=True``."""
    return isinstance(decorator, ast.Call) and any(
        k.arg == keyword and isinstance(k.value, ast.Constant) and k.value.value is True
        for k in decorator.keywords)


def test_model_records_are_slotted():
    # A frozen model record is built once per element: slots make that
    # cheaper. A class with a cached_property needs its __dict__ to cache into.
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    frozen, unslotted = [], []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for decorator in cls.decorator_list:
            if _passes_true(decorator, "frozen"):
                frozen.append(cls.name)
                caches = "cached_property" in _names_used(cls)
                if not caches and not _passes_true(decorator, "slots"):
                    unslotted.append(cls.name)
    assert "ObjectSet" in frozen and "ERModel" in frozen
    assert unslotted == []


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
SRC_LINES = 4213


def test_src_holds_no_more_lines_than_recorded():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    assert lines <= SRC_LINES, (
        f"src/erdmc holds {lines} lines, over the {SRC_LINES} recorded in SRC_LINES: a change "
        "that needs the lines raises SRC_LINES and says why in CHANGES.md")
