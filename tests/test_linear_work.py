"""Every stage does work linear in the model: counted in calls and lines, not in seconds.

A command on the disjoint union of n renamed copies of one model must call
each function of erdmc a + b*n times: a fixed number per command and a fixed
number per copy. The second difference of the call counts over n = 1, 2, 3,
c(3) - 2*c(2) + c(1), is then 0 for every function, and a rescan per element
in any stage (the lexer, the parser, validation, translation, enrichment,
the emitters or the audit) makes it positive. The count does not
depend on the speed of the machine, and a failure names the functions that
broke it, by file, line and name.

n = 0 is left out: rule (vii)'s next_label and rule (viii)'s reference
counts run once per pass, and only when some set needs them, so the empty
model would not share the fixed term.

A rescan inside one call, such as a loop over a set's members run once per
member, leaves the call counts linear. So the same rule is applied to the
line events of erdmc's files, counted with sys.settrace: on copies of
models that collapse relationships (rule viii), and on one set that widens,
with n times as many attributes, each ranged and made unique by a
restriction of its own (and again with a formal tuple check on each), on
one set onto which n times as many relationships collapse, and on one
relationship with n times as many attributes, each in a key with a role. A failure
names the lines that broke it, by file and line. Neither count can see O(n)
work inside one call of a builtin, such as min over a set or list.remove in a
loop that runs once per element.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from collections import Counter
from pathlib import Path

import pytest

import erdmc
from erdmc.census import census
from erdmc.cli import main
from erdmc.generator import random_model, sized_model
from erdmc.lexer import NAME
from erdmc.model import ERModel
from erdmc.parser import parse_model
from test_lexer import token_tuples
from test_pinned_outputs import SHAPES, _write_model

ERDMC = Path(erdmc.__file__).parent


def union_source(models: list[ERModel]) -> str:
    """The `.erdm` text of the disjoint union of *models*.

    Copy c (from 1) has each set name and its diagram name suffixed with
    ``_c``, and each restriction label ``Rk`` renumbered ``R(1000c + k)``, so
    labels keep the ``Rnn`` form that generated keys are numbered after.
    The names are renamed at the offsets ``offsets`` gives; string literals
    and comments keep their text.
    """
    write_model = _write_model()
    parts = []
    for c, model in enumerate(models, 1):
        renamed = {s.name: f"{s.name}_{c}" for s in model.object_sets()}
        renamed.update((d.name, f"{d.name}_{c}") for d in model.diagrams)
        renamed.update((r.label, f"R{1000 * c + int(r.label[1:])}") for r in model.restrictions)
        text = write_model(model)
        pieces, end = [], 0
        for kind, value, offset in token_tuples(text):
            if kind == NAME and value in renamed:
                pieces += [text[end:offset], renamed[value]]
                end = offset + len(value)
        parts.append("".join(pieces) + text[end:])
    return "".join(parts)


def _commands(path: Path, out: Path) -> None:
    """A full translate and a check of *path*, each of which must succeed."""
    translated = main(["translate", str(path), "-o", str(out / "s.txt"),
                       "--structured", str(out / "s.json"), "--report", str(out / "r.json")])
    checked = main(["check", str(path)])
    assert (translated, checked) == (0, 0)


def _call_counts(path: Path, out: Path) -> Counter:
    """Calls of each erdmc function in a full translate and a check of *path*."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        _commands(path, out)
    finally:
        profile.disable()
    return Counter({
        f"{Path(file).name}:{line} {name}": calls
        for (file, line, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if Path(file).parent == ERDMC
    })


def _line_counts(path: Path, out: Path) -> Counter:
    """Line events of each erdmc line in a full translate and a check of *path*."""
    counts: Counter = Counter()
    home = str(ERDMC)

    def trace_lines(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if os.path.dirname(frame.f_code.co_filename) == home else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        _commands(path, out)
    finally:
        sys.settrace(previous)
    return Counter({f"{Path(file).name}:{line}": n for (file, line), n in counts.items()})


def _copies(model: ERModel) -> list[str]:
    """The unions of 1, 2 and 3 copies of *model*."""
    sources = [union_source([model] * n) for n in (1, 2, 3)]
    for n, source in enumerate(sources, 1):
        assert census(parse_model(source)).total == n * census(model).total
    return sources


def _nonlinear(count, sources: list[str], tmp_path: Path) -> dict[str, tuple[int, int, int]]:
    """Each key whose *count* on the three *sources* has a second difference other than 0."""
    counts = []
    for n, source in enumerate(sources, 1):
        path = tmp_path / f"model{n}.erdm"
        path.write_text(source, encoding="utf-8")
        if n == 1:  # warm the command-line parser's cache, which fills on first use
            main(["validate", str(path)])
        counts.append(count(path, tmp_path))
    c1, c2, c3 = counts
    return {
        key: (c1[key], c2[key], c3[key])
        for key in c1 | c2 | c3
        if c3[key] - 2 * c2[key] + c1[key] != 0
    }


@pytest.mark.parametrize("seed", range(10))
def test_every_function_is_called_linearly_often_in_the_copies(seed, tmp_path, capsys):
    nonlinear = _nonlinear(_call_counts, _copies(random_model(seed)), tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "calls at 1, 2 and 3 copies"


def test_every_function_is_called_linearly_often_in_copies_of_a_bulk_model(tmp_path, capsys):
    """Rule (iii) repairs every attribute of a bulk model, one record each."""
    nonlinear = _nonlinear(_call_counts, _copies(sized_model(1, 500)), tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "calls at 1, 2 and 3 copies"


# The first seeds of random_model whose translation collapses a relationship.
COLLAPSING_SEEDS = (13, 15, 28)


@pytest.mark.parametrize("seed", COLLAPSING_SEEDS)
def test_every_line_runs_linearly_often_in_copies_of_a_collapsing_model(seed, tmp_path, capsys):
    nonlinear = _nonlinear(_line_counts, _copies(random_model(seed)), tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "line events at 1, 2 and 3 copies"


def wide_source(width: int) -> str:
    """One entity of *width* attributes, each with a unique and a range restriction."""
    names = [f"a{k}" for k in range(1, width + 1)]
    return (
        "diagram D {\n  entity A {" + "".join(f" attr {a}" for a in names) + " }\n}\n"
        + "".join(f"restriction R{2 * k - 1} on A unique {a}\n"
                  f"restriction R{2 * k} on A range {a} ascii(8)\n"
                  for k, a in enumerate(names, 1))
    )


# The width of the set at n = 1.
WIDTH = 10


def test_every_line_runs_linearly_often_as_one_set_widens(tmp_path, capsys):
    nonlinear = _nonlinear(_line_counts, [wide_source(WIDTH * n) for n in (1, 2, 3)], tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "line events at widths 1, 2 and 3 times the base"


def checked_source(width: int) -> str:
    """wide_source's set, with a formal tuple check on each attribute as well."""
    return wide_source(width) + "".join(
        f'restriction R{2 * width + k} on A other formal (forall x in A)(a{k}(x) = "v")\n'
        for k in range(1, width + 1)
    )


def test_every_line_runs_linearly_often_as_one_checked_set_widens(tmp_path, capsys):
    nonlinear = _nonlinear(_line_counts, [checked_source(WIDTH * n) for n in (1, 2, 3)], tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "line events at widths 1, 2 and 3 times the base"


def home_source(count: int) -> str:
    """One entity H, and *count* relationships that collapse onto it (rule viii)."""
    return "diagram D {\n  entity H { attr h }\n" + "".join(
        f"  entity F{i} {{ attr b }}\n  relationship R{i} {{ role p -> H unique role q -> F{i} }}\n"
        for i in range(count)
    ) + "}\n"


def test_every_line_runs_linearly_often_as_relationships_collapse_onto_one_home(tmp_path, capsys):
    nonlinear = _nonlinear(_line_counts, [home_source(WIDTH * n) for n in (1, 2, 3)], tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "line events at 1, 2 and 3 times the base count"


def test_every_line_runs_linearly_often_as_one_keyed_relationship_widens(tmp_path, capsys):
    """Each attribute of the relationship joins its role p in a key of its own."""
    sources = [SHAPES["implicit-keys"](WIDTH * n) for n in (1, 2, 3)]
    nonlinear = _nonlinear(_line_counts, sources, tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "line events at widths 1, 2 and 3 times the base"
