"""Every stage does work linear in the model: counted in calls, not in seconds.

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

Call counts cannot see O(n) work inside one call of a builtin, such as min
over a set or list.remove in a loop that runs once per element: that work
is invisible to the profiler, so it leaves the counts linear.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from pathlib import Path

import pytest

import erdmc
from erdmc.census import census
from erdmc.cli import main
from erdmc.generator import random_model, sized_model
from erdmc.lexer import NAME, tokenize
from erdmc.model import ERModel
from erdmc.parser import parse_model
from test_pinned_outputs import _write_model

ERDMC = Path(erdmc.__file__).parent


def union_source(models: list[ERModel]) -> str:
    """The `.erdm` text of the disjoint union of *models*.

    Copy c (from 1) has each set name and its diagram name suffixed with
    ``_c``, and each restriction label ``Rk`` renumbered ``R(1000c + k)``, so
    labels keep the ``Rnn`` form that generated keys are numbered after.
    The names are renamed at the offsets ``tokenize`` gives; string literals
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
        for kind, value, offset in tokenize(text):
            if kind == NAME and value in renamed:
                pieces += [text[end:offset], renamed[value]]
                end = offset + len(value)
        parts.append("".join(pieces) + text[end:])
    return "".join(parts)


def _call_counts(path: Path, out: Path) -> Counter:
    """Calls of each erdmc function in a full translate and a check of *path*."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        translated = main(["translate", str(path), "-o", str(out / "s.txt"),
                           "--structured", str(out / "s.json"), "--report", str(out / "r.json")])
        checked = main(["check", str(path)])
    finally:
        profile.disable()
    assert (translated, checked) == (0, 0)
    return Counter({
        f"{Path(file).name}:{line} {name}": calls
        for (file, line, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if Path(file).parent == ERDMC
    })


def _nonlinear_calls(model: ERModel, tmp_path: Path) -> dict[str, tuple[int, int, int]]:
    """Each erdmc function whose call count on 1, 2 and 3 copies of *model* is not linear."""
    counts = []
    for n in (1, 2, 3):
        source = union_source([model] * n)
        assert census(parse_model(source)).total == n * census(model).total
        path = tmp_path / f"union{n}.erdm"
        path.write_text(source, encoding="utf-8")
        if n == 1:  # warm the command-line parser's cache, which fills on first use
            main(["validate", str(path)])
        counts.append(_call_counts(path, tmp_path))
    c1, c2, c3 = counts
    return {
        function: (c1[function], c2[function], c3[function])
        for function in c1 | c2 | c3
        if c3[function] - 2 * c2[function] + c1[function] != 0
    }


@pytest.mark.parametrize("seed", range(10))
def test_every_function_is_called_linearly_often_in_the_copies(seed, tmp_path, capsys):
    nonlinear = _nonlinear_calls(random_model(seed), tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "calls at 1, 2 and 3 copies"


def test_every_function_is_called_linearly_often_in_copies_of_a_bulk_model(tmp_path, capsys):
    """Rule (iii) repairs every attribute of a bulk model, one record each."""
    nonlinear = _nonlinear_calls(sized_model(1, 500), tmp_path)
    capsys.readouterr()
    assert nonlinear == {}, "calls at 1, 2 and 3 copies"
