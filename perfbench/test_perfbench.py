"""Tests of the benchmark's own code: writer, statistics, spans and metrics."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads
from erdm_writer import write_model
from erdmc.census import census
from erdmc.generator import random_model, sized_model
from erdmc.parser import parse_model
from spans import SpanRecorder, covered, layer_metrics, self_times

REPO = Path(__file__).resolve().parent.parent

EVERY_CONSTRUCT = r'''
description "quoted \"text\", a back\\slash and a\nnewline"
diagram One {
  entity BASE card 10^3 { }
  entity OTHER card 500 {
    attr Code : ascii(20)
  }
  entity SUB subset_of BASE, OTHER {
    attr Span : [-5, 10^4]
    attr Born : [1/1/1990, today()]
    attr Digits : nat(3)
    attr Age computed = "today() - Born"
    fn Owner -> OTHER
    fn Boss -> BASE computed = "head of Owner"
  }
  relationship LINK {
    role Left -> BASE unique
    role Right -> OTHER
    attr Since
  }
  computed VIEW = "SUB with Span > 0" { }
}
diagram Two {
  entity LONE { attr Only }
}
restriction R01 on SUB subset_of OTHER
restriction R02 on LINK card 10^2
restriction R03 on LONE card 7
restriction R04 on SUB range SUB.Span [0, 5]
restriction R05 on OTHER range Code ascii(8)
restriction R06 on SUB compulsory Span, Owner
restriction R07 on LINK unique Left, Right
restriction R08 on LONE unique Only
restriction R09 on LINK other informal "no \"loops\""
restriction R10 on SUB other formal (forall x in SUB)(Span(x) >= 0 & !(Digits(x) = 3))
restriction R11 on SUB other informal "pairs" formal (forall x, y in SUB)(Span(x) = Span(y) => Code(x) <> "a\"b")
'''


# --- the .erdm writer ---


def test_writer_round_trips_every_construct():
    model = parse_model(EVERY_CONSTRUCT)
    assert parse_model(write_model(model)) == model


def test_writer_round_trips_the_teaching_fixture():
    model = parse_model((REPO / "tests" / "fixtures" / "teaching.erdm").read_text("utf-8"))
    assert parse_model(write_model(model)) == model


@pytest.mark.parametrize("seeds", [range(0, 150), range(150, 300)])
def test_writer_round_trips_random_models(seeds):
    for seed in seeds:
        model = random_model(seed)
        text = write_model(model)
        assert parse_model(text) == model, seed
        assert census(parse_model(text)) == census(model)


def test_writer_round_trips_the_workload_generators():
    for model in (sized_model(4, 4000), random_model(3, **workloads.RELATIONAL_LIMITS)):
        assert parse_model(write_model(model)) == model


# --- order statistics and the scaling fit ---


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(300) == 96
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 98
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(0) is None
    for n in (100, 300, 1234):
        p = run.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 > n * (100 - p - 1) / 100


def test_loglog_slope_recovers_the_exponent():
    xs = [1000, 2000, 4000, 8000]
    assert run.loglog_slope(xs, [3e-6 * x ** 1.4 for x in xs]) == pytest.approx(1.4)
    assert run.loglog_slope([1, 10], [5, 5]) == pytest.approx(0.0)


# --- spans and self time ---


def _recorder(rows):
    """A recorder holding hand-made spans: (name, start, end, parent, op)."""
    recorder = SpanRecorder()
    recorder.spans = [list(r) for r in rows]
    return recorder


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5)]) == 4
    assert covered(0, 10, [(6, 7), (1, 2)]) == 2
    assert covered(2, 8, [(0, 3), (7, 12)]) == 2
    assert covered(0, 10, [(1, 9), (2, 3)]) == 8


def test_self_time_subtracts_only_direct_children():
    rows = [
        ("cli", 0.0, 10.0, -1, 1),
        ("translator", 1.0, 7.0, 0, 1),
        ("enrichment.rules", 2.0, 6.0, 1, 1),
        ("enrichment.next_label", 3.0, 4.0, 2, 1),
        ("emitter.text", 8.0, 9.5, 0, 1),
    ]
    assert self_times([list(r) for r in rows]) == pytest.approx([2.5, 2.0, 3.0, 1.0, 1.5])


def test_layer_metrics_sum_outermost_spans_and_scale_each_op():
    rows = [
        ("cli", 0.0, 10.0, -1, 1),
        ("translator", 1.0, 5.0, 0, 1),
        ("model.lookup", 2.0, 3.0, 1, 1),
        ("model.lookup", 2.2, 2.7, 2, 1),  # nested in a lookup: not counted twice
        ("formula.parse", 6.0, 8.0, 0, 1),
        ("formula.parse", 6.5, 7.0, 4, 1),
        ("cli", 20.0, 21.0, -1, 2),
        ("model.lookup", 20.5, 20.75, 6, 2),  # outside translate
        ("cli", 30.0, 40.0, -1, 3),  # an op not asked for
    ]
    recorder = _recorder(rows)
    recorder.counts[1]["lexer.tokens"] = 40
    recorder.counts[2]["lexer.tokens"] = 2
    m = layer_metrics(recorder, {1: 1.0, 2: 2.0})
    assert m["model.lookup_s"] == pytest.approx(1.0 + 0.25 * 2)
    assert m["model.lookup_calls"] == 3
    assert m["formula.parse_s"] == pytest.approx(2.0)
    assert m["translator.translate_s"] == pytest.approx(4.0)
    assert m["translator.self_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx((10 - 4 - 2) + (1 - 0.25) * 2)
    assert m["model.lookup_share"] == pytest.approx(1.0 / 4.0)
    assert m["lexer.tokens"] == 42
    assert m["enrichment.next_label_calls"] == 0
    assert set(m) == set(spans.layer_units())


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import erdmc.cli
    import erdmc.enrichment
    import erdmc.model
    import erdmc.parser
    import erdmc.translator

    originals = (erdmc.translator.enrich_scheme, erdmc.enrichment.next_label,
                 erdmc.cli.translate, erdmc.model.ERModel.set)
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert erdmc.translator.enrich_scheme is not originals[0]
        assert erdmc.enrichment.enrich_scheme is erdmc.translator.enrich_scheme
        assert erdmc.cli.translate is erdmc.translator.translate is not originals[2]
        source = (REPO / "tests" / "fixtures" / "teaching.erdm").read_text("utf-8")
        recorder.op = 1
        model = erdmc.parser.parse_model(source)
        erdmc.translator.translate(model)
        recorder.op = None
        erdmc.translator.translate(model)  # outside an op: nothing recorded
    finally:
        recorder.uninstall()
    assert (erdmc.translator.enrich_scheme, erdmc.enrichment.next_label,
            erdmc.cli.translate, erdmc.model.ERModel.set) == originals
    names = [s[spans.NAME] for s in recorder.spans]
    assert names.count("translator") == 1
    assert {s[spans.OP] for s in recorder.spans} == {1}
    labels = [i for i, s in enumerate(recorder.spans) if s[spans.NAME] == "enrichment.next_label"]
    assert labels, "the fixture generates a structural key"
    chain = []
    p = recorder.spans[labels[0]][spans.PARENT]
    while p >= 0:
        chain.append(recorder.spans[p][spans.NAME])
        p = recorder.spans[p][spans.PARENT]
    assert chain == ["enrichment.structural_key", "enrichment.rules", "translator"]
    assert names.count("parser") == 1
    assert recorder.counts[1]["lexer.tokens"] > 100


# --- speed scaling and the end-to-end arithmetic ---


def test_scaled_time_removes_probes_and_normalises_speed():
    ticker = speed.SpeedTicker()
    ticker.at = [0.0, 1.0, 2.0, 3.0]
    ticker.seconds = [speed.NOMINAL_S * 2] * 4
    # Half speed throughout: the 1.0 s op less its one probe counts half.
    busy = 1.0 - speed.NOMINAL_S * 2
    assert ticker.scaled(0.5, 1.5) == pytest.approx(busy / 2)
    ticker.seconds = [speed.NOMINAL_S, speed.NOMINAL_S * 3] * 2
    # Harmonic mean of 1x and 3x the nominal time is 1.5x.
    assert ticker.scaled(0.9, 2.1) == pytest.approx(
        (1.2 - speed.NOMINAL_S * 4) / 1.5)


def test_timing_metrics_from_hand_made_times():
    inputs = [run.Input(f"m{n}", n, Path("x"), Path("y"), {}) for n in (100, 200, 400)]
    translate_times = [[0.1, 0.4, 1.6], [0.3, 0.4, 1.6], [0.1, 0.2, 1.6]]
    check_times = [[0.2, 0.2, 0.2]] * 3
    metrics, notes = run.timing_metrics(inputs, translate_times, check_times)
    assert metrics["compile_elems_per_s"] == pytest.approx(700 / 2.1)
    assert metrics["check_elems_per_s"] == pytest.approx(700 / 0.6)
    assert metrics["compile_ms_p50"] == pytest.approx(400)
    assert metrics["compile_ms_tail"] == pytest.approx(1600)
    assert metrics["scaling_exp"] == pytest.approx(2.0)
    assert "largest model" in notes["compile_ms_tail"]


def test_tail_is_a_percentile_on_a_corpus():
    inputs = [run.Input(f"m{k}", 10 + k, Path("x"), Path("y"), {}) for k in range(300)]
    times = [[0.001 * (k + 1) for k in range(300)]]
    metrics, notes = run.timing_metrics(inputs, times, times)
    assert notes["compile_ms_tail"].startswith("p96,")
    # p96 of 1..300 ms, interpolating between the closest ranks 288 and 289
    assert metrics["compile_ms_tail"] == pytest.approx(288.04)
    assert not math.isnan(metrics["scaling_exp"])


# --- the benchmark definition matches what the run reports ---


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {**spans.layer_units(), **run.OUTPUT_UNITS,
                         "trace.overhead_ratio": "ratio"}
    assert bench["workloads"] == [{"name": w.name, "why": w.why}
                                  for w in workloads.WORKLOADS.values()]
