"""erdmc benchmark: compile and check throughput through the command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates its workload's models from the seed and writes them as
`.erdm` files. Then, pass after pass until the time is up, it calls
`erdmc.cli.main(["translate", ...])` and `erdmc.cli.main(["check", ...])`
on each model in this process and verifies every op's output. With
`--trace 0` it prints the end-to-end metrics. With `--trace 1` it
alternates plain and traced passes and prints the per-layer metrics of the
traced ones. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Exit code 2 means the run
could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
FIXTURE = ROOT / "tests" / "fixtures" / "teaching.erdm"
GOLDEN = ROOT / "tests" / "fixtures" / "teaching_scheme.txt"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
CHECK_LINES = [f"{p}: PASS" for p in ("LINEARITY", "SOUNDNESS", "COMPLETENESS", "OPTIMALITY")]

END_TO_END_UNITS = {
    "compile_elems_per_s": "elems/s",
    "check_elems_per_s": "elems/s",
    "compile_ms_p50": "ms",
    "compile_ms_tail": "ms",
    "scaling_exp": "exponent",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics read off each translate op's verified outputs.
OUTPUT_UNITS = {
    "translator.steps": "count",
    "enrichment.actions": "count",
    "emitter.text_bytes": "bytes",
    "emitter.structured_bytes": "bytes",
    "ir.census_elements": "count",
    "ir.scheme_sets": "count",
    "ir.scheme_mappings": "count",
    "ir.scheme_constraints": "count",
    "ir.provenance_entries": "count",
}

# A workload of at least this many models reports a latency percentile as
# its tail; a smaller one reports the latency of its largest model.
TAIL_MIN_MODELS = 100
# The tail percentile leaves at least this many samples beyond it, so one
# slow sample cannot set it alone.
TAIL_SAMPLES = 10

# What a fresh interpreter pays before its first translation is written,
# scaled to nominal machine speed by probes taken before, in and after it.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[3])
from speed import SpeedTicker
with SpeedTicker() as ticker:
    time.sleep(0.1)
    started = time.perf_counter()
    from erdmc import cli
    code = cli.main(["translate", sys.argv[1], "-o", sys.argv[2]])
    ended = time.perf_counter()
    time.sleep(0.1)
print(repr(ticker.scaled(started, ended)))
sys.exit(code)
"""


@dataclass
class Input:
    """One model of the workload, its files, and what its outputs must be."""

    label: str
    elements: int
    path: Path
    out: Path
    expected_tallies: dict
    digests: tuple[str, str, str] | None = None
    outputs: dict = field(default_factory=dict)

    def output(self, suffix: str) -> Path:
        return self.out.with_name(self.out.name + suffix)

    def translate_argv(self) -> list[str]:
        return ["translate", str(self.path), "-o", str(self.output(".txt")),
                "--structured", str(self.output(".json")),
                "--report", str(self.output(".report.json"))]


@dataclass
class Pass:
    """(start, end) of each input's translate and check op, and of every op."""

    traced: bool
    translate_at: list[tuple[float, float]] = field(default_factory=list)
    check_at: list[tuple[float, float]] = field(default_factory=list)
    ops: dict[int, tuple[float, float]] = field(default_factory=dict)


class Run:
    """The measured passes over one workload, and every op's verdict."""

    def __init__(self, inputs: list[Input], recorder=None):
        from erdmc import cli
        from speed import SpeedTicker

        self.cli = cli
        self.inputs = inputs
        self.recorder = recorder
        self.speed = SpeedTicker()
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, reason: str) -> None:
        if len(self.failures) < 5:
            print(f"FAILED: {reason}", file=sys.stderr)
        self.failures.append(reason)

    def op(self, argv: list[str], current: Pass) -> tuple[int, tuple[float, float], str]:
        self.attempted += 1
        if self.recorder is not None and current.traced:
            self.recorder.op = self.attempted
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)  # looked up per call: tracing rebinds it
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crashing op is a failed op, not a failed run
                traceback.print_exc()
                code = -1
        interval = (started, time.perf_counter())
        current.ops[self.attempted] = interval
        if self.recorder is not None:
            self.recorder.op = None
        if code != 0:
            self.fail(f"{argv[0]} {argv[1]} exited {code}: {err.getvalue()[-2000:]}")
        return code, interval, out.getvalue()

    def one_pass(self, traced: bool) -> None:
        current = Pass(traced)
        self.passes.append(current)
        gc.collect()
        for item in self.inputs:
            code, interval, _ = self.op(item.translate_argv(), current)
            current.translate_at.append(interval)
            if code == 0:
                self.verify_translate(item)
            code, interval, stdout = self.op(["check", str(item.path)], current)
            current.check_at.append(interval)
            if code == 0 and stdout.splitlines() != CHECK_LINES:
                self.fail(f"check {item.label}: {stdout!r}")

    def durations(self, passes: list[Pass], kind: str, scaled: bool = True) -> list[list[float]]:
        """Per pass, the time of each input's *kind* op, speed-scaled or wall."""
        time_of = self.speed.scaled if scaled else (lambda start, end: end - start)
        return [[time_of(*at) for at in getattr(p, kind)] for p in passes]

    def verify_translate(self, item: Input) -> None:
        """Full checks on an input's first outputs; byte equality after that."""
        from erdmc.emitter import emit_text, load_structured

        data = [item.output(s).read_bytes() for s in (".txt", ".json", ".report.json")]
        digests = tuple(hashlib.sha256(d).hexdigest() for d in data)
        if item.digests is not None:
            if digests != item.digests:
                self.fail(f"translate {item.label}: output differs from the first pass")
            return
        text, structured, report_text = (d.decode("utf-8") for d in data)
        report = json.loads(report_text)
        tallies = report["tallies"]
        if emit_text(load_structured(structured)) != text:
            self.fail(f"translate {item.label}: structured output does not re-emit the text")
            return
        if len(report["steps"]) != tallies["total"] or tallies != item.expected_tallies:
            self.fail(f"translate {item.label}: step tally differs from the census")
            return
        item.digests = digests
        doc = json.loads(structured)
        item.outputs = {
            "translator.steps": len(report["steps"]),
            "enrichment.actions": len(report["enrichment_actions"]),
            "emitter.text_bytes": len(data[0]),
            "emitter.structured_bytes": len(data[1]),
            "ir.census_elements": item.elements,
            "ir.scheme_sets": len(doc["sets"]),
            "ir.scheme_mappings": sum(len(s["mappings"]) for s in doc["sets"]),
            "ir.scheme_constraints": len(doc["constraints"]),
            "ir.provenance_entries": len(doc["provenance"]),
        }


def prepare(workload, seed: int, work: Path) -> tuple[list[Input], list[str]]:
    """Generate, write and re-read the workload's models (untimed)."""
    from erdm_writer import write_model

    from erdmc.census import census
    from erdmc.enrichment import apply_input_defaults
    from erdmc.parser import parse_model
    from erdmc.translator import TranslationOptions

    dbms_max = TranslationOptions().dbms_max_cardinality
    inputs, problems = [], []
    for i, (label, model) in enumerate(workload.build(seed)):
        text = write_model(model)
        tallies = census(model)
        if census(parse_model(text)) != tallies:
            problems.append(f"{label}: the written model parses to another census")
        path = work / f"m{i:03d}.erdm"
        path.write_text(text, encoding="utf-8")
        # What the translation must tally: the census after the input defaults.
        expected = census(apply_input_defaults(model, dbms_max).model).as_dict()
        inputs.append(Input(label, tallies.total, path, work / f"m{i:03d}", expected))
    return inputs, problems


def measure_setup(work: Path, repeats: int) -> tuple[list[float], list[str]]:
    """Import plus first translate of the teaching fixture, in fresh processes.

    Each output must equal the hand-written golden scheme byte for byte. The
    first process also compiles bytecode, so its time is not kept.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    golden = GOLDEN.read_bytes()
    out = work / "teaching.txt"
    times, problems = [], []
    for i in range(repeats + 1):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(FIXTURE), str(out), str(HERE)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            problems.append(f"set-up translate exited {child.returncode}: {child.stderr[-2000:]}")
            continue
        if out.read_bytes() != golden:
            problems.append("teaching fixture output differs from teaching_scheme.txt")
        if i > 0:
            times.append(float(child.stdout.splitlines()[-1]))
    return times, problems


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least TAIL_SAMPLES of *n* samples above it."""
    p = math.floor(100 * (1 - TAIL_SAMPLES / n)) if n > 0 else 0
    return p if p >= 50 else None


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x): the scaling exponent."""
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(y) for y in ys]).slope


def timing_metrics(
    inputs: list[Input], translate: list[list[float]], check: list[list[float]],
) -> tuple[dict[str, float], dict[str, str]]:
    """The timed end-to-end metrics from per-pass, per-input op times."""
    elements = sum(i.elements for i in inputs)
    # One latency per model, the median over passes, so the sample count and
    # hence the tail percentile do not depend on how many passes fit.
    latency = [statistics.median(p[k] for p in translate) for k in range(len(inputs))]
    checking = [statistics.median(p[k] for p in check) for k in range(len(inputs))]
    counted = f"n={len(inputs)} models, each the median of {len(translate)} passes"
    notes = {"compile_ms_p50": counted}
    pct = tail_percentile(len(inputs)) if len(inputs) >= TAIL_MIN_MODELS else None
    if pct is not None:
        tail = statistics.quantiles(latency, n=100, method="inclusive")[pct - 1]
        notes["compile_ms_tail"] = f"p{pct}, {counted}"
    else:
        largest = max(range(len(inputs)), key=lambda k: inputs[k].elements)
        tail = latency[largest]
        notes["compile_ms_tail"] = (
            f"largest model, {inputs[largest].label}, median of {len(translate)} passes"
        )
    notes["scaling_exp"] = f"log-log slope over {len(inputs)} models"
    metrics = {
        "compile_elems_per_s": elements / sum(latency),
        "check_elems_per_s": elements / sum(checking),
        "compile_ms_p50": statistics.median(latency) * 1e3,
        "compile_ms_tail": tail * 1e3,
        "scaling_exp": loglog_slope([i.elements for i in inputs], latency),
    }
    return metrics, notes


def per_layer(run: Run) -> tuple[dict[str, float], dict[str, str]]:
    from spans import layer_metrics, layer_units

    traced = [p for p in run.passes if p.traced]
    plain = [p for p in run.passes if not p.traced]
    rows = []
    for p in traced:
        scale = {op: run.speed.scaled(*at) / (at[1] - at[0]) for op, at in p.ops.items()}
        rows.append(layer_metrics(run.recorder, scale))
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    for name in OUTPUT_UNITS:
        metrics[name] = sum(i.outputs.get(name, 0) for i in run.inputs)
    metrics["trace.overhead_ratio"] = (
        statistics.median(map(sum, run.durations(traced, "translate_at")))
        / statistics.median(map(sum, run.durations(plain, "translate_at")))
    )
    units = {**layer_units(), **OUTPUT_UNITS, "trace.overhead_ratio": "ratio"}
    return metrics, units


def measure(args, workload, work: Path) -> int:
    started = time.perf_counter()
    setup, problems = measure_setup(work, 0 if args.trace else SETUP_REPEATS)
    inputs, more = prepare(workload, args.seed, work)
    problems += more
    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    run = Run(inputs, recorder)
    prepared = time.perf_counter()
    deadline = prepared + args.seconds
    # Whole passes, so every pass weighs the models alike. Traced runs
    # alternate plain and traced passes, which then share machine conditions.
    with run.speed:
        while True:
            run.one_pass(traced=bool(args.trace) and len(run.passes) % 2 == 1)
            if len(run.passes) >= 1 + args.trace and time.perf_counter() >= deadline:
                break
    measured = time.perf_counter() - prepared

    probe_ms = statistics.median(run.speed.seconds) * 1e3
    notes = {"speed probe": f"median {probe_ms:.3f} ms over {len(run.speed.seconds)} probes; "
                            "times are scaled to the nominal probe speed"}
    if recorder is not None:
        recorder.uninstall()
        metrics, units = per_layer(run)
        notes["per-layer"] = "median over traced passes of per-pass sums"
        recorder.write(RUNS / f"trace-{args.workload}.tsv")
    else:
        translate = run.durations(run.passes, "translate_at")
        metrics, more_notes = timing_metrics(inputs, translate,
                                             run.durations(run.passes, "check_at"))
        notes.update(more_notes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(setup)
        notes["setup_s"] = f"median of n={len(setup)} fresh processes"
        wall, _ = timing_metrics(inputs, run.durations(run.passes, "translate_at", False),
                                 run.durations(run.passes, "check_at", False))
        notes["wall clock"] = "  ".join(f"{k}={v:.6g}" for k, v in wall.items())
        units = END_TO_END_UNITS

    failed = len(run.failures)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    text_sha = hashlib.sha256("".join(i.digests[0] for i in inputs if i.digests).encode())
    json_sha = hashlib.sha256("".join(i.digests[1] for i in inputs if i.digests).encode())
    print(f"workload {args.workload}: seed {args.seed}, {len(inputs)} models, "
          f"{len(run.passes)} passes in {measured:.1f} s after {prepared - started:.1f} s set-up")
    print(f"  models: {workload.generator}")
    print(f"  text_sha256 {text_sha.hexdigest()}")
    print(f"  structured_sha256 {json_sha.hexdigest()}")
    print(f"  fail_ratio {failed / run.attempted:g} ({failed} of {run.attempted} ops)")
    for name, note in notes.items():
        print(f"  {name}: {note}")
    row = "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in metrics.items())
    print(f"row {args.workload} trace={args.trace}  {row}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_workload(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    work = RUNS / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process of its own, then one row per workload."""
    from workloads import WORKLOADS

    rows, status = [], 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
        rows += [line for line in child.stdout.splitlines() if line.startswith("row ")]
    print("\n".join(rows))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="bulk, relational, corpus or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "erdmc" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"no erdmc sources or fixtures under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import erdmc

    if Path(erdmc.__file__).resolve().parent != (SRC / "erdmc").resolve():
        print(f"imported erdmc from {erdmc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
