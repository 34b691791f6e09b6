"""Workloads, set-up, timed ``portview report`` children and the traced run.

End-to-end numbers come from ``portview report`` run as a child process, one
at a time; ``launch.py`` reads each child's CPU time and peak RSS with
``os.wait4`` on that child alone. Their times are given in reference
seconds: each is divided by the time of ``reference.py``, a fixed
computation run right before and after it (see ``measure_end_to_end``).
Per-layer numbers come from a separate in-process run of
``cli.run_pipeline`` under ``spans.traced``, in plain seconds.

Each workload draws one base dataset from a fixed generator seed; the
benchmark seed picks one of ``VARIANTS`` relabelings of it (solver and
instance ids shuffled). Relabeling changes every id-ordered decision of the
program (sorting, tie-breaks, search order) but keeps the arithmetic: at
these sizes independently drawn datasets differ by about 10% in the bit
length of their exact rationals, and the run time follows, which would hide
changes smaller than that. Every bundle, from a child or in-process, is
checked against the digest pinned for its variant in ``pins.json``; the
traced run also checks the exact invariants and the workload's shape facts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from portview import cli
from portview.convert import convert_table
from portview.portfolio import perf
from portview.runstore import Dataset, write_canonical

import datagen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
PINS = HERE / "pins.json"
VARIANTS = 8
SETUP_BATCH_S = 0.1  # set-up time repeated before each timed child
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], Dataset]
    options: dict = field(default_factory=dict)  # ReportConfig fields beyond the defaults

    @property
    def mode(self) -> str:
        return self.options.get("mode", cli.ReportConfig.mode)

    def report_args(self) -> list[str]:
        args = []
        for key, value in self.options.items():
            args += [f"--{key}", ",".join(value) if isinstance(value, tuple) else str(value)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        # Exact big-rational path: 2^8 - 1 coalitions, huge denominators, render cost.
        Workload(
            "exact-m100",
            lambda rng: datagen.random_grid(rng, 8, 100),
            {"scenario": "all", "mode": "exact", "formats": ("csv", "text")},
        ),
        # Exhaustive tradeoff over 2^14 - 1 subsets; sampled Shapley, no big rationals.
        Workload(
            "sampled-n14",
            lambda rng: datagen.random_grid(rng, 14, 20),
            {"scenario": "all", "mode": "sampled", "samples": 1000},
        ),
        # Track width: 30 solvers x 250 instances, Borda-heavy, small cover with 32 optima.
        Workload(
            "ties-m250",
            lambda rng: datagen.family_ties(rng, (12, 19, 25, 31, 31, 38, 44, 50), 14, 3),
        ),
        # Harness self-check only: every stage on 3 solvers x 5 instances.
        Workload("tiny", lambda rng: datagen.random_grid(rng, 3, 5)),
    )
}
BENCHMARK_WORKLOADS = ("exact-m100", "sampled-n14", "ties-m250")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def data_path(workload: Workload) -> Path:
    return WORK / workload.name / "data.csv"


def bundle_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode("utf-8") + b"\0")
    return h.hexdigest()


def setup(workload: Workload, variant: int, min_s: float = 0.0) -> list[float]:
    """Generate the dataset and write it, repeated until ``min_s`` has passed.

    Returns the time each set-up took.
    """
    path = data_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    times: list[float] = []
    texts = set()
    while not times or sum(times) < min_s:
        start = time.perf_counter()
        base = workload.make(random.Random(f"{workload.name}:base"))
        ds = datagen.relabel(base, random.Random(f"{workload.name}:{variant}"))
        text = write_canonical(ds)
        path.write_text(text, encoding="utf-8")
        times.append(time.perf_counter() - start)
        texts.add(text)
    if len(texts) != 1:
        raise RuntimeError(f"{workload.name}: generator is not deterministic")
    return times


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    digest: str | None = None


def run_child(argv: list[str], out_dir: Path | None, log: Path) -> ChildRun:
    """Run one child to completion through ``launch.py``; digest its bundle."""
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(log), str(CHILD_TIMEOUT_S), "--"]
    done = subprocess.run(
        launcher + argv, env=_child_env(), capture_output=True, text=True, check=True
    )
    run = ChildRun(**json.loads(done.stdout))
    if out_dir is not None and run.returncode == 0:
        files = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
        run.digest = bundle_digest(files)
    return run


def report_config(workload: Workload) -> cli.ReportConfig:
    path = data_path(workload)
    return cli.ReportConfig(data=str(path), out_dir=str(path.parent / "out"), **workload.options)


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> Result:
    """Time ``portview report`` children, one at a time, for about ``seconds``.

    Every child, and the set-ups before it, sit between two runs of
    ``reference.py``. Each time is divided by the mean of its two reference
    runs, so the times come out in seconds at the speed at which the
    reference takes 1 s (CPU time by the references' CPU time). On a shared
    machine whose speed changes by tens of percent within seconds and over
    minutes, the raw times of two runs of the same code differ by that much;
    the reference, measured next to them, changes with them. All of it runs on
    one CPU, so that a child and its references meet the same CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    variant = variant_of(seed)
    pin = load_pins()[workload.name][variant]
    cfg = report_config(workload)
    out_dir = Path(cfg.out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    log = out_dir.parent / "child.log"
    warm = run_child([sys.executable, "-c", "import portview.cli"], None, log)
    if warm.returncode != 0:
        raise RuntimeError("cannot import portview.cli in a child process")

    def reference() -> ChildRun:
        ref = run_child([sys.executable, str(HERE / "reference.py")], None, log)
        if ref.returncode != 0:
            raise RuntimeError(f"reference.py failed: {log.read_text(errors='replace')[-2000:]}")
        return ref

    argv = [sys.executable, "-m", "portview.cli", "report", "--data", cfg.data,
            "--out", cfg.out_dir, *workload.report_args()]
    runs: list[ChildRun] = []
    setups: list[list[float]] = []
    refs = [reference()]
    failed = 0
    start = time.perf_counter()
    pair_s = 0.0
    # Start another child only if it and its reference are expected to end
    # within the window.
    while not runs or time.perf_counter() - start + pair_s <= seconds:
        began = time.perf_counter()
        # Set-ups are spread over the window so they meet the same machine
        # load as the children, not one burst at the start.
        setups.append(setup(workload, variant, SETUP_BATCH_S))
        run = run_child(argv, out_dir, log)
        runs.append(run)
        refs.append(reference())
        pair_s = time.perf_counter() - began
        if run.returncode != 0 or run.digest != pin["digest"]:
            failed += 1
            if failed == 1:  # the first failure explains the rest
                print(f"{workload.name}: child exit {run.returncode}, digest {run.digest}, "
                      f"pinned {pin['digest']}\n{log.read_text(errors='replace')[-2000:]}",
                      file=sys.stderr, flush=True)
    median = statistics.median
    ref_wall = [(a.wall_s + b.wall_s) / 2 for a, b in zip(refs, refs[1:])]
    ref_cpu = [(a.cpu_s + b.cpu_s) / 2 for a, b in zip(refs, refs[1:])]
    setup_ref = [t / ref for times, ref in zip(setups, ref_wall) for t in times]
    metrics = {
        "report_s": (median(r.wall_s / ref for r, ref in zip(runs, ref_wall)), "s"),
        "cpu_s": (median(r.cpu_s / ref for r, ref in zip(runs, ref_cpu)), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": (median(setup_ref), "s"),
    }
    walls = [r.wall_s for r in runs]
    notes = [
        f"{workload.name} seed {seed} (variant {variant}), in reference seconds: "
        + ", ".join(
            f"{name} {value:.4g} {unit} (median of {len(setup_ref if name == 'setup_s' else runs)})"
            for name, (value, unit) in metrics.items()
        )
        + f"; raw: report_s median {median(walls):.4g} s, range {min(walls):.4g}-{max(walls):.4g} s,"
        + f" reference median {median(r.wall_s for r in refs):.4g} s of {len(refs)}"
        + f"; fail_ratio {failed}/{len(runs)} = {failed / len(runs):g}"
    ]
    return Result(failed == 0, len(runs), failed, metrics, notes)


def check_invariants(tracer: spans.Tracer, mode: str) -> list[str]:
    """Exact invariants of one traced pipeline; returns the violated ones."""
    problems = []
    ds = tracer.last("runstore.ingest")[1]
    (_, core, baseline), curve = tracer.last("tradeoff.best_subsets")
    full = perf(ds, core, baseline)
    if curve.entries[-1].ratio != full:
        problems.append("last tradeoff entry differs from perf(core, baseline)")
    values = [e.value for e in curve.entries]
    if values != sorted(values):
        problems.append("tradeoff curve decreases as k grows")
    if mode == "exact":
        report = tracer.last("shapley.exact")[1]
        if sum(report.values.values()) != full.value:
            problems.append("Shapley efficiency fails: sum of values != v(core)")
    return problems


def shape_facts(tracer: spans.Tracer, metrics: dict[str, float]) -> dict[str, int]:
    ds = tracer.last("runstore.ingest")[1]
    return {
        "solvers": len(ds.solver_ids),
        "participants": len(ds.participant_ids),
        "rows": metrics["runstore.rows"],
        "cover_size": metrics["mincover.cover_size"],
        "optima": metrics["mincover.optima"],
        "denominator_bits": metrics["portfolio.denominator_bits"],
    }


def traced_pass(workload: Workload) -> tuple[dict[str, float], spans.Tracer, str, str, bool]:
    """One untraced and one traced in-process pipeline, plus ``convert_table``.

    Returns the per-layer metrics, the tracer, the untraced and traced bundle
    digests, and whether ``convert_table`` maps the canonical file to itself.
    """
    cfg = report_config(workload)
    start = time.perf_counter()
    plain = cli.run_pipeline(cfg)
    untraced_s = time.perf_counter() - start

    tracer = spans.Tracer()
    with spans.traced(tracer) as run_pipeline:
        bundle = run_pipeline(cfg)
    root = tracer.spans[0]
    metrics = spans.layer_metrics(tracer)
    metrics["cli.trace_overhead_s"] = root["end"] - root["start"] - untraced_s

    start = time.perf_counter()
    text, _ = convert_table(cfg.data)
    metrics["convert.convert_table_s"] = time.perf_counter() - start
    roundtrip = text == Path(cfg.data).read_text(encoding="utf-8")
    return metrics, tracer, bundle_digest(plain), bundle_digest(bundle), roundtrip


def measure_layers(workload: Workload, seed: int, seconds: float) -> Result:
    """Per-layer metrics: repeat traced passes for about ``seconds``, report medians."""
    variant = variant_of(seed)
    pin = load_pins()[workload.name][variant]
    setup(workload, variant)

    passes: list[dict[str, float]] = []
    failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    last_s = 0.0
    while not passes or time.perf_counter() - start + last_s <= seconds:
        began = time.perf_counter()
        metrics, tracer, plain, traced_digest, roundtrip = traced_pass(workload)
        last_s = time.perf_counter() - began
        passes.append(metrics)
        for digest in (plain, traced_digest):
            if digest != pin["digest"]:
                failed += 1
                problems.append(f"bundle digest {digest} != pinned {pin['digest']}")
        if not roundtrip:
            problems.append("convert_table does not reproduce the canonical file")
    problems += check_invariants(tracer, workload.mode)
    shape = shape_facts(tracer, passes[-1])
    if shape != pin["shape"]:
        problems.append(f"shape facts drifted: {shape} != pinned {pin['shape']}")

    metrics = {}
    for name, unit, _, _ in spans.PER_LAYER:
        values = [p[name] for p in passes]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            problems.append(f"{name} differs between passes: {values}")
        metrics[name] = (values[-1], unit)
    trace_file = WORK / workload.name / "spans.json"
    trace_file.write_text(
        json.dumps({"spans": tracer.spans,
                    "counts": [[*key, n] for key, n in sorted(tracer.counts.items())]}),
        encoding="utf-8",
    )
    layers = sorted(spans.layer_self_times(tracer).items(), key=lambda kv: -kv[1])
    total = sum(s for _, s in layers)
    notes = [
        f"{workload.name} seed {seed} (variant {variant}): {len(passes)} traced pass(es), "
        f"shape {shape}",
        "self time by layer: "
        + ", ".join(f"{layer} {s:.3f} s ({s / total:.0%})" for layer, s in layers),
        *(f"problem: {p}" for p in dict.fromkeys(problems)),
    ]
    return Result(not problems, 2 * len(passes), failed, metrics, notes)
