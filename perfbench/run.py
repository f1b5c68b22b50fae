"""Benchmark runner for lincat: one workload, one seed, one process.

    python3 perfbench/run.py --workload m2_envelope --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports lincat from its `src/`.
Load is a closed loop with one client: each operation starts when the
previous one has finished and been checked.  Operations come in rounds
(see workloads.py) and the loop stops at the first round boundary after
`--seconds`, so every run measures whole rounds of the same mix.  Times
are reference seconds (see calibration.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics and checks that tracing changes no output and that
size counters repeat exactly.  README.md in this directory describes the
workloads, the metrics and what this environment cannot measure.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import tracing
import workloads
from calibration import Calibrator, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 5
MIN_COVERAGE = 0.95

LAYER_SPANS = [
    "workspace.parse", "workspace.serialize", "category.validate", "dg.envelope",
    "dg.validate", "derham.complex", "exact_linalg.rref", "module_algebra.direct_sum",
    "module_algebra.hs_trace", "connection.curvature", "tforms.tm_power", "chern.class",
    "chern.certify", "chern.invariance", "chern.k0", "cli.command",
]
SIZE_COUNTERS = [
    "dg.basis_dim_total", "dg.comp_entries", "dg.compose_calls", "derham.span_rows",
    "derham.commutator_rank", "derham.quotient_dim", "exact_linalg.rref_calls",
    "exact_linalg.rref_cells", "chern.certify_span_rows", "chern.certify_terms",
]
VALIDATION_SPANS = ("category.validate", "dg.validate")


def import_lincat():
    sys.path.insert(0, str(SRC))
    import lincat
    import lincat.cli  # noqa: F401  (not imported by the package itself)

    if Path(lincat.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"lincat was imported from {lincat.__file__}, not from {SRC}")
    return lincat


def run_op(wl, op, tracer=None, op_id=None):
    """Execute and check one operation: ((start, end) of execute, output)."""
    if tracer is None:
        t0 = clock()
        result = wl.execute(op)
        return (t0, clock()), wl.check(op, result)
    tracer.op = op_id
    with tracer.span("bench.op"):
        t0 = clock()
        result = wl.execute(op)
        t1 = clock()
        with tracer.span("bench.check"):
            output = wl.check(op, result)
    return (t0, t1), output


class Loop:
    """The closed loop: whole rounds until `seconds` have passed.

    `raw` holds each operation's execute seconds (None when it failed)
    and `scale` the factor that turns them into reference seconds.
    """

    def __init__(self, wl, seed: int, seconds: float, smoke: bool, tracer=None):
        rng = random.Random(seed)
        self.ops, self.outputs, self.rounds = [], [], []
        self.failed = 0
        spans = []
        with Calibrator(periodic=tracer is None) as cal:
            start = clock()
            while True:
                batch = wl.round(rng)
                self.rounds.append(len(batch))
                for op in batch:
                    i = len(self.ops)
                    self.ops.append(op)
                    try:
                        span, output = run_op(wl, op, tracer, f"op{i}")
                    except Exception:
                        span, output = None, None
                        self.failed += 1
                        sys.stderr.write(f"operation {i} failed: {op!r:.200}\n{traceback.format_exc()}")
                    if tracer is not None:
                        cal.sample()  # between operations, outside every span
                    spans.append(span)
                    self.outputs.append(output)
                if smoke or clock() - start >= seconds:
                    break
        self.first_round = self.rounds[0]
        self.raw = [span and cal.interval(*span) for span in spans]
        self.scale = [cal.scale(*span) if span else 1.0 for span in spans]

    @property
    def samples(self) -> list[float]:
        """Reference seconds of every operation that passed its check."""
        return [t * s for t, s in zip(self.raw, self.scale) if t is not None]

    def median_of_kind_medians(self, kind) -> float:
        """Median over kinds of operation of each kind's median time.

        Every round holds each kind once.  In the CLI mix the pooled
        median falls in a gap (28 commands take under 12 ms, 30 over
        60 ms), where it depends on single measurements of the two
        commands beside the gap; a median per kind first does not.
        """
        by_kind: dict = {}
        for op, t, s in zip(self.ops, self.raw, self.scale):
            if t is not None:
                by_kind.setdefault(kind(op), []).append(t * s)
        return statistics.median(statistics.median(v) for v in by_kind.values()) if by_kind else 0.0


def replay_round(wl, ops, tracer=None) -> list[tuple[float, str | None]]:
    """(execute reference seconds, output) of each operation, again;
    (0.0, None) for one that fails."""
    out = []
    with Calibrator(periodic=False) as cal:
        for i, op in enumerate(ops):
            try:
                span, output = run_op(wl, op, tracer, f"replay{i}")
            except Exception:
                sys.stderr.write(f"replayed operation {i} failed:\n{traceback.format_exc()}")
                span, output = None, None
            cal.sample()
            out.append((span, output))
    return [(cal.interval(*span) * cal.scale(*span) if span else 0.0, output) for span, output in out]


def p90(samples: list[float]) -> float:
    """The 90th percentile, or the median when fewer than ten samples
    would lie beyond it (an m2_envelope run has one to three)."""
    if len(samples) < 100:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def setup_probe(args) -> int:
    """Print the reference seconds of import lincat + workload set-up."""
    with Calibrator(periodic=True) as cal:
        t0 = clock()
        lincat = import_lincat()
        workloads.WORKLOADS[args.workload](lincat, args.smoke).setup()
        t1 = clock()
    print(cal.interval(t0, t1) * cal.scale(t0, t1))
    return 0


def setup_seconds(name: str, smoke: bool) -> float:
    """Median set-up time over fresh interpreters."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"]
    if smoke:
        argv.append("--smoke")
    times = []
    for _ in range(2 if smoke else SETUP_SAMPLES):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(lincat, args) -> tuple[bool, Loop, dict]:
    setup_s = setup_seconds(args.workload, args.smoke)
    wl = workloads.WORKLOADS[args.workload](lincat, args.smoke)
    wl.setup()
    loop = Loop(wl, args.seed, args.seconds, args.smoke)
    samples = loop.samples or [0.0]  # every operation failed: correct is false
    metrics = {
        "op_p50_s": (loop.median_of_kind_medians(wl.kind), "s"),
        "op_p90_s": (p90(samples), "s"),
        "ops_per_s": (len(loop.samples) / sum(samples) if loop.samples else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [t for t in loop.raw if t is not None] or [0.0]
    print(f"{args.workload}: {len(loop.samples)} timed samples in {len(loop.rounds)} rounds, "
          f"{loop.failed} failed; set-up median of {2 if args.smoke else SETUP_SAMPLES} fresh "
          f"interpreters; unscaled op median {statistics.median(raw):.6f} s, "
          f"mean scale {statistics.mean(loop.scale):.4f}")
    return loop.failed == 0, loop, metrics


def traced(lincat, args) -> tuple[bool, Loop, dict]:
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    problems = []
    with tracing.installed(tracer):
        wl = cls(lincat, args.smoke)
        with tracer.span("bench.setup"):
            wl.setup()
        loop = Loop(wl, args.seed, args.seconds, args.smoke, tracer)
        # a fresh set-up and the first round again, traced: the counts must repeat
        replay = cls(lincat, args.smoke)
        tracer.op = "replay-setup"
        with tracer.span("bench.setup"):
            replay.setup()
        first = replay.round(random.Random(args.seed))
        traced_replay = replay_round(replay, first, tracer)
    # the same round untraced: outputs must be byte-identical
    plain_replay = replay_round(replay, first)

    if tracer.counts["setup"] != tracer.counts["replay-setup"]:
        problems.append("set-up counters differ between two set-ups")
    for i in range(len(first)):
        if tracer.counts[f"op{i}"] != tracer.counts[f"replay{i}"]:
            problems.append(f"operation {i}: counters differ between two runs")
        if plain_replay[i][1] is None or not (loop.outputs[i] == traced_replay[i][1] == plain_replay[i][1]):
            problems.append(f"operation {i}: output differs with tracing on and off")

    n_ops = len(loop.ops)
    op_ids = [f"op{i}" for i in range(n_ops)]
    selfs = tracer.self_times()
    window = Counter(tracer.counts["setup"])
    for op_id in op_ids[:loop.first_round]:
        window.update(tracer.counts[op_id])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {}
    # layer self time in reference seconds: the set-up once plus the mean per operation
    for name in LAYER_SPANS:
        per_op = sum(selfs[op_id][name] * s for op_id, s in zip(op_ids, loop.scale)) / n_ops
        metrics[f"{name}_s"] = (selfs["setup"][name] * loop.scale[0] + per_op, "s")
    for name in SIZE_COUNTERS:
        metrics[name] = (window[name], "count")
    metrics["dg.comp_nonzero_ratio"] = (ratio(window["dg.comp_nonzero"], window["dg.comp_entries"]), "ratio")
    metrics["derham.span_useful_ratio"] = (
        ratio(window["derham.commutator_rank"], window["derham.span_rows"]), "ratio")

    # re-validation inside `_checked`: validation spans of every command but `validate`
    op_index = {op_id: i for i, op_id in enumerate(op_ids)}
    revalidate = command = 0.0
    root_time = root_self = 0.0
    for name, start, end, parent, op in tracer.spans:
        i = op_index.get(op)
        if i is None:
            continue
        if name in VALIDATION_SPANS and args.workload == "cli_fixtures" and loop.ops[i][0] != "validate":
            revalidate += (end - start) * loop.scale[i]
        if name == "cli.command":
            command += (end - start) * loop.scale[i]
        if parent is None:
            root_time += end - start
    for op_id in op_ids:
        root_self += selfs[op_id]["bench.op"]
    metrics["cli.revalidate_s"] = (revalidate / n_ops, "s")
    metrics["cli.revalidate_share"] = (ratio(revalidate, command), "ratio")

    coverage = 1.0 - ratio(root_self, root_time)
    if coverage < MIN_COVERAGE:
        problems.append(f"spans cover {coverage:.3f} of operation time, below {MIN_COVERAGE}")
    overhead = ratio(sum(t for t, _ in traced_replay), sum(t for t, _ in plain_replay)) - 1.0
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead_share"] = (overhead, "ratio")

    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    for p in problems:
        sys.stderr.write(f"trace self-check failed: {p}\n")
    print(f"{args.workload} traced: {n_ops} operations, span coverage {coverage:.4f}, "
          f"tracing overhead {overhead:+.3f}, counters over set-up + {loop.first_round} operations "
          f"{'repeat' if not problems else 'FAIL'}; spans in {trace_file.relative_to(ROOT)}")
    return loop.failed == 0 and not problems, loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs and one operation; for the benchmark's own test only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            return setup_probe(args)
        lincat = import_lincat()
    except ImportError as exc:
        sys.stderr.write(f"cannot import lincat from {SRC}: {exc}\n")
        return 2

    correct, loop, metrics = (traced if args.trace else end_to_end)(lincat, args)
    print(json.dumps({
        "correct": correct,
        "attempted": len(loop.ops),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
