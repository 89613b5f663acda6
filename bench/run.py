"""Benchmark of spatialmoran: exact solves, Monte Carlo and the paper's checks.

Run from the root of a checkout that holds ``src/spatialmoran``::

    python3 bench/run.py --workload exact-solve --seed 1 --seconds 30 --trace 0

The program is driven in this one process through ``spatialmoran.cli.main``
on model files written at set-up from ``--seed``.  A run repeats whole
rounds of the workload's operations while half of another round still fits
in ``--seconds``, checks every output against references computed apart
from the program, and prints
one JSON object as its last line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced run with ``--trace 1``.  Details
of the run (every operation's time and problems, and the spans) go to
``.bench_out/`` at the root of the checkout.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the run stays in one process with one thread of work,
# and a shared two-core machine does not make the dense solve wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import MC_TRIALS, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Operations whose failure is a known fault of the program (README.md).
KNOWN_FAULTS = ("ring-",)
#: Per-layer metrics and their units, as declared in BENCHMARK.json.
LAYER_UNITS = {
    "graph.validate_s": "s", "graph.validate_calls": "count", "graph.stationary_s": "s",
    "modelio.load_s": "s",
    "dynamics.kernel_s": "s", "dynamics.kernel_rows_per_s": "rows/s", "dynamics.kernel_mib": "MiB",
    "exact.solve_s.dense": "s", "exact.solve_s.fixed_point": "s",
    "exact.solve_iterations": "count", "exact.max_error": "1",
    "cli.overhead_s": "s",
    **{f"montecarlo.{kind}.{case}": unit for kind, unit in
       (("trials_per_s", "1/s"), ("events_per_s", "1/s"), ("steps_per_trial", "count"))
       for case in MC_TRIALS},
    "montecarlo.table_build_s": "s", "montecarlo.rss_growth_mib": "MiB",
    "analysis.martingale_s": "s", "analysis.ratio_s": "s", "analysis.macro_markov_s": "s",
    "analysis.configs_per_s": "1/s",
    "verification.suite_s": "s", "verification.describe_s": "s",
    "trace.overhead_s": "s",
}


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def import_cli():
    """Import ``spatialmoran.cli`` from this checkout's ``src``, afresh."""
    for name in [m for m in sys.modules if m == "spatialmoran" or m.startswith("spatialmoran.")]:
        del sys.modules[name]
    cli = importlib.import_module("spatialmoran.cli")
    package = Path(sys.modules["spatialmoran"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise RuntimeError(f"imported spatialmoran from {package}, not from {SRC}")
    return cli


def set_up(warmup: list[str]) -> tuple[list[float], float, object]:
    """Import ``spatialmoran`` and make one warm-up call, several times.

    Returns the set-up times, the mean reference time measured before the
    set-ups, and the CLI module of the last import.  Third-party modules stay
    imported after the first set-up, so the median of the times is the cost
    of the package itself plus its first call.
    """
    times, refs = [], []
    cli = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        refs.extend(reference.sample())
        start = time.perf_counter()
        cli = import_cli()
        code, _ = call_cli(cli, warmup)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up call {warmup} exited with {code}")
    return times, statistics.fmean(refs), cli


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def judge(op, code: int, text: str) -> tuple[list[str], dict]:
    """Problems with one operation's exit code and output, and its measured values."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"output is not JSON: {exc}"], {}
    found, values = op.check(doc)
    return problems + found, values


class Runner:
    """Runs whole rounds of a workload's operations and records each one."""

    def __init__(self, cli, workload: Workload):
        self.cli = cli
        self.workload = workload
        self.records: list[dict] = []
        self.rounds = 0
        #: references taken after the last operation of the last round
        self.closing_refs: list[float] = []

    def run_op(self, op, tracer: Tracer | None) -> dict:
        gc.collect()  # every operation starts from the same heap
        refs = reference.sample()
        peak_before = peak_rss_mib()
        problems, values = [], {}
        span = tracer.open("cli.main", op=op.name, round=self.rounds) if tracer else None
        start = time.perf_counter()
        try:
            code, text = call_cli(self.cli, op.argv)
        except Exception:  # the run goes on; the operation counts as failed
            code, text = None, ""
            problems.append("cli.main raised: " + traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        peak_rise = peak_rss_mib() - peak_before
        if code is not None:
            problems, values = judge(op, code, text)
        record = {"round": self.rounds, "op": op.name, "seconds": elapsed,
                  "reference_s": refs, "peak_rise_mib": peak_rise,
                  "traced": tracer is not None, "problems": problems, **values}
        self.records.append(record)
        return record

    def run_rounds(self, seconds: float, tracer: Tracer | None = None) -> list[list[dict]]:
        """Whole rounds, at least one, while half of another still fits in ``seconds``."""
        rounds = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            rounds.append([self.run_op(op, tracer) for op in self.workload.ops])
            self.rounds += 1
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 >= seconds:
                break
        self.closing_refs = reference.sample()
        return rounds


def scaled(seconds: float, ref: float) -> float:
    """Wall seconds in reference seconds (see reference.py)."""
    return seconds * (reference.NOMINAL_S / ref) ** reference.EXPONENT


def end_to_end(rounds: list[list[dict]], closing_refs: list[float],
               setup_s: float, setup_ref: float) -> dict:
    """Round time, median operation time and set-up in reference seconds; peak RSS.

    The round time is scaled by the mean reference time of the run; each
    operation's time by the references taken just before and just after it.
    """
    records = [r for rnd in rounds for r in rnd]
    refs = [r["reference_s"] for r in records] + [closing_refs]
    run_s = statistics.median(sum(r["seconds"] for r in rnd) for rnd in rounds)
    run_ref = statistics.fmean(t for group in refs for t in group)
    op_p50 = statistics.median(scaled(r["seconds"], statistics.fmean(before + after))
                               for r, before, after in zip(records, refs, refs[1:]))
    return {
        "run_s": {"value": scaled(run_s, run_ref), "unit": "s"},
        "op_p50_s": {"value": op_p50, "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
        "setup_s": {"value": scaled(setup_s, setup_ref), "unit": "s"},
    }


def layer_values(spans, rnd: list[dict]) -> dict:
    """Per-layer figures of one traced round, from its spans and its checks."""
    index = rnd[0]["round"]
    mine = [s for s in spans if s.attrs.get("round") == index]

    def named(name, keep=lambda s: True):
        return [s for s in mine if s.name == name and keep(s)]

    def self_time(name, keep=lambda s: True):
        return sum(s.self_time for s in named(name, keep))

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    kernels = named("dynamics.transition_kernel")
    kernel_s = self_time("dynamics.transition_kernel")
    fixed_point = named("exact.fixation_probabilities", lambda s: s.attrs["n"] >= 13)
    per_config = (named("analysis.martingale_report") + named("analysis.ratio_constancy"))
    per_config_s = sum(s.self_time for s in per_config)
    values = {
        "graph.validate_s": self_time("graph.validate_weight_matrix"),
        "graph.validate_calls": len(named("graph.validate_weight_matrix")),
        "graph.stationary_s": self_time("graph.stationary_distribution"),
        "modelio.load_s": self_time("modelio.load_model"),
        "dynamics.kernel_s": kernel_s,
        "dynamics.kernel_rows_per_s": rate(sum(s.attrs["rows"] for s in kernels), kernel_s),
        "dynamics.kernel_mib": max((s.attrs["kernel_bytes"] / 2**20 for s in kernels),
                                   default=0.0),
        "exact.solve_s.dense": self_time("exact.fixation_probabilities",
                                         lambda s: s.attrs["n"] <= 12),
        "exact.solve_s.fixed_point": sum(s.self_time for s in fixed_point),
        "exact.solve_iterations": sum(s.attrs.get("iterations", 0) for s in fixed_point),
        "exact.max_error": max((r["error"] for r in rnd if r.get("stationary")), default=0.0),
        "cli.overhead_s": self_time("cli.main"),
        "analysis.martingale_s": self_time("analysis.martingale_report"),
        "analysis.ratio_s": self_time("analysis.ratio_constancy"),
        "analysis.macro_markov_s": self_time("analysis.macro_markov_check"),
        "analysis.configs_per_s": rate(sum((1 << s.attrs["n"]) - 2 for s in per_config),
                                       per_config_s),
        "verification.suite_s": self_time("verification.builtin_suite"),
        "verification.describe_s": self_time("verification.describe_model"),
    }
    for case in MC_TRIALS:
        sims = named("montecarlo.estimate_fixation", lambda s: s.attrs["op"] == f"simulate-{case}")
        values[f"montecarlo.trials_per_s.{case}"] = rate(
            sum(s.attrs["trials"] for s in sims), sum(s.duration for s in sims))
    return values


def probe_steps(tracer: Tracer, workload: Workload) -> tuple[dict, dict]:
    """Mean steps per trajectory of each case, and the time to build the n = 10 tables.

    Each probe trajectory goes through ``simulate_trajectory``, which builds
    a fresh sampler; for the n = 10 case that call is mostly the up-front
    build of all 1,022 sampling tables.
    """
    from spatialmoran.graph import Configuration
    from spatialmoran.modelio import load_model
    from spatialmoran.montecarlo import TrajectoryConfig, simulate_trajectory

    steps, build = {}, {}
    for probe in workload.probes:
        model = load_model(probe.model, r_override=probe.r)
        counts, times = [], []
        for start, seed in zip(probe.starts, probe.seeds):
            span = tracer.open("montecarlo.simulate_trajectory", case=probe.case)
            _, count = simulate_trajectory(model, Configuration(start, model.n),
                                           TrajectoryConfig(seed=seed, mode=probe.mode))
            times.append(tracer.close(span).duration)
            counts.append(count)
        steps[probe.case] = statistics.fmean(counts)
        build[probe.case] = statistics.median(times)
    return steps, build


def per_layer(runner: Runner, untraced, traced, tracer: Tracer) -> dict:
    """Median over traced rounds of each layer figure, plus the probe and memory figures."""
    rows = [layer_values(tracer.spans, rnd) for rnd in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    steps, build = probe_steps(tracer, runner.workload)
    for case in MC_TRIALS:
        values[f"montecarlo.steps_per_trial.{case}"] = steps.get(case, 0.0)
        values[f"montecarlo.events_per_s.{case}"] = (
            values[f"montecarlo.trials_per_s.{case}"] * steps.get(case, 0.0))
    values["montecarlo.table_build_s"] = build.get("random10", 0.0)
    values["montecarlo.rss_growth_mib"] = next(
        (r["peak_rise_mib"] for r in runner.records if r["op"] == "simulate-complete40"), 0.0)
    traced_s = statistics.median(sum(r["seconds"] for r in rnd) for rnd in traced)
    untraced_s = statistics.median(sum(r["seconds"] for r in rnd) for rnd in untraced)
    values["trace.overhead_s"] = traced_s - untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spatialmoran" / "__init__.py").is_file():
        sys.stderr.write(f"no spatialmoran package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        setup_times, setup_ref, cli = set_up(workload.warmup)
        runner = Runner(cli, workload)
        if args.trace:
            untraced = runner.run_rounds(args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced = runner.run_rounds(args.seconds / 2, tracer)
                metrics = per_layer(runner, untraced, traced, tracer)
            (OUT / f"{label}-spans.json").write_text(json.dumps(tracer.export()))
        else:
            rounds = runner.run_rounds(args.seconds)
            metrics = end_to_end(rounds, runner.closing_refs,
                                 statistics.median(setup_times), setup_ref)
    failed = [r for r in runner.records if r["problems"]]
    unexpected = [r for r in failed if not r["op"].startswith(KNOWN_FAULTS)]
    result = {"correct": not unexpected, "attempted": len(runner.records),
              "failed": len(failed), "metrics": metrics}
    (OUT / f"{label}.json").write_text(json.dumps(
        {"result": result, "setup_s": setup_times, "setup_reference_s": setup_ref,
         "closing_reference_s": runner.closing_refs, "operations": runner.records}, indent=1))
    for record in unexpected:
        problems = record["problems"]
        sys.stderr.write(f"FAILED {record['op']}: {problems[0]} ({len(problems)} problems)\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
