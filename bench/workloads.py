"""The benchmark's workloads: inputs made from a seed, and the operations on them.

A workload is a fixed list of CLI calls (operations).  Its model files are
written at set-up from the workload seed; the program sees only those files
and the arguments of each call.  Each operation carries the check that
judges its output, computed apart from the program by :mod:`checks`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    """One CLI call and the check of its JSON output.

    ``check(doc)`` returns the problems found and a mapping of measured
    values (for example the solve error) that the per-layer report uses.
    """

    name: str
    argv: list[str]
    check: Callable[[dict], tuple[list[str], dict]]


@dataclass
class Probe:
    """Trajectories sampled through ``simulate_trajectory`` in the traced run."""

    case: str
    model: str
    r: str | None
    mode: str
    starts: list[int]
    seeds: list[int]


@dataclass
class Workload:
    """The set-up's warm-up call, the operations of one round, and the probes."""

    warmup: list[str]
    ops: list[Op]
    probes: list[Probe] = field(default_factory=list)


def random_weights(n: int, rng: np.random.Generator, density: float) -> np.ndarray:
    """Row-stochastic weights with a directed cycle through every vertex.

    Each other edge, self-loops included, is kept with probability
    ``density``; the cycle makes the graph strongly connected.
    """
    mass = rng.uniform(0.2, 1.0, (n, n))
    weights = np.where(rng.random((n, n)) < density, mass, 0.0)
    weights[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.2, 1.0, n)
    return weights / weights.sum(axis=1, keepdims=True)


def doubly_stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Strictly positive doubly stochastic weights (alternate normalisation)."""
    weights = rng.uniform(0.1, 1.0, (n, n))
    for _ in range(1000):
        weights /= weights.sum(axis=0, keepdims=True)
        weights /= weights.sum(axis=1, keepdims=True)
    return weights


def ring_weights(n: int, self_loop: float) -> np.ndarray:
    """Cycle with a self-loop of weight ``self_loop`` and equal weight to each neighbour."""
    weights = np.zeros((n, n))
    side = (1.0 - self_loop) / 2.0
    for v in range(n):
        weights[v, v] = self_loop
        weights[v, (v + 1) % n] += side
        weights[v, (v - 1) % n] += side
    return weights


def write_model(path: Path, W: np.ndarray, mu, r: float) -> str:
    mu_field = mu if isinstance(mu, str) else [float(v) for v in mu]
    path.write_text(json.dumps({"n": W.shape[0], "W": W.tolist(), "mu": mu_field, "r": r}))
    return str(path)


def exact_op(name: str, path: str, W: np.ndarray, mu, r: float, stationary: bool) -> Op:
    n = W.shape[0]
    policy = None if stationary else (np.full(n, 1.0 / n) if mu == "uniform" else mu)

    def check(doc):
        problems, error = checks.check_exact(doc, W, policy, r, stationary)
        return problems, {"error": error, "stationary": stationary}

    return Op(name, ["exact", "--model", path, "--init", "level:1:uniform"], check)


#: Random instances of ``exact-solve``: (n, policy, r).  Dense graphs under
#: strong selection keep the fixed-point solver (n >= 13) at least 3x inside
#: the 1e-10 tolerance on stationary instances.  Five alike n = 14 solves sit
#: in the middle of the round, so the median operation is the median of
#: five similar calls rather than the time of one (README.md).
EXACT_INSTANCES = (
    (11, "stationary", 2.0), (11, "uniform", 0.5), (12, "stationary", 3.0),
    (13, "stationary", 3.0), (13, "uniform", 2.0),
    *[(14, "stationary", 3.0)] * 5,
    (15, "uniform", 2.0), (16, "stationary", 3.0),
)
EXACT_DENSITY = 1.0
#: Isothermal rings that the fixed-point solver gets wrong today, by a fixed
#: amount that no seed changes: (n, self-loop, r).
RINGS = ((13, 0.5, 1.0), (13, 0.9, 2.0))


def exact_solve(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k, (n, policy, r) in enumerate(EXACT_INSTANCES):
        W = random_weights(n, rng, EXACT_DENSITY)
        name = f"exact{k:02d}-n{n}-{policy}-r{r:g}"
        path = write_model(workdir / f"{name}.json", W, policy, r)
        ops.append(exact_op(name, path, W, policy, r, stationary=policy == "stationary"))
    for n, self_loop, r in RINGS:
        W = ring_weights(n, self_loop)
        name = f"ring-n{n}-loop{self_loop:g}-r{r:g}"
        path = write_model(workdir / f"{name}.json", W, "uniform", r)
        ops.append(exact_op(name, path, W, "uniform", r, stationary=True))
    warmup = ["exact", "--model", "@complete:5", "--init", "level:1:uniform"]
    return Workload(warmup, ops)


def simulate_op(case: str, model: str, r: float | None, init: str, mode: str,
                 trials: int, sim_seed: int, exact: float) -> Op:
    argv = ["simulate", "--model", model, "--init", init, "--trials", str(trials),
            "--seed", str(sim_seed), "--mode", mode, "--workers", "1"]
    if r is not None:
        argv += ["--r", repr(r)]

    def check(doc):
        return checks.check_simulation(doc, trials, exact), {}

    return Op(f"simulate-{case}", argv, check)


#: Trials per ``mc-simulate`` case: (case, trials).
MC_TRIALS = {"galanis-event": 150000, "galanis-faithful": 130000,
             "random10": 80000, "complete40": 400}
MC_RANDOM_R = 1.5
MC_COMPLETE_R = 1.5
#: Trajectories per case sampled for step counts in the traced run.
PROBE_TRAJECTORIES = {"galanis-event": 200, "galanis-faithful": 200,
                      "random10": 10, "complete40": 10}
#: ``@complete:40`` starts from 5 mutants (vertices 1-5) under r = 1.5, so
#: that most trajectories fixate after a similar number of steps and the
#: work and memory of a call vary little with the seed (README.md).
COMPLETE_LEVEL = 5


def mc_simulate(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    sim_seeds = {case: int(rng.integers(0, 2**32)) for case in MC_TRIALS}
    W10 = random_weights(10, rng, 0.5)
    random10 = write_model(workdir / "random10.json", W10, "stationary", MC_RANDOM_R)
    cases = (
        # (case, model, r override, init, mode, exact fixation probability)
        ("complete40", "@complete:40", MC_COMPLETE_R, f"mask:{(1 << COMPLETE_LEVEL) - 1}",
         "event", checks.moran_rho(COMPLETE_LEVEL, 40, MC_COMPLETE_R)),
        ("galanis-event", "@galanis", None, "mask:1", "event", 1.0 / 3.0),
        ("galanis-faithful", "@galanis", None, "mask:1", "faithful", 1.0 / 3.0),
        ("random10", random10, None, "level:1:uniform", "event",
         checks.moran_rho(1, 10, MC_RANDOM_R)),
    )
    ops, probes = [], []
    for case, model, r, init, mode, exact in cases:
        ops.append(simulate_op(case, model, r, init, mode, MC_TRIALS[case],
                                sim_seeds[case], exact))
        count = PROBE_TRAJECTORIES[case]
        if init.startswith("level"):  # one mutant at a random vertex of the n = 10 graph
            starts = [1 << int(v) for v in rng.integers(0, W10.shape[0], count)]
        else:
            starts = [int(init.split(":")[1])] * count
        probes.append(Probe(case, model, None if r is None else repr(r), mode, starts,
                            [sim_seeds[case] + k for k in range(count)]))
    warmup = ["simulate", "--model", "@galanis", "--init", "mask:1", "--trials", "100",
              "--workers", "1"]
    return Workload(warmup, ops, probes)


#: Builtin suite runs per ``paper-verify`` round, and the described models:
#: (n, kind, r) with kind "random" or "isothermal" (doubly stochastic weights),
#: each under a positive policy that is not stationary.
SUITE_RUNS = 5
DESCRIBED = ((8, "isothermal", 2.0), (11, "random", 0.5), (12, "random", 2.0),
             (14, "random", 1.5))


def describe_op(name: str, path: str, W: np.ndarray, mu: np.ndarray, r: float) -> Op:
    def check(doc):
        return checks.check_model_report(doc, W, mu, r), {}

    return Op(name, ["verify", "--model", path], check)


def paper_verify(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k in range(SUITE_RUNS):
        suite_seed = int(rng.integers(0, 2**32))
        ops.append(Op(f"verify-suite-{k}", ["verify", "--seed", str(suite_seed)],
                      lambda doc: (checks.check_suite(doc), {})))
    for n, kind, r in DESCRIBED:
        W = doubly_stochastic(n, rng) if kind == "isothermal" else random_weights(n, rng, 0.5)
        mu = rng.uniform(0.5, 2.0, n)
        mu /= mu.sum()
        path = write_model(workdir / f"describe-n{n}-{kind}.json", W, mu, r)
        ops.append(describe_op(f"verify-model-n{n}-{kind}", path, W, mu, r))
    warmup = ["verify", "--model", "@galanis"]
    return Workload(warmup, ops)


WORKLOADS = {"exact-solve": exact_solve, "mc-simulate": mc_simulate,
             "paper-verify": paper_verify}
