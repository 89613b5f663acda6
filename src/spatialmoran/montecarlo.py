"""Monte Carlo estimation of fixation probabilities.

Trials are reproducible and embarrassingly parallel: trial ``t`` consumes an
independent Philox stream positioned at counter ``t`` under the run seed, one
uniform per step, so results are bit-identical for any worker count and any
partition of the trial range.  The default event-driven mode samples only
state-changing transitions (idle steps keep the configuration and therefore
cannot affect which absorbing state is hit); faithful mode samples the
one-step law including idles and exists to validate that shortcut.

Two walkers sample the same law.  Up to ``n = 12`` (:data:`TABLE_MAX_VERTICES`)
every transient configuration gets a cumulative sampling table, built up
front in one :func:`~spatialmoran.dynamics.flip_masses` batch, and a step is
one bisection; at that size the ``2^n`` tables are small and the fastest
walk.  Above it the tables would not fit, and the walker follows Gillespie's
direct method instead: per trajectory it keeps the type vector and the
unnormalised masses of mutant and of wildtype parents placed onto each
vertex.  Flipping vertex ``u`` changes only ``u``'s selection weight, so a
step is O(n) work and nothing is kept per configuration.  The masses are
recomputed from scratch every :data:`REFRESH_EVENTS` flips, which bounds
their rounding drift.  There is no vertex limit.

A configuration that can never change (every flip mass zero, possible only
when the policy has zeros) censors the trajectory that reaches it, in both
modes, at once.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dynamics import MicSMPModel, flip_masses
from .errors import AbsorbingStart, NotStochastic, OutOfRange
from .exact import InitialDistribution
from .graph import Configuration, mask_vector

_CHUNK = 32
#: Largest vertex count sampled from prebuilt per-configuration tables.
TABLE_MAX_VERTICES = 12
#: Flips between from-scratch recomputes of the incremental walker's masses.
REFRESH_EVENTS = 1000


class Outcome(enum.Enum):
    FIXATION = "fixation"
    EXTINCTION = "extinction"
    CENSORED = "censored"


@dataclass(frozen=True)
class TrajectoryConfig:
    """Reproducibility knobs for trajectory sampling."""

    seed: int = 0
    max_steps: int = 10**7
    mode: str = "event"  # "event" | "faithful"

    def __post_init__(self):
        if self.max_steps < 1:
            raise OutOfRange(f"max_steps must be >= 1, got {self.max_steps}")
        if self.mode not in ("event", "faithful"):
            raise OutOfRange(f"mode must be 'event' or 'faithful', got {self.mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise OutOfRange("seed must fit into 64 unsigned bits")


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated trial counts; ``frequency`` excludes censored trajectories."""

    trials: int
    fixations: int
    extinctions: int
    censored: int
    frequency: float
    ci_halfwidth: float
    seed: int
    mode: str


class _TrialStream:
    """Sequential uniforms from a Philox stream positioned per trial index.

    Resetting the 256-bit counter to ``(0, 0, 0, trial)`` gives every trial
    its own stream with 2^192 draws of headroom; positioning by state
    assignment avoids rebuilding a generator per trial.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=seed)
        self._gen = np.random.Generator(self._bitgen)
        # the state setter copies values in, so one template dict can be
        # mutated and reassigned per trial
        self._template = self._bitgen.state
        self._template["state"]["counter"][:] = 0
        self._buf: list = []

    def position(self, trial: int) -> None:
        template = self._template
        template["state"]["counter"][3] = trial
        template["buffer_pos"] = 4  # discard buffered words from the old position
        self._bitgen.state = template
        self._buf = []

    def next_uniform(self) -> float:
        buf = self._buf
        if not buf:
            buf = self._gen.random(_CHUNK).tolist()
            buf.reverse()
            self._buf = buf
        return buf.pop()


class _Tables:
    """Cumulative sampling tables for every transient configuration (small ``n``)."""

    def __init__(self, model: MicSMPModel, mode: str):
        n = model.n
        self._full = full = (1 << n) - 1
        # indexed by mask; None for the absorbing masks and for masks that never change
        self._tables: list = [None] * (full + 1)
        flips = flip_masses(model, np.arange(1, full)).tolist()
        for mask, row in enumerate(flips, start=1):
            targets = [mask ^ (1 << u) for u, p in enumerate(row) if p > 0.0]
            if not targets:
                continue
            cum = list(accumulate(p for p in row if p > 0.0))
            if mode == "event":
                total = cum[-1]
                cum = [c / total for c in cum]
                cum[-1] = 1.0  # guard the top edge against rounding
            else:
                targets.append(mask)  # the idle mass closes the table
                cum.append(1.0)
            self._tables[mask] = (cum, targets)

    def walk(self, mask: int, stream: _TrialStream, max_steps: int):
        full = self._full
        tables = self._tables
        next_uniform = stream.next_uniform
        steps = 0
        while steps < max_steps:
            table = tables[mask]
            if table is None:
                break  # the configuration never changes
            cum, targets = table
            mask = targets[bisect_left(cum, next_uniform())]
            steps += 1
            if mask == 0:
                return Outcome.EXTINCTION, steps
            if mask == full:
                return Outcome.FIXATION, steps
        return Outcome.CENSORED, steps


class _Trajectory:
    """State of one incremental walk.

    ``masses[0, u]`` (``masses[1, u]``) is the unnormalised mass of mutant
    (wildtype) parents placing offspring onto ``u``; ``weight`` is the total
    selection weight, which normalises both.
    """

    __slots__ = ("x", "masses", "weight", "mutants", "since")


class _Walker:
    """Incremental walker of Gillespie's direct method (large ``n``)."""

    def __init__(self, model: MicSMPModel, mode: str):
        mu, r = model.mu.mu, model.r
        self._n = model.n
        self._event = mode == "event"
        self._mu, self._r, self._W = mu, r, model.W.entries
        # rows[u]: change of the masses when vertex u turns mutant
        self._rows = np.stack((r * model.w_mu, -model.w_mu), axis=1)
        self._dweight = ((r - 1.0) * mu).tolist()
        # bound on the rounding residue REFRESH_EVENTS updates leave on a zero mass
        scale = max(r, 1.0) * float(np.max(mu @ self._W))
        self._guard = 4.0 * REFRESH_EVENTS * np.finfo(float).eps * scale

    def refresh(self, x: np.ndarray, masses: np.ndarray) -> float:
        """Recompute ``masses`` from the type vector ``x``; returns the selection weight."""
        mutant_mu = np.where(x, self._mu, 0.0)
        masses[0] = (self._r * mutant_mu) @ self._W
        masses[1] = (self._mu - mutant_mu) @ self._W
        return 1.0 + (self._r - 1.0) * float(mutant_mu.sum())

    def start(self, mask: int) -> _Trajectory:
        traj = _Trajectory()
        traj.x = mask_vector(mask, self._n) > 0.0
        traj.mutants = int(traj.x.sum())
        traj.masses = np.empty((2, self._n))
        traj.weight = self.refresh(traj.x, traj.masses)
        traj.since = 0
        return traj

    def advance(self, traj: _Trajectory, stream: _TrialStream, max_steps: int):
        """Take up to ``max_steps`` steps; ``(outcome, steps)``, censored if not absorbed."""
        n, event, guard = self._n, self._event, self._guard
        rows, dweight = self._rows, self._dweight
        where = np.where
        next_uniform = stream.next_uniform
        x, masses = traj.x, traj.masses
        toward, away = masses
        weight, mutants, since = traj.weight, traj.mutants, traj.since
        outcome = Outcome.CENSORED
        steps = 0
        while steps < max_steps:
            uniform = next_uniform()
            steps += 1
            while True:
                if since >= REFRESH_EVENTS:
                    weight, since = self.refresh(x, masses), 0
                flips = where(x, away, toward)
                cum = flips.cumsum()
                total = cum[-1]
                target = uniform * (total if event else weight)
                if target < total:
                    u = cum.searchsorted(target, "right")
                    doubtful = flips[u] <= guard
                else:  # an idle step, or nothing can change
                    u = -1
                    doubtful = total <= guard
                if not (doubtful and since):
                    break
                # the mass may be the rounding residue of a zero: recompute and
                # place the same uniform again
                since = REFRESH_EVENTS
            if u < 0:
                if total == 0.0:  # the configuration never changes: censor, uncounted
                    steps -= 1
                    break
                continue
            since += 1
            if x[u]:
                masses -= rows[u]
                weight -= dweight[u]
                mutants -= 1
                x[u] = False
                if mutants == 0:
                    outcome = Outcome.EXTINCTION
                    break
            else:
                masses += rows[u]
                weight += dweight[u]
                mutants += 1
                x[u] = True
                if mutants == n:
                    outcome = Outcome.FIXATION
                    break
        traj.weight, traj.mutants, traj.since = weight, mutants, since
        return outcome, steps

    def walk(self, mask: int, stream: _TrialStream, max_steps: int):
        return self.advance(self.start(mask), stream, max_steps)


def _sampler(model: MicSMPModel, mode: str):
    if model.n <= TABLE_MAX_VERTICES:
        return _Tables(model, mode)
    return _Walker(model, mode)


def simulate_trajectory(model: MicSMPModel, x0: Configuration,
                        cfg: TrajectoryConfig) -> tuple[Outcome, int]:
    """Run one trajectory from ``x0`` until absorption or ``cfg.max_steps``.

    Uses trial stream 0 of ``cfg.seed``; raises :class:`AbsorbingStart` when
    ``x0`` is already absorbing.
    """
    if x0.n != model.n:
        raise NotStochastic("start configuration dimension mismatch")
    if x0.is_absorbing:
        raise AbsorbingStart(f"mask {x0.bits:#b} is absorbing")
    sampler = _sampler(model, cfg.mode)
    stream = _TrialStream(cfg.seed)
    stream.position(0)
    return sampler.walk(x0.bits, stream, cfg.max_steps)


def _run_range(sampler, alpha_cum, alpha_masks, seed: int,
               lo: int, hi: int, max_steps: int):
    stream = _TrialStream(seed)
    fix = ext = cens = 0
    for trial in range(lo, hi):
        stream.position(trial)
        mask = alpha_masks[bisect_left(alpha_cum, stream.next_uniform())]
        outcome, _ = sampler.walk(mask, stream, max_steps)
        if outcome is Outcome.FIXATION:
            fix += 1
        elif outcome is Outcome.EXTINCTION:
            ext += 1
        else:
            cens += 1
    return fix, ext, cens


def _run_chunk(args):
    """Worker-process entry: rebuild the sampler locally and run a trial range."""
    model, mode, alpha_cum, alpha_masks, seed, lo, hi, max_steps = args
    return _run_range(_sampler(model, mode), alpha_cum, alpha_masks,
                      seed, lo, hi, max_steps)


def estimate_fixation(model: MicSMPModel, alpha: InitialDistribution, trials: int,
                      cfg: TrajectoryConfig, workers: int = 1) -> SimulationResult:
    """Estimate the fixation probability under start distribution ``alpha``.

    Each trial draws its start from ``alpha`` and walks to absorption.  The
    per-trial streams depend only on ``(cfg.seed, trial index)``, so the
    result is identical for any ``workers`` value.
    """
    if trials < 1:
        raise OutOfRange(f"need at least one trial, got {trials}")
    if workers < 1:
        raise OutOfRange(f"need at least one worker, got {workers}")
    if alpha.n != model.n:
        raise NotStochastic("initial distribution dimension mismatch")

    alpha_masks = [mask for mask, _ in alpha.atoms]
    alpha_cum, acc = [], 0.0
    for _, w in alpha.atoms:
        acc += w
        alpha_cum.append(acc)
    alpha_cum[-1] = 1.0

    workers = min(workers, trials)
    if workers == 1:
        parts = [_run_range(_sampler(model, cfg.mode), alpha_cum, alpha_masks,
                            cfg.seed, 0, trials, cfg.max_steps)]
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int).tolist()
        chunks = [(model, cfg.mode, alpha_cum, alpha_masks, cfg.seed, lo, hi,
                   cfg.max_steps) for lo, hi in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, chunks))

    fixations = sum(p[0] for p in parts)
    extinctions = sum(p[1] for p in parts)
    censored = sum(p[2] for p in parts)
    effective = trials - censored
    if effective > 0:
        frequency = fixations / effective
        ci = 3.0 * math.sqrt(frequency * (1.0 - frequency) / effective)
    else:
        frequency = math.nan
        ci = math.nan
    return SimulationResult(trials=trials, fixations=fixations,
                            extinctions=extinctions, censored=censored,
                            frequency=frequency, ci_halfwidth=ci,
                            seed=cfg.seed, mode=cfg.mode)
