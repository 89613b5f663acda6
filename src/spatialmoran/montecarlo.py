"""Monte Carlo estimation of fixation probabilities.

Trials are reproducible and embarrassingly parallel: trial ``t`` consumes an
independent Philox stream positioned at counter ``t`` under the run seed, so
results are bit-identical for any worker count and any partition of the
trial range.  The default event-driven mode samples only state-changing
transitions (idle steps keep the configuration and therefore cannot affect
which absorbing state is hit); faithful mode samples the one-step law
including idles and exists to validate that shortcut.
"""

from __future__ import annotations

import enum
import math
import threading
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import MicSMPModel, _row_changes
from .errors import AbsorbingStart, NotStochastic, OutOfRange, TooLarge
from .exact import InitialDistribution
from .graph import Configuration

_CHUNK = 32
#: Largest vertex count: configurations are handled as 64-bit integer masks.
MAX_SAMPLER_VERTICES = 63


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


def _require_mask_width(model: MicSMPModel) -> None:
    if model.n > MAX_SAMPLER_VERTICES:
        raise TooLarge(f"Monte Carlo handles configurations as 64-bit masks, so it is "
                       f"limited to n <= {MAX_SAMPLER_VERTICES}, got {model.n}")


class _Sampler:
    """Per-configuration cumulative sampling tables for one model and mode."""

    def __init__(self, model: MicSMPModel, mode: str):
        self._model = model
        self._mode = mode
        self._n = model.n
        self._full = (1 << model.n) - 1
        self._tables: dict[int, tuple[list, list]] = {}
        self._lock = threading.Lock()
        if model.n <= 12:
            for mask in range(1, self._full):
                self._tables[mask] = self._build(mask)

    def _build(self, mask: int) -> tuple[list, list]:
        model = self._model
        gain, loss, idle = _row_changes(mask, self._n, model.W.entries,
                                        model.mu.mu, model.r)
        masses = gain + loss
        targets = [mask ^ (1 << u) for u in np.nonzero(masses)[0].tolist()]
        probs = masses[masses > 0].tolist()
        if self._mode == "event":
            scale = 1.0 - idle
            probs = [p / scale for p in probs]
        else:
            targets.append(mask)
            probs.append(idle)
        cum, acc = [], 0.0
        for p in probs:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0  # guard the top edge against rounding
        return cum, targets

    def table(self, mask: int) -> tuple[list, list]:
        table = self._tables.get(mask)
        if table is None:
            with self._lock:
                table = self._tables.setdefault(mask, self._build(mask))
        return table

    def walk(self, mask: int, stream: _TrialStream, max_steps: int):
        full = self._full
        tables = self._tables
        next_uniform = stream.next_uniform
        steps = 0
        while steps < max_steps:
            try:
                cum, targets = tables[mask]
            except KeyError:
                cum, targets = self.table(mask)
            mask = targets[bisect_left(cum, next_uniform())]
            steps += 1
            if mask == 0:
                return Outcome.EXTINCTION, steps
            if mask == full:
                return Outcome.FIXATION, steps
        return Outcome.CENSORED, steps


def simulate_trajectory(model: MicSMPModel, x0: Configuration,
                        cfg: TrajectoryConfig) -> tuple[Outcome, int]:
    """Run one trajectory from ``x0`` until absorption or ``cfg.max_steps``.

    Uses trial stream 0 of ``cfg.seed``; raises :class:`AbsorbingStart` when
    ``x0`` is already absorbing and :class:`TooLarge` above ``n = 63``.
    """
    _require_mask_width(model)
    if x0.n != model.n:
        raise NotStochastic("start configuration dimension mismatch")
    if x0.is_absorbing:
        raise AbsorbingStart(f"mask {x0.bits:#b} is absorbing")
    sampler = _Sampler(model, cfg.mode)
    stream = _TrialStream(cfg.seed)
    stream.position(0)
    return sampler.walk(x0.bits, stream, cfg.max_steps)


def _run_range(sampler: _Sampler, alpha_cum, alpha_masks, seed: int,
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
    return _run_range(_Sampler(model, mode), alpha_cum, alpha_masks,
                      seed, lo, hi, max_steps)


def estimate_fixation(model: MicSMPModel, alpha: InitialDistribution, trials: int,
                      cfg: TrajectoryConfig, workers: int = 1) -> SimulationResult:
    """Estimate the fixation probability under start distribution ``alpha``.

    Each trial draws its start from ``alpha`` and walks to absorption.  The
    per-trial streams depend only on ``(cfg.seed, trial index)``, so the
    result is identical for any ``workers`` value.  Raises :class:`TooLarge`
    above ``n = 63``.
    """
    _require_mask_width(model)
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
        parts = [_run_range(_Sampler(model, cfg.mode), alpha_cum, alpha_masks,
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
