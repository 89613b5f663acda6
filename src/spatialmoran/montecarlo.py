"""Monte Carlo estimation of fixation probabilities.

Trials are reproducible and embarrassingly parallel: trial ``t`` consumes an
independent Philox stream under the run seed, uniforms ``4 k .. 4 k + 3``
from the counter ``(t + 1, k, 0, 0)``, one uniform per step, so results are
bit-identical for any worker count and any partition of the trial range.
The default event-driven mode samples only state-changing transitions (idle
steps keep the configuration and therefore cannot affect which absorbing
state is hit); faithful mode samples the one-step law including idles and
exists to validate that shortcut.

Two samplers draw from the same law, and one block driver runs both.  Each
offers three members: ``begin`` builds the state of a batch of trials, one
row each; ``step`` advances every row of a state one step in lockstep; and
``resume`` walks one row on alone, one ``next_uniform()`` per step.  Both
``step`` and ``resume`` report fate codes: 0 while a trial walks, then 1
(fixation), 2 (extinction) or 3 (censored).  The walk policy is the
driver's, the same for both samplers.  Trials go in blocks of
:data:`BLOCK_TRIALS` (``2^14``), fewer where a block's ``(trials, n)``
arrays would pass 2^20 entries.  The first draw in a block takes uniforms
0..3 of every trial (uniform 0 picks its start).  A later draw, with
``blocks = max(1, _PHILOX_COUNTERS // walking)``, is one call of NumPy's C
Philox (which steps the trial word) for the next four uniforms of every
trial of the block, walking or not, if ``blocks`` such calls take at most
``16 _PHILOX_COUNTERS`` counters in all, which C Philox draws in about the
time of one kernel call; else it is one call of a vectorised Philox kernel
for the next ``4 blocks`` uniforms of every walking trial, at least
:data:`_PHILOX_COUNTERS` counters however few walk.
Philox is counter-based, so these are exactly the uniforms of the per-trial
streams, and the counts for a given seed are bit-identical to walking the
trials one at a time.  A lockstep step costs a fixed number of NumPy calls
however few trials walk, so while fewer than :data:`LOCKSTEP_MIN_TRIALS`
walk (the tail of a block, a short run) each goes on through ``resume`` over
the uniforms already drawn for it, and the next draw covers only the trials
still walking.  A single trajectory is a state of one row, walked by
``resume`` from the start on trial 0's uniforms.

Up to ``n = 12`` (:data:`TABLE_MAX_VERTICES`) every transient configuration
gets a cumulative sampling table, built up front in one
:func:`~spatialmoran.dynamics.flip_masses` batch; a step bisects every
walking trial's table row at once.
Above ``n = 12`` the tables would not fit, and the walker follows
Gillespie's direct method instead: per trajectory it keeps the type vector
and the unnormalised masses of mutant and of wildtype parents placed onto
each vertex.  Flipping vertex ``u`` changes only ``u``'s selection weight,
so a step is O(n) work and nothing is kept per configuration.  Every mass
and weight is an int64 multiple of ``2^-61 max(r, 1)``: each placement
weight ``r W_mu[v, u]`` and ``W_mu[v, u]`` is clipped at zero (validation
admits entries down to ``-1e-12``) and rounded to that unit once, when the
walker is built (a weight below half the unit is lost), and a flip adds
integer rows.  So the masses are always exactly the sums of the current
parents' rows, never negative, and a lockstep walk is bitwise the walk of
each trial alone.  A flip mass sums at most ``n`` rounded weights, so each
pick probability is off by at most about ``n 2^-62 max(r, 1) / total``, the
total flip mass in the units of ``r``.  The unit is relative to
``max(r, 1)``, not to the current total: the error stays below the
``2^-53`` grain of a uniform only where the total is above about
``n 2^-9 max(r, 1)``, and near absorption on a large graph it is not.  Nor
is it relative to the smaller type's weights: at ``r = 1e12`` (or
``1e-12``) on a random ``n = 30`` model, whose placements are about
``1e-3``, the wildtype (mutant) weights are off by up to ``4e-4`` of their
size, against about ``1e-16`` in floats.  The pick compares the double
``u * total`` (``u * weight`` in faithful mode) with the cumulative row
cast to float64, whose entries are still sorted, so a vertex of zero mass
is never picked; each boundary is in any case only as exact as a double
(``2^-53`` of the running sum).  A lockstep step is one row-wise
cumulative sum, one count of the entries at or below each row's target and
one row update.  There is no vertex limit.

A configuration that can never change (every flip mass zero, possible only
when the policy has zeros or, in the walker, when the weights that would
change it are lost) censors the trajectory that reaches it, in both modes,
at once.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dynamics import MicSMPModel, flip_masses
from .errors import AbsorbingStart, NotStochastic, OutOfRange
from .exact import InitialDistribution
from .graph import Configuration, _integer, mask_bits

#: Largest vertex count sampled from prebuilt per-configuration tables.
TABLE_MAX_VERTICES = 12
#: Most trials of one lockstep block.
BLOCK_TRIALS = 1 << 14
#: Fewest trials walked in lockstep, by either sampler; fewer go on one at a time.
LOCKSTEP_MIN_TRIALS = 32
#: Most entries of a block's ``(trials, n)`` arrays: 8 MiB per float array.
_BLOCK_ENTRIES = 1 << 20
#: Fewest Philox counters one kernel evaluation takes (it costs about 300 NumPy
#: calls however few); C draws of at most 16 times as many cost about as much.
_PHILOX_COUNTERS = 1 << 10


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
        for name in ("seed", "max_steps"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.max_steps < 1:
            raise OutOfRange(f"max_steps must be >= 1, got {self.max_steps}")
        if self.mode not in ("event", "faithful"):
            raise OutOfRange(f"mode must be 'event' or 'faithful', got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise OutOfRange("seed must fit into 64 unsigned bits")


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated trial counts; ``frequency`` excludes censored trajectories, and
    ``frequency +/- ci_halfwidth`` holds its Wilson score interval at z = 3, never of width 0."""

    trials: int
    fixations: int
    extinctions: int
    censored: int
    frequency: float
    ci_halfwidth: float
    seed: int
    mode: str


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit products ``m * x``, from 32-bit halves."""
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    lo = x & _LOW32
    hi = x >> _U64(32)
    carry = m_lo * hi
    carry += (m_lo * lo) >> _U64(32)
    lo *= m_hi
    lo += carry & _LOW32
    hi *= m_hi
    carry >>= _U64(32)
    hi += carry
    lo >>= _U64(32)
    hi += lo
    return hi, _U64(m) * x


def _philox_uniforms(seed: int, trials: np.ndarray, block: int, blocks: int = 1) -> np.ndarray:
    """Uniforms ``4 block .. 4 (block + blocks) - 1`` of each trial's stream.

    Row ``k`` of the ``(4 blocks, len(trials))`` result holds uniform
    ``4 block + k``: word ``k % 4`` of Philox4x64-10 (Salmon et al., SC'11) at
    the counter ``(trial + 1, block + k // 4, 0, 0)`` under the key
    ``(seed, 0)``, turned into a double as NumPy's ``random()`` turns a word.
    So uniforms ``4 k .. 4 k + 3`` of trial ``t`` are what ``Philox(key=seed,
    counter=(t, k, 0, 0)).random_raw(4)`` draws.  ``trials`` is ``uint64``.
    """
    c0 = np.broadcast_to(trials + _U64(1), (blocks, len(trials)))
    c1 = np.broadcast_to(np.arange(block, block + blocks, dtype=_U64)[:, None], c0.shape)
    c2 = c3 = np.zeros(c0.shape, dtype=_U64)
    for i in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= _U64((seed + i * _PHILOX_W[0]) % 2**64)
        hi0 ^= c3
        hi0 ^= _U64(i * _PHILOX_W[1] % 2**64)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    words = np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, len(trials))
    words >>= _U64(11)
    uniforms = words.astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def _block_uniforms(seed: int, first: int, count: int, block: int) -> np.ndarray:
    """:func:`_philox_uniforms` of one block for trials ``first .. first + count - 1``,
    transposed: one draw of NumPy's C Philox, which steps the trial word."""
    words = np.random.Philox(key=seed, counter=[first, block, 0, 0]).random_raw(4 * count)
    words >>= _U64(11)
    uniforms = words.view(np.float64)
    np.copyto(uniforms, words, casting="unsafe")  # element by element, each read before written
    uniforms *= 2.0**-53
    return uniforms.reshape(count, 4)


#: Outcome of each fate code of ``step`` and ``resume``; code 0 marks a trial still walking.
_OUTCOMES = (None, Outcome.FIXATION, Outcome.EXTINCTION, Outcome.CENSORED)


class _Tables:
    """Cumulative sampling tables of every configuration (small ``n``).

    Row ``mask`` of ``cum`` holds the cumulative flip masses of the vertices
    that can flip, in vertex order (normalised in event mode; closed by the
    idle mass in faithful mode), padded with 2.0 to a power-of-two width;
    ``targets`` holds the configuration each entry moves to.  Both are kept
    flat.  ``fate`` is the fate code (index into ``_OUTCOMES``) of each mask:
    0 for the masks that walk on, 3 for those that never change.
    """

    def __init__(self, model: MicSMPModel, mode: str):
        n = model.n
        full = (1 << n) - 1
        # rows of 2^shift >= n + 2 entries, for the branchless bisection of step()
        self._shift = shift = (n + 1).bit_length()
        self._halves = [1 << k for k in range(shift - 1, -1, -1)]
        masks = np.arange(1, full)
        flips = flip_masses(model, masks)
        positive = flips > 0.0
        count = positive.sum(axis=1)
        # the vertices that can flip first, in vertex order
        order = np.argsort(~positive, axis=1, kind="stable")
        cum = np.ones((len(masks), 1 << shift))
        np.cumsum(np.take_along_axis(np.where(positive, flips, 0.0), order, axis=1),
                  axis=1, out=cum[:, :n])
        targets = np.repeat(masks[:, None], 1 << shift, axis=1)
        targets[:, :n] ^= 1 << order
        rows = np.arange(len(masks))
        if mode == "event":
            cum /= cum[rows, count - 1][:, None]
            last = count - 1
        else:
            last = count
            targets[rows, last] = masks  # the idle mass closes the table
        cum[rows, last] = 1.0  # in event mode, guards the top edge against rounding
        # pads every row (all of a row that never changes) above any uniform
        cum[np.arange(1 << shift) > last[:, None]] = 2.0
        self._cum = np.full((full + 1) << shift, 2.0)
        self._cum[1 << shift:full << shift] = cum.ravel()
        self._targets = np.zeros((full + 1) << shift, dtype=np.int64)
        self._targets[1 << shift:full << shift] = targets.ravel()
        self._fate = np.full(full + 1, 3, dtype=np.int8)
        self._fate[0], self._fate[full] = 2, 1
        self._fate[1:full][count > 0] = 0

    @cached_property
    def _lists(self):
        """``cum``, ``targets`` and ``fate`` as lists, for walks of one trial."""
        return self._cum.tolist(), self._targets.tolist(), self._fate.tolist()

    def begin(self, alpha_masks, picks: np.ndarray):
        """Lockstep state ``[masks]`` of trials starting on atoms ``picks``, and their fates."""
        masks = np.asarray(alpha_masks, dtype=np.int64)[picks]
        return [masks], self._fate.take(masks)

    def step(self, state, u: np.ndarray) -> np.ndarray:
        """One step of every trial in ``state``, on uniforms ``u``; returns the fate codes."""
        (masks,) = state
        cum = self._cum
        # branchless bisection: ``at`` ends on the first entry of the row
        # not below u, as bisect_left finds it
        at = masks << self._shift
        for half in self._halves:
            at += (cum.take(at + (half - 1)) < u) * half
        masks[:] = self._targets.take(at)
        return self._fate.take(masks)

    def resume(self, state, k: int, next_uniform, max_steps: int):
        """Walk trial ``k`` of ``state`` on alone, one ``next_uniform()`` per step.

        Takes up to ``max_steps`` steps and writes the trial's mask back;
        ``(fate code, steps)``, the code 0 if the trial walks on.
        """
        cum, targets, fate = self._lists
        shift = self._shift
        width = 1 << shift
        (masks,) = state
        mask, steps = int(masks[k]), 0
        while steps < max_steps and not fate[mask]:
            at = mask << shift
            mask = targets[bisect_left(cum, next_uniform(), at, at + width)]
            steps += 1
        masks[k] = mask
        return fate[mask], steps


class _Walker:
    """Incremental walker of Gillespie's direct method (large ``n``).

    Row ``k`` of a state is one trajectory: its type vector ``x``; its
    ``masses``, where ``masses[0, u]`` (``masses[1, u]``) is the unnormalised
    mass of mutant (wildtype) parents placing offspring onto ``u``; its total
    selection ``weight``, which normalises both; and its count of ``mutants``.
    Masses and weights are int64 multiples of ``2^-61 max(r, 1)``.
    """

    def __init__(self, model: MicSMPModel, mode: str):
        r = model.r
        self._n = model.n
        self._event = mode == "event"
        # placed[0][v] (placed[1][v]): what v places onto each vertex as a
        # mutant (wildtype) parent, clipped at zero (a policy entry may lie
        # down to -1e-12) and rounded once; each entry is at most 2^61
        scale = 2.0**61 / max(r, 1.0)
        w_mu = model.mu.mu[:, None] * model.W.entries
        placed = np.maximum(np.stack((r * w_mu, w_mu)), 0.0)
        self._placed = np.rint(placed * scale).astype(np.int64)
        # rows[u]: change of the masses when vertex u turns mutant; row n + u,
        # when it turns wildtype.  Likewise for the selection weight.
        rows = np.stack((self._placed[0], -self._placed[1]), axis=1)
        self._signed_rows = np.concatenate((rows, -rows))
        dweight = rows.sum(axis=(1, 2))
        self._signed_dweight = np.concatenate((dweight, -dweight))

    def begin(self, alpha_masks, picks: np.ndarray):
        """Lockstep state of trials starting on atoms ``picks``, and their fates.

        The state is ``x``, ``masses``, ``weight`` and ``mutants``, each along
        a leading trial axis (each atom's masses are summed once), then the
        scratch arrays of :meth:`step`, so that a step allocates no array of
        ``trials x n`` entries.
        """
        atoms, inverse = np.unique(picks, return_inverse=True)
        x = mask_bits([alpha_masks[atom] for atom in atoms.tolist()], self._n)
        masses = np.stack((x @ self._placed[0], ~x @ self._placed[1]), axis=1)
        weight = masses.sum(axis=(1, 2))  # every parent's placements
        inverse = inverse.ravel()
        state = [a[inverse] for a in (x, masses, weight, x.sum(axis=1))]
        flips = np.empty((len(picks), self._n), dtype=np.int64)
        state += [flips, np.empty_like(flips), np.empty_like(state[1])]
        return state, np.zeros(len(picks), dtype=np.int8)

    def step(self, state, u: np.ndarray) -> np.ndarray:
        """One step of every trial in ``state``, on uniforms ``u``; returns the fate codes.

        Bitwise :meth:`resume`'s step on each row.
        """
        x, masses, weight, mutants, flips, cum, delta = state
        m, n = x.shape
        np.copyto(flips, masses[:, 0])
        np.copyto(flips, masses[:, 1], where=x)
        np.cumsum(flips, axis=1, out=cum)
        total = cum[:, -1]
        target = u * (total if self._event else weight)
        # on sorted rows, the count of entries at or below target is the vertex
        # v that searchsorted(..., "right") picks, n where none is
        picked = np.count_nonzero(cum <= target[:, None], axis=1)
        at = picked + np.arange(0, m * n, n)
        go = target < total
        # where a row flips, ``at`` is the flat index of v; turned says whether v
        # was a mutant, and row turned n + v of the signed tables applies
        turned = x.ravel().take(at, mode="clip")
        signed = turned * n + picked
        self._signed_rows.take(signed, axis=0, out=delta, mode="clip")
        np.add(masses, delta, out=masses, where=go[:, None, None])
        np.add(weight, self._signed_dweight.take(signed, mode="clip"), out=weight, where=go)
        np.add(mutants, 1 - 2 * turned.astype(np.int64), out=mutants, where=go)
        x.ravel()[at[go]] = ~turned[go]
        fate = np.zeros(m, dtype=np.int8)
        fate[mutants == n] = 1
        fate[mutants == 0] = 2
        fate[total == 0] = 3  # the configuration never changes
        return fate

    def resume(self, state, k: int, next_uniform, max_steps: int):
        """Walk trial ``k`` of ``state`` on alone, one ``next_uniform()`` per step.

        Takes up to ``max_steps`` steps and writes the trial's row back;
        ``(fate code, steps)``, the code 0 if the trial walks on.
        """
        n, event = self._n, self._event
        signed_rows, signed_dweight = self._signed_rows, self._signed_dweight
        where = np.where
        x, masses = state[0][k], state[1][k]
        toward, away = masses
        weight, mutants = state[2][k], state[3][k].item()
        fate = steps = 0
        while steps < max_steps:
            uniform = next_uniform()
            steps += 1
            cum = where(x, away, toward).cumsum()
            total = cum[-1]
            target = uniform * (total if event else weight)
            if target >= total:  # an idle step, or nothing can change
                if total == 0:  # the configuration never changes: censor, uncounted
                    fate, steps = 3, steps - 1
                    break
                continue
            u = cum.searchsorted(target, "right")
            turned = x[u]
            x[u] = not turned
            signed = u + n if turned else u
            masses += signed_rows[signed]
            weight += signed_dweight[signed]
            mutants += -1 if turned else 1
            if mutants == 0 or mutants == n:
                fate = 1 if mutants else 2
                break
        state[2][k], state[3][k] = weight, mutants
        return fate, steps


@lru_cache(maxsize=1)
def _sampler(model: MicSMPModel, mode: str):
    """The sampler of ``model`` in ``mode``, memoised: models are immutable, and a
    sampler keeps nothing of a run, so repeated trajectories share its tables."""
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
    state, _ = sampler.begin([x0.bits], np.zeros(1, np.intp))
    fate, steps = sampler.resume(state, 0, _trial_zero(cfg.seed).__next__, cfg.max_steps)
    return _OUTCOMES[fate] or Outcome.CENSORED, steps


def _trial_zero(seed: int):
    """Trial 0's uniforms, drawn :data:`_PHILOX_COUNTERS` Philox blocks at a time."""
    trial = np.zeros(1, dtype=_U64)
    for block in itertools.count(0, _PHILOX_COUNTERS):
        yield from _philox_uniforms(seed, trial, block, _PHILOX_COUNTERS).ravel().tolist()


def _run_range(model: MicSMPModel, mode: str, alpha_cum, alpha_masks, seed: int,
               lo: int, hi: int, max_steps: int):
    """``(fixations, extinctions, censored)`` of trials ``lo..hi-1``, in lockstep blocks.

    Builds its own sampler, so it also serves as the worker-process entry.
    Uniform 0 of each trial's stream picks its start, and step ``s`` takes uniform ``s``.
    """
    sampler = _sampler(model, mode)
    block = max(1, min(BLOCK_TRIALS, _BLOCK_ENTRIES // model.n))
    counts = np.zeros(len(_OUTCOMES), dtype=np.int64)
    for first in range(lo, hi, block):
        trials = np.arange(first, min(first + block, hi), dtype=_U64)
        uniforms = _block_uniforms(seed, first, len(trials), 0)
        state, fate = sampler.begin(alpha_masks, np.searchsorted(alpha_cum, uniforms[:, 0]))
        walking, step, lane = len(trials), 0, 1  # the next step takes uniform step + 1
        while True:
            if fate.any():
                counts += np.bincount(fate, minlength=len(_OUTCOMES))
                # compact: the walking trials behind the new end fill the holes before it
                go = fate == 0
                walking = int(np.count_nonzero(go))
                holes, movers = np.flatnonzero(~go[:walking]), np.flatnonzero(go[walking:])
                for a in (trials, uniforms, *state):
                    a[holes] = a[walking + movers]
            if not walking:
                break
            if lane == uniforms.shape[1]:  # uniform step + 1 starts a Philox block
                pblock, blocks = (step + 1) // 4, max(1, _PHILOX_COUNTERS // walking)
                # one C draw of the block, then its walking rows, while the ``blocks`` C
                # draws that one kernel call would save cost no more than that call
                if len(trials) * blocks <= 16 * _PHILOX_COUNTERS:
                    uniforms = _block_uniforms(seed, first, len(trials), pblock)
                    uniforms = uniforms[trials[:walking] - first]
                else:
                    uniforms = _philox_uniforms(seed, trials[:walking], pblock, blocks).T
                lane = 0
            if walking >= LOCKSTEP_MIN_TRIALS:
                span = 1
                fate = sampler.step([a[:walking] for a in state], uniforms[:walking, lane])
            else:  # each trial walks alone over the lanes already drawn
                span = min(uniforms.shape[1] - lane, max_steps - step)
                lanes = uniforms[:walking, lane:lane + span].tolist()
                fate = np.array([sampler.resume(state, k, iter(row).__next__, span)[0]
                                 for k, row in enumerate(lanes)], dtype=np.int8)
            lane += span
            step += span
            if step == max_steps:
                fate[fate == 0] = 3  # censor the trials still walking
    return tuple(counts[1:].tolist())


def estimate_fixation(model: MicSMPModel, alpha: InitialDistribution, trials: int,
                      cfg: TrajectoryConfig, workers: int = 1) -> SimulationResult:
    """Estimate the fixation probability under start distribution ``alpha``.

    Each trial draws its start from ``alpha`` and walks to absorption.  The
    per-trial streams depend only on ``(cfg.seed, trial index)``, so the
    result is identical for any ``workers`` value.  At most as many worker
    processes start as the process may use CPUs.
    """
    trials, workers = _integer("trials", trials), _integer("workers", workers)
    if trials < 1:
        raise OutOfRange(f"need at least one trial, got {trials}")
    if workers < 1:
        raise OutOfRange(f"need at least one worker, got {workers}")
    if alpha.n != model.n:
        raise NotStochastic("initial distribution dimension mismatch")

    alpha_masks = [mask for mask, _ in alpha.atoms]
    alpha_cum = list(itertools.accumulate(w for _, w in alpha.atoms))
    alpha_cum[-1] = 1.0

    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, trials, usable or 1)
    bounds = np.linspace(0, trials, workers + 1).astype(int).tolist()
    ranges = [(model, cfg.mode, alpha_cum, alpha_masks, cfg.seed, lo, hi, cfg.max_steps)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    if workers == 1:
        parts = [_run_range(*ranges[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_range, *zip(*ranges)))

    fixations = sum(p[0] for p in parts)
    extinctions = sum(p[1] for p in parts)
    censored = sum(p[2] for p in parts)
    effective = trials - censored
    if effective > 0:
        frequency = fixations / effective
        # Wilson's score interval at z = 3, shrink = z^2 / N: half-width plus centre's offset
        shrink = 9.0 / effective
        ci = (3.0 * math.sqrt((frequency * (1.0 - frequency) + shrink / 4.0) / effective)
              + shrink * abs(0.5 - frequency)) / (1.0 + shrink)
    else:
        frequency = ci = math.nan
    return SimulationResult(trials=trials, fixations=fixations,
                            extinctions=extinctions, censored=censored,
                            frequency=frequency, ci_halfwidth=ci,
                            seed=cfg.seed, mode=cfg.mode)
