"""Exact fixation probabilities via the absorbing jump chain.

Idle steps do not change which absorbing state is hit, so the transient
fixation probabilities solve ``A h = b`` with ``A = I - J``,
``J[x, x ^ (1 << u)] = f_xu / d_x``, ``f`` the flip masses of
:func:`~spatialmoran.dynamics.flip_masses` and ``d_x = sum_u f_xu``;
:func:`_jump_system` writes ``A`` straight into CSR, each row sorted without a sort.
:func:`_certified_solve` serves every ``n <= 20``, the one size bound: dense LU up to ``n = 10``
(``solver.method == "dense"``) and BiCGSTAB (van der Vorst 1992) above (``"iterative"``).
It also solves ``A T = 1``, the expected number of jumps to absorption (Kemeny & Snell, *Finite
Markov Chains*), whose maximum certifies the max-norm error of ``h``.  BiCGSTAB makes one pass
for ``T`` (to 0.01), then one for ``h`` from the Moran value of each level.  Under a stationary
policy (``max|mu W - mu| <= 1e-12``) above ``n = 10``, :func:`_closed_form` certifies ``h``, the
Moran value (the paper's theorem), and ``T``, the gambler's-ruin time, by level from the gap
``mu W - mu`` in ``O(n^3)`` (``"closed-form"``, 0 steps); a model that misses goes to BiCGSTAB.

The solve has a leading model axis: :func:`_fixation_stack` solves ``k``
models with the same ``n`` by one stacked LU and certifies each of them, and
:func:`fixation_probabilities` is its ``k = 1`` call.  Each model's ``rho``
and bound are bitwise those of its solve alone.

The reference values are the classic well-mixed fixation probabilities
``rho_i = i/n`` for neutral fitness and ``(1 - r^-i) / (1 - r^-n)`` otherwise.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import bicgstab

from .dynamics import (MicSMPModel, _as_stack, _flip_masses, _flip_totals,
                       _require_exact_size, _require_fitness, _sorted_places)
from .errors import AtomOnAbsorbing, DegenerateCase, NotStochastic, NumericalFailure, TooLarge
from .graph import STOCHASTIC_TOL, Configuration, _integer, _require_policies, level_masks

#: Largest certified max-norm error of the returned fixation probabilities.
SOLVE_RESIDUAL_TOL = 1e-10
#: Most rows solved by dense LU, the transient masks of ``n = 10``; BiCGSTAB is faster at 9 and
#: 10 too, but birth-death chains of this size need LU: BiCGSTAB diverges on them.
_DENSE_MAX_ROWS = 2**10 - 2
#: Most matrix entries per chunk of a stacked dense LU (2 MiB); a taller system is one chunk.
_DENSE_CHUNK_ENTRIES = 2**18
#: Most atoms :meth:`InitialDistribution.level_uniform` enumerates; every level
#: of an exact-size model fits, since ``C(20, 10) = 184,756``.
MAX_LEVEL_ATOMS = 10**6
_EPS = float(np.finfo(float).eps)
_NEUTRAL_TOL = 1e-12
#: Where :func:`_fixation_stack` logs the route of its models.
_log = logging.getLogger("spatialmoran")


def moran_rho(i: int, n: int, r: float) -> float:
    """Classic well-mixed fixation probability from ``i`` mutants among ``n``.

    Neutral fitness (``|r - 1| <= 1e-12``) gives ``i / n``; otherwise
    ``(1 - r^-i) / (1 - r^-n)``, evaluated through ``expm1``/``log1p`` so the
    near-neutral regime does not cancel catastrophically.  Where that form
    fails, it falls back: ``log r`` once ``r - 1`` rounds to -1, and
    ``r^(n-i) (1 - r^i) / (1 - r^n)`` once ``r^-n`` overflows.  Raises
    :class:`NotStochastic` unless ``r`` is positive and finite, as a model does.
    """
    _require_fitness(np.array([r]))
    if not 0 <= i <= n:
        raise NotStochastic(f"mutant count {i} outside [0, {n}]")
    if i == 0:
        return 0.0
    if i == n or abs(r - 1.0) <= _NEUTRAL_TOL:
        return i / n
    log_r = math.log1p(r - 1.0) if r - 1.0 != -1.0 else math.log(r)
    try:
        return math.expm1(-i * log_r) / math.expm1(-n * log_r)
    except OverflowError:
        return math.exp((n - i) * log_r) * math.expm1(i * log_r) / math.expm1(n * log_r)


@dataclass(frozen=True)
class InitialDistribution:
    """Probability atoms over transient configurations, ``((mask, weight), ...)``."""

    n: int
    atoms: tuple

    def __post_init__(self):
        full = (1 << self.n) - 1
        cleaned, total = [], 0.0
        for mask, weight in self.atoms:
            mask = mask.bits if isinstance(mask, Configuration) else _integer("mask", mask)
            weight = float(weight)
            if not 0 <= mask <= full:
                raise NotStochastic(f"mask {mask:#b} does not fit into {self.n} bits")
            if weight < -STOCHASTIC_TOL:
                raise NotStochastic(f"negative weight {weight} on mask {mask:#b}")
            if weight == 0.0:
                continue
            if mask == 0 or mask == full:
                raise AtomOnAbsorbing(f"initial atom on absorbing mask {mask:#b}")
            cleaned.append((mask, weight))
            total += weight
        if not abs(total - 1.0) <= STOCHASTIC_TOL:  # NaN fails too
            raise NotStochastic(f"initial weights sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @classmethod
    def point_mass(cls, mask: int, n: int) -> "InitialDistribution":
        return cls(n=n, atoms=((mask, 1.0),))

    @classmethod
    def level_uniform(cls, n: int, j: int) -> "InitialDistribution":
        if 0 <= j <= n and math.comb(n, j) > MAX_LEVEL_ATOMS:
            raise TooLarge(f"level {j} of {n} vertices has {math.comb(n, j)} configurations, "
                           f"more than the {MAX_LEVEL_ATOMS} a uniform start may enumerate")
        masks = level_masks(n, j)
        return cls(n=n, atoms=tuple((mask, 1.0 / len(masks)) for mask in masks))


@dataclass(frozen=True)
class SolverInfo:
    """``"dense"`` (LU), ``"iterative"`` (BiCGSTAB) or ``"closed-form"`` (a stationary policy
    above ``n = 10``); BiCGSTAB iterations, two products with ``A`` each (1 for LU, 0 for the
    closed form); certified error bound."""

    method: str
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class FixationReport:
    """Fixation probabilities per configuration plus well-mixed reference deviations.

    ``rho`` is an array of length ``2^n``: ``rho[mask]`` is the fixation
    probability of configuration ``mask`` (0 at the empty mask, 1 at the full
    mask).  ``per_level_deviation`` has length ``n + 1``: entry ``j`` is the
    largest ``|rho_x - rho_j(reference)|`` over configurations with ``j``
    mutants, 0 at the absorbing levels 0 and ``n``.
    """

    n: int
    r: float
    rho: np.ndarray
    per_level_deviation: np.ndarray
    solver: SolverInfo
    rho_alpha: float | None = None


def _jump_system(W: np.ndarray, mu: np.ndarray, r: np.ndarray, labels: list):
    """``(indptr, indices, data, rhs)`` of ``k`` models with the same ``n``: ``A_i = I - J_i``
    in CSR, values ``data[i]`` and sorted int32 ``indices``, and ``rhs[i] = [b_i, 1]``.  Row
    ``x - 1`` holds the diagonal and the flips of mask ``x``, those of zero mass as explicit
    zeros, but not the flip to mask 0 or to the full mask.  Errors open with ``labels[i]``."""
    k, n = mu.shape
    full = (1 << n) - 1
    masks = np.arange(1, full)
    flips = _flip_masses(W, mu, r, masks)
    leave = _flip_totals(flips)
    stuck = leave.min(axis=1) <= 0.0
    if stuck.any():
        i = int(stuck.argmax())
        raise DegenerateCase(f"{labels[i]}configuration "
                             f"{int(masks[leave[i].argmin()]):#b} can never change")
    flips /= leave[:, :, None]
    # rows of level 1, whose flip u reaches mask 0, and of level n - 1, whose flip u is absorbed
    bottom, top = (1 << np.arange(n)) - 1, full - (1 << np.arange(n)) - 1
    rhs = np.stack((np.zeros_like(leave), np.ones_like(leave)), axis=2)
    rhs[:, top, 0] = flips[:, top, np.arange(n)]
    ends = np.cumsum(n + 1 - np.bincount(np.append(bottom, top), minlength=len(masks)))
    # row starts, less one at level 1, where the flip to mask 0 would take place 0
    starts = ends - (n + 1) + np.bincount(top, minlength=len(masks))
    # a flip that leaves the system lands on a spare last entry, or on the entry of vertex n or
    # the diagonal of the row before (level 1) or after (level n - 1), both written after it
    indices, data = np.empty(ends[-1] + 1, np.int32), np.empty((k, ends[-1] + 1))
    for u, (bit, at) in enumerate(_sorted_places(masks, n, starts)):
        data[:, at] = 0.0 - flips[:, :, u] if bit else 1.0
        indices[at] = (masks ^ bit) - 1
    return np.append(0, ends).astype(np.int32), indices[:-1], data[:, :-1], rhs


def _certificate(t_max: np.ndarray, t_residual: np.ndarray, terms: int):
    """``(drift, tau, bound)`` from ``max |T|`` and ``||1 - A T||`` of systems ``A = I - J``.
    ``bound(||b - A h||) = max T / (1 - drift) (||b - A h|| + slack)`` bounds ``||h - A^-1 b||``
    for any nonsingular M-matrix (``A^-1 >= 0``, ``A^-1 1 = T + A^-1 (1 - A T)``) if the drift,
    ``||1 - A T||`` plus slack, is below 1; ``tau`` is the ``||b - A h||`` that puts it at
    ``SOLVE_RESIDUAL_TOL / 10``, less the slack (at least the slack).  The slack ``4 terms eps``
    covers rounding in ``A``, ``b`` and residual rows of ``terms`` terms, each at most 1 per unit
    of the solution; :func:`_closed_form` takes ``n + 2`` for rows of 3 terms, with no ``A``."""
    slack = 4 * terms * _EPS
    drift = t_residual + slack * (1.0 + t_max)
    with np.errstate(divide="ignore", invalid="ignore"):  # tau is read only where drift < 1
        tau = np.maximum(SOLVE_RESIDUAL_TOL * (1.0 - drift) / (10.0 * t_max) - slack, slack)
    return drift, tau, lambda h_residual: t_max / (1.0 - drift) * (h_residual + slack)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _certified_solve(indptr, indices, data, rhs, terms: int, guess, labels: list):
    """Solve ``A_i X_i = [b_i, 1]`` for ``k`` systems ``A_i = I - J_i`` of ``m`` rows in CSR:
    values ``data[i]`` on a shared ``(indptr, indices)``; ``rhs`` has shape ``(k, m, 2)``.

    Up to :data:`_DENSE_MAX_ROWS` rows, one stacked dense LU per chunk of at most
    :data:`_DENSE_CHUNK_ENTRIES` entries or of one system (BiCGSTAB is faster at ``n = 9`` and
    10, but diverges on birth-death chains that long); above, BiCGSTAB on each CSR matrix.
    ``X[i] = [h_i, T_i]`` with a :func:`_certificate` bound each; the CSR arrays of ``A^T``
    solve with ``A^T``.
    BiCGSTAB makes one pass per right-hand side, aimed at the 2-norm residual equal to the
    max-norm target it must meet (``||r||_inf <= ||r||_2``): ``T`` from zero to 0.01 (the bound
    grows by at most ``1 / 0.99``), then ``h`` from ``guess(i)`` to ``tau``, with no pass if the
    guess already meets ``tau``; ``iterations`` counts both passes'.  A pass that misses, runs
    out of iterations or breaks down goes to the bound check as it is.  Floating-point
    warnings are off, so a pass that diverges to overflow or NaN fails the certificate.  Raises
    :class:`NumericalFailure`, opening with ``labels[i]``, when ``||1 - A T||`` reaches 1
    (before solving for ``h``) or a bound exceeds :data:`SOLVE_RESIDUAL_TOL`.
    Each system's solution and bound are bitwise those of its solve alone.
    """
    k, m = rhs.shape[:2]
    X = np.empty_like(rhs)
    residual = np.empty((k, 2))
    iterations = [1] * k
    if m <= _DENSE_MAX_ROWS:
        method = "dense"
        step = max(1, _DENSE_CHUNK_ENTRIES // m**2)
        rows = np.repeat(np.arange(m), np.diff(indptr))
        for lo in range(0, k, step):
            chunk = slice(lo, lo + step)
            A = np.zeros((len(rhs[chunk]), m, m))
            A[:, rows, indices] = data[chunk]
            X[chunk] = np.linalg.solve(A, rhs[chunk])
            residual[chunk] = np.abs(rhs[chunk] - A @ X[chunk]).max(axis=1)
    else:
        method = "iterative"
        systems = [csr_matrix((data[i], indices, indptr), shape=(m, m)) for i in range(k)]
        steps = [[] for _ in range(k)]  # one entry per iteration, not the iterate it is passed
        tick = [lambda _, count=count: count.append(None) for count in steps]
        solve = partial(bicgstab, maxiter=5_000)
        for i, A in enumerate(systems):
            X[i, :, 1] = solve(A, rhs[i, :, 1], atol=0.01, rtol=0.0, callback=tick[i])[0]
            residual[i, 1] = np.abs(rhs[i, :, 1] - A @ X[i, :, 1]).max()
    drift, tau, bound = _certificate(np.abs(X[:, :, 1]).max(axis=1), residual[:, 1], terms)
    unbounded = ~(drift < 1.0)
    if unbounded.any():
        i = int(unbounded.argmax())
        raise NumericalFailure(f"{labels[i]}absorption-time residual "
                               f"{drift[i]:.3e} leaves the error unbounded")
    if method == "iterative":
        for i, A in enumerate(systems):
            X[i, :, 0] = guess(i)  # held in X's row, so a pass from it takes no more memory
            residual[i, 0] = np.abs(rhs[i, :, 0] - A @ X[i, :, 0]).max()
            if residual[i, 0] > tau[i]:  # no pass if the guess meets tau
                X[i, :, 0] = solve(A, rhs[i, :, 0], x0=X[i, :, 0], atol=tau[i], rtol=0.0,
                                   callback=tick[i])[0]
                residual[i, 0] = np.abs(rhs[i, :, 0] - A @ X[i, :, 0]).max()
            iterations[i] = len(steps[i])
    bound = bound(residual[:, 0])
    failed = ~(bound <= SOLVE_RESIDUAL_TOL)
    if failed.any():
        i = int(failed.argmax())
        raise NumericalFailure(f"{labels[i]}certified error bound {bound[i]:.3e} "
                               f"above {SOLVE_RESIDUAL_TOL:g}")
    return X, [SolverInfo(method, it, b) for it, b in zip(iterations, bound.tolist())]


def _closed_form(W: np.ndarray, mu: np.ndarray, r: float):
    """``(h, SolverInfo)`` of a model under a stationary policy, from ``n``-vectors, else
    ``None``: ``h`` and ``T`` are the Moran value and the gambler's-ruin time by level.  With
    ``A``, ``B`` the flows of ``W_mu`` out of and into mask ``x`` of level ``l``, the residual
    there of ``v`` by level is ``e_l(v) + r / (1 + r) (v_{l+1} - v_{l-1}) x.g / (r A + B)``:
    ``e_l`` in the Moran chain, ``A - B = x.g`` for the exact gap ``g = mu (W 1) - mu W``, and
    ``r A + B >= min(r, 1) lambda_2 l (n - l) / n`` (Fiedler 1973).  Declines a negative
    ``W_mu``, a ``lambda_2`` not above its rounding, or residuals that miss BiCGSTAB's targets."""
    n, j = len(mu), np.arange(len(mu) + 1)
    w_mu = mu[:, None] * W
    cut = (w_mu + w_mu.T) * (1.0 - np.eye(n))
    laplacian = np.diag(cut.sum(axis=1)) - cut
    # Weyl: forming L and eigvalsh each move lambda_2 by a modest multiple of n eps ||L||_F
    fiedler = np.linalg.eigvalsh(laplacian)[1] - 4 * n * _EPS * np.linalg.norm(laplacian)
    if (w_mu < 0.0).any() or not fiedler > 0.0:  # :func:`_jump_system` names a stuck mask
        return None
    # g exactly: each float64 is an integer times 2^-1074, so each g_v is one times 2^-2148
    a, w = (np.array([p << 1075 - q.bit_length() for p, q in map(float.as_integer_ratio,
                     x.ravel().tolist())], object).reshape(x.shape) for x in (mu, W))
    gap = a * w.sum(axis=1) - a @ w  # ||g|| rounded twice below, so raised by 2 eps
    norm = math.sqrt(int(gap @ gap) / (1 << 4 * 1074)) * (1.0 + 2 * _EPS)
    kappa = norm / (min(r, 1.0) * fiedler * np.sqrt(j[1:-1] * (n - j[1:-1]) / n))
    moran, up, down = _moran_by_level(n, r), r / (1.0 + r), 1.0 / (1.0 + r)
    t = j * (n - j) if abs(r - 1.0) <= _NEUTRAL_TOL else (n * moran - j) * (r + 1.0) / (r - 1.0)
    h_residual, t_residual = (  # ||b - A h|| and ||1 - A T||, h 0 and 1 at the ends
        (np.abs(b + up * v[2:] + down * v[:-2] - v[1:-1]) + up * np.abs(v[2:] - v[:-2]) * kappa)
        .max() for b, v in ((0.0, moran), (1.0, t)))
    drift, tau, bound = _certificate(np.abs(t).max(), t_residual, n + 2)
    if not (drift <= 0.01 and h_residual <= tau and bound(h_residual) <= SOLVE_RESIDUAL_TOL):
        return None
    return moran[_mask_levels(n)[1:-1]], SolverInfo("closed-form", 0, float(bound(h_residual)))


def _fixation_stack(W: np.ndarray, mu: np.ndarray, r: np.ndarray):
    """``rho`` ``(k, 2^n)`` by mask and a :class:`SolverInfo` each, for ``k`` models with
    the same ``n``: validated weights ``W`` ``(k, n, n)`` (a broadcast view will do),
    policies ``mu`` ``(k, n)`` and fitnesses ``r`` ``(k,)``, which get the checks of
    ``SelectionPolicy`` and ``MicSMPModel``.  Row ``i`` is bitwise
    :func:`fixation_probabilities` of model ``i``; errors name the model when ``k > 1``.
    Each call logs one DEBUG record: ``n``, the models per method, the largest bound, and how
    many models offered the closed form declined it.
    """
    k, n = mu.shape
    if W.shape != (k, n, n) or r.shape != (k,):
        raise NotStochastic(f"a stack of {k} policies of length {n} needs weights of shape "
                            f"{(k, n, n)} and {k} fitnesses, got {W.shape} and {r.shape}")
    _require_exact_size(n)
    _require_policies(mu)
    _require_fitness(r)
    m, labels = (1 << n) - 2, [f"model {i}: " for i in range(k)] if k > 1 else [""]
    h, solvers = np.empty((k, m)), [None] * k
    offered = [i for i in (range(k) if m > _DENSE_MAX_ROWS else ())
               if np.abs(mu[i] @ W[i] - mu[i]).max() <= STOCHASTIC_TOL]
    for i in offered:  # the paper's answer, where it certifies
        if certified := _closed_form(W[i], mu[i], float(r[i])):
            h[i], solvers[i] = certified
    if todo := [i for i in range(k) if solvers[i] is None]:
        named = [labels[i] for i in todo]
        # h starts at the Moran value by level; the levels are built per model, not held
        X, solved = _certified_solve(
            *_jump_system(W[todo], mu[todo], r[todo], named), terms=n + 2, labels=named,
            guess=lambda i: _moran_by_level(n, float(r[todo[i]]))[_mask_levels(n)[1:-1]])
        h[todo], solved = X[:, :, 0], iter(solved)
        solvers = [solver or next(solved) for solver in solvers]
    bound = np.array([solver.residual for solver in solvers])
    if _log.isEnabledFor(logging.DEBUG):
        methods = sorted(Counter(solver.method for solver in solvers).items())
        declined = sum(solvers[i].method != "closed-form" for i in offered)
        _log.debug("exact solve n=%d: %s; largest bound %.3e; closed form declined by %d of %d",
                   n, ", ".join(f"{name} {count}" for name, count in methods), bound.max(),
                   declined, len(offered))
    escaped = (h.min(axis=1) < -bound) | (h.max(axis=1) > 1.0 + bound)
    if escaped.any():
        raise NumericalFailure(f"{labels[int(escaped.argmax())]}"
                               "fixation probabilities escape [0, 1]")
    rho = np.zeros((k, 1 << n))
    rho[:, 1:-1] = h.clip(0.0, 1.0)
    rho[:, -1] = 1.0
    return rho, solvers


def fixation_probabilities(model: MicSMPModel,
                           alpha: InitialDistribution | None = None) -> FixationReport:
    """Solve the absorbing chain for every configuration's fixation probability.

    Dense LU up to ``n = 10``; above, ``"closed-form"`` (:func:`_closed_form`, no pass over
    the masks) if ``mu`` is stationary and it certifies, else BiCGSTAB.  When ``alpha`` is
    given, the report carries ``rho_alpha = sum alpha(x) rho_x``; :func:`_fixation_stack`
    solves many models at once.

    Raises :class:`TooLarge` above ``n = 20``, :class:`DegenerateCase` when
    some transient configuration can never change, and
    :class:`NumericalFailure` when the certified error bound exceeds 1e-10.
    """
    n = model.n
    _require_exact_size(n)
    if alpha is not None and alpha.n != n:
        raise NotStochastic("initial distribution dimension mismatch")
    (rho,), (solver,) = _fixation_stack(*_as_stack(model))
    rho_alpha = None if alpha is None else float(sum(w * rho[mask] for mask, w in alpha.atoms))
    return FixationReport(n=n, r=model.r, rho=rho,
                          per_level_deviation=_per_level_deviation(rho, model.r),
                          solver=solver, rho_alpha=rho_alpha)


def _per_level_deviation(rho: np.ndarray, r: float) -> np.ndarray:
    """:attr:`FixationReport.per_level_deviation` of ``rho``, indexed by mask, at fitness ``r``."""
    n = len(rho).bit_length() - 1
    levels = _mask_levels(n)
    deviation = np.zeros(n + 1)
    np.maximum.at(deviation, levels, np.abs(rho - _moran_by_level(n, r)[levels]))
    return deviation


def _mask_levels(n: int) -> np.ndarray:
    """The level of each mask ``0..2^n - 1``, by doubling: ``l[2^v : 2^(v+1)] = l[:2^v] + 1``."""
    return reduce(lambda levels, _: np.append(levels, levels + 1), range(n), np.zeros(1, np.uint8))


def _moran_by_level(n: int, r: float) -> np.ndarray:
    """:func:`moran_rho` of each level ``0..n`` at fitness ``r``."""
    return np.array([moran_rho(j, n, r) for j in range(n + 1)])


def fixation_for_initial(model: MicSMPModel, alpha: InitialDistribution) -> float:
    """Fixation probability when the start is drawn from ``alpha``."""
    return fixation_probabilities(model, alpha=alpha).rho_alpha
