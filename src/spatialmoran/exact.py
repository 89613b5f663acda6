"""Exact fixation probabilities via the absorbing jump chain.

Idle steps do not change which absorbing state is hit, so the transient
fixation probabilities solve ``A h = b`` with ``A = I - J``,
``J[x, x ^ (1 << u)] = f_xu / d_x``, ``f`` the flip masses of
:func:`~spatialmoran.dynamics.flip_masses` and ``d_x = sum_u f_xu``.  A jump changes the parity
of the mutant count, so with the even masks first ``A = [[I, -E], [-F, I]]`` (Property A; Reid
1972): :func:`_certified_solve` solves ``(I - E F) x_e = b_e + E b_o``, then ``x_o = b_o + F x_e``,
for every ``n <= 20`` (the one size bound): by dense LU up to ``n = 10`` (``"dense"``), and above
by BiCGSTAB (van der Vorst 1992; ``"iterative"``) in half the iterations it takes on ``A``.
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
from scipy.sparse.linalg import LinearOperator, bicgstab

from .dynamics import (MicSMPModel, _as_stack, _flip_masses, _flip_totals,
                       _require_exact_size, _require_fitness)
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
    above ``n = 10``); BiCGSTAB iterations on the reduced system ``I - E F``, each two products'
    worth of ``A`` (1 for LU, 0 for the closed form); certified error bound."""

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
    """``(E, e_cols, b_e)``, ``(F, f_cols, b_o)`` and the row masks of ``A_i = I - J_i`` for ``k``
    models of one ``n``: ``E[i, x, u]`` is flip ``u``'s jump from the ``x``-th even-level mask to
    the ``e_cols[x, u]``-th odd one, mask ``y`` being ``(y >> 1) - [y even]``-th in its class, and
    ``F`` back; a flip to mask 0 or the full mask is a zero at index 0.  ``b[i, x] = [b_i, 1]``,
    ``b_i`` the jump to the full mask.  Errors open with ``labels[i]``."""
    k, n = mu.shape
    full, vertex, odd = (1 << n) - 1, np.arange(n), _mask_levels(n)[1:-1] & 1
    masks, split = np.append(np.flatnonzero(odd == 0), np.flatnonzero(odd)) + 1, (odd == 0).sum()
    odd.sort()  # odd[x] now tells whether row x is odd, so its targets are even, one index lower
    flips = _flip_masses(W, mu, r, masks)
    leave = _flip_totals(flips)
    stuck = leave.min(axis=1) <= 0.0
    if stuck.any():
        i = int(stuck.argmax())
        raise DegenerateCase(f"{labels[i]}configuration "
                             f"{int(masks[leave[i] <= 0.0].min()):#b} can never change")
    flips /= leave[:, :, None]
    cols = np.empty(flips.shape[1:], np.int32)
    for u in vertex:
        cols[:, u] = ((masks ^ (1 << u)) >> 1) - odd
    # rows of level 1, whose flip u reaches mask 0, and of level n - 1, whose flip u is absorbed
    bottom = split + ((1 << vertex) >> 1)
    top = ((full ^ (1 << vertex)) >> 1) - 1 + ((n - 1) & 1) * (split + 1)
    rhs = np.stack((np.zeros_like(leave), np.ones_like(leave)), axis=2)
    rhs[:, top, 0] = flips[:, top, vertex]
    flips[:, top, vertex] = flips[:, bottom, vertex] = 0.0
    cols[top, vertex] = cols[bottom, vertex] = 0
    return ((flips[:, :split], cols[:split], rhs[:, :split]),
            (flips[:, split:], cols[split:], rhs[:, split:]), masks)


def _jumps(data: np.ndarray, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``J x`` on one half's rows of a stack, added in vertex order, for ``x`` of the other."""
    out = np.zeros(data.shape[:2] + x.shape[2:])
    for u in range(data.shape[2] if x.shape[1] else 0):  # at n = 2 the even half is empty
        out += data[:, :, u, None] * x[:, cols[:, u]]
    return out


def _schur(E: np.ndarray, F: np.ndarray, e_cols: np.ndarray, f_cols: np.ndarray) -> np.ndarray:
    """``I - E F`` of each system of a stack, dense, by one ``bincount`` of the ``w^2`` two-jump
    paths of each row, ``E[x, u] F[y, v]`` at ``f_cols[y, v]`` for ``y = e_cols[x, u]``."""
    k, m = E.shape[:2]
    at = np.arange(k * m).reshape(k, m, 1, 1) * m + f_cols[e_cols]
    S = np.bincount(at.ravel(), (E[..., None] * -F[:, e_cols]).ravel(), k * m * m)
    S.reshape(k, m * m)[:, ::m + 1] += 1  # an int: with no paths (n = 2) S counts in ints
    return S.reshape(k, m, m)


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
def _certified_solve(even, odd, terms: int, guess, labels: list):
    """Solve ``A_i X_i = [b_i, 1]`` for ``k`` systems ``A_i = [[I, -E_i], [-F_i, I]]``, given by
    the halves ``(E, e_cols, b_e)``, ``(F, f_cols, b_o)`` of :func:`_jump_system`.

    One elimination serves both branches: ``S x_e = b_e + E b_o``, ``S = I - E F``, then
    ``x_o = b_o + F x_e``.  Up to :data:`_DENSE_MAX_ROWS` rows of ``A``, one stacked LU of
    :func:`_schur` per chunk of :data:`_DENSE_CHUNK_ENTRIES` entries or one system (BiCGSTAB is
    faster at ``n = 9``, 10 but diverges on birth-death chains that long); above, BiCGSTAB on
    ``S``.  ``X[i] = [h_i, T_i]``, even rows first, with a :func:`_certificate` bound from ``A``.
    BiCGSTAB makes one pass per right-hand side, aimed at the 2-norm residual equal to the
    max-norm target it must meet (``||r||_inf <= ||r||_2``): ``T`` from zero to 0.01 (the bound
    grows by at most ``1 / 0.99``), then ``h`` from the even half of ``guess(i)`` to ``tau``, with
    no pass if all of it meets ``tau``; ``iterations`` counts both passes'.  A pass that misses,
    runs out of iterations or breaks down goes to the bound check as it is.  Floating-point
    warnings are off, so a pass that diverges to overflow or NaN fails the certificate.  Raises
    :class:`NumericalFailure`, opening with ``labels[i]``, when ``||1 - A T||`` reaches 1 (before
    solving for ``h``) or a bound exceeds :data:`SOLVE_RESIDUAL_TOL`.  Each system's solution and
    bound are bitwise those of its solve alone.
    """
    (E, e_cols, b_e), (F, f_cols, b_o) = even, odd
    k, m = b_e.shape[:2]
    X, residual = np.empty((k, m + len(f_cols), 2)), np.empty((k, 2))
    x_e, x_o = X[:, :m], X[:, m:]

    def settle(e_jumps, f_jumps, at, back=True):
        """``||b - A x||`` by column of ``X[at]``, after ``x_o = b_o + F x_e`` if ``back``."""
        flips = f_jumps(x_e[at])
        if back:
            x_o[at] = b_o[at] + flips
        return np.maximum(np.abs(b_e[at] - x_e[at] + e_jumps(x_o[at])).max(axis=-2, initial=0.0),
                          np.abs(b_o[at] - x_o[at] + flips).max(axis=-2))

    if X.shape[1] <= _DENSE_MAX_ROWS:
        method, step, steps = "dense", max(1, _DENSE_CHUNK_ENTRIES // max(m, 1)**2), [[1]] * k
        for c in (slice(lo, lo + step) for lo in range(0, k, step)):
            E_c, F_c = partial(_jumps, E[c], e_cols), partial(_jumps, F[c], f_cols)
            x_e[c] = np.linalg.solve(_schur(E[c], F[c], e_cols, f_cols), b_e[c] + E_c(b_o[c]))
            residual[c] = settle(E_c, F_c, c)
    else:
        method, steps = "iterative", [[] for _ in range(k)]  # one entry per iteration

        def csr(data, cols, width):  # the rows as they are, w entries each
            indptr = np.arange(0, data.size + 1, data.shape[1], dtype=np.int32)
            return csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(len(cols), width)).dot

        halves = [(csr(E[i], e_cols, len(f_cols)), csr(F[i], f_cols, m)) for i in range(k)]

        def solve(i, j, **target):  # one pass on S for column j of system i; the residual after
            E_i, F_i = halves[i]
            S = LinearOperator((m, m), lambda v: v - E_i(F_i(v)), dtype=float)
            x_e[i, :, j] = bicgstab(S, b_e[i, :, j] + E_i(b_o[i, :, j]), maxiter=5_000, rtol=0.0,
                                    callback=lambda _: steps[i].append(None), **target)[0]
            return settle(E_i, F_i, np.s_[i, :, j:j + 1])[0]

        residual[:, 1] = [solve(i, 1, atol=0.01) for i in range(k)]
    drift, tau, bound = _certificate(np.abs(X[:, :, 1]).max(axis=1), residual[:, 1], terms)
    unbounded = ~(drift < 1.0)
    if unbounded.any():
        i = int(unbounded.argmax())
        raise NumericalFailure(f"{labels[i]}absorption-time residual "
                               f"{drift[i]:.3e} leaves the error unbounded")
    if method == "iterative":
        for i in range(k):
            X[i, :, 0] = guess(i)  # held in X's row, so a pass from it takes no more memory
            residual[i, 0] = settle(*halves[i], np.s_[i, :, :1], back=False)[0]
            if residual[i, 0] > tau[i]:  # no pass if the guess meets tau
                residual[i, 0] = solve(i, 0, x0=x_e[i, :, 0], atol=tau[i])
    bound = bound(residual[:, 0])
    failed = ~(bound <= SOLVE_RESIDUAL_TOL)
    if failed.any():
        i = int(failed.argmax())
        raise NumericalFailure(f"{labels[i]}certified error bound {bound[i]:.3e} "
                               f"above {SOLVE_RESIDUAL_TOL:g}")
    return X, [SolverInfo(method, len(count), b) for count, b in zip(steps, bound.tolist())]


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
        *halves, order = _jump_system(W[todo], mu[todo], r[todo], named)
        # h starts at the Moran value by level; the levels are built per model, not held
        X, solved = _certified_solve(*halves, terms=n + 2, labels=named, guess=lambda i:
                                     _moran_by_level(n, float(r[todo[i]]))[_mask_levels(n)[order]])
        h[np.ix_(todo, order - 1)], solved = X[:, :, 0], iter(solved)
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
