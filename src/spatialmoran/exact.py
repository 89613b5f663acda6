"""Exact fixation probabilities via the absorbing jump chain.

Idle steps do not change which absorbing state is hit, so the transient
fixation probabilities solve ``A h = b`` with ``A = I - J``,
``J[x, x ^ (1 << u)] = f_xu / d_x``, ``f`` the flip masses of
:func:`~spatialmoran.dynamics.flip_masses` and ``d_x = sum_u f_xu``.
:func:`_certified_solve` serves every ``n <= 20``, the one size bound: dense
LU up to ``n = 10`` (``solver.method == "dense"``) and restarted GMRES (Saad &
Schultz 1986) above (``"iterative"``).  It also solves ``A T = 1``, the
expected number of jumps to absorption (Kemeny & Snell, *Finite Markov
Chains*), whose maximum certifies the max-norm error of ``h``.

The reference values are the classic well-mixed fixation probabilities
``rho_i = i/n`` for neutral fitness and ``(1 - r^-i) / (1 - r^-n)`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import gmres

from .dynamics import MicSMPModel, _flip_totals, _require_exact_size, flip_masses
from .errors import AtomOnAbsorbing, DegenerateCase, NotStochastic, NumericalFailure, TooLarge
from .graph import STOCHASTIC_TOL, Configuration, level_masks, mask_bits

#: Largest certified max-norm error of the returned fixation probabilities.
SOLVE_RESIDUAL_TOL = 1e-10
#: Most rows solved by dense LU, the transient masks of ``n = 10``; GMRES is faster above.
_DENSE_MAX_ROWS = 2**10 - 2
#: Most atoms :meth:`InitialDistribution.level_uniform` enumerates; every level
#: of an exact-size model fits, since ``C(20, 10) = 184,756``.
MAX_LEVEL_ATOMS = 10**6
_EPS = float(np.finfo(float).eps)
_NEUTRAL_TOL = 1e-12


def moran_rho(i: int, n: int, r: float) -> float:
    """Classic well-mixed fixation probability from ``i`` mutants among ``n``.

    Neutral fitness (``|r - 1| <= 1e-12``) gives ``i / n``; otherwise
    ``(1 - r^-i) / (1 - r^-n)``, evaluated through ``expm1``/``log1p`` so the
    near-neutral regime does not cancel catastrophically.
    """
    if not 0 <= i <= n:
        raise NotStochastic(f"mutant count {i} outside [0, {n}]")
    if i == 0:
        return 0.0
    if i == n:
        return 1.0
    if abs(r - 1.0) <= _NEUTRAL_TOL:
        return i / n
    log_r = math.log1p(r - 1.0)
    return math.expm1(-i * log_r) / math.expm1(-n * log_r)


@dataclass(frozen=True)
class InitialDistribution:
    """Probability atoms over transient configurations, ``((mask, weight), ...)``."""

    n: int
    atoms: tuple

    def __post_init__(self):
        full = (1 << self.n) - 1
        cleaned = []
        total = 0.0
        for mask, weight in self.atoms:
            mask = mask.bits if isinstance(mask, Configuration) else int(mask)
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
        if abs(total - 1.0) > STOCHASTIC_TOL:
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
    """``"dense"`` (LU) or ``"iterative"`` (GMRES), GMRES steps (1 for LU), certified error bound."""

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


def _jump_system(model: MicSMPModel, n: int):
    """Off-diagonal entries ``(rows, cols, jump)`` of ``J`` and the right-hand sides ``[b, 1]``."""
    full = (1 << n) - 1
    masks = np.arange(1, full)
    flips = flip_masses(model, masks)
    leave = _flip_totals(flips)
    if leave.min() <= 0.0:
        raise DegenerateCase(f"configuration {int(masks[leave.argmin()]):#b} can never change")
    jump = flips / leave[:, None]
    targets = masks[:, None] ^ (1 << np.arange(n))
    rhs = np.ones((len(masks), 2))
    rhs[:, 0] = np.where(targets == full, jump, 0.0).sum(axis=1)
    rows, flipped = np.nonzero((targets != 0) & (targets != full))
    return rows, targets[rows, flipped] - 1, jump[rows, flipped], rhs


def _certified_solve(rows, cols, jump, rhs, terms: int):
    """Solve ``(I - J) X = rhs`` for ``rhs = [b, 1]``, with ``J[rows, cols] = jump``.

    Dense LU up to :data:`_DENSE_MAX_ROWS` rows, restarted GMRES on a CSR
    matrix above.  ``X = [h, T]`` and the :class:`SolverInfo` carry the bound
    ``max T / (1 - ||1 - A T||) * ||b - A h||`` on ``||h - A^-1 b||`` in
    max-norms, for ``A = I - J``.  It holds for any nonsingular M-matrix, since
    ``A^-1 >= 0`` and ``A^-1 1 = T + A^-1 (1 - A T)``; swapping ``rows`` and
    ``cols`` solves with ``A^T``.  The slack covers rounding in ``A``, ``rhs``
    and the residuals, whose rows sum at most ``terms`` terms, each at most 1
    per unit of the solution.  Raises :class:`NumericalFailure` when the bound
    exceeds :data:`SOLVE_RESIDUAL_TOL`.
    """
    m = len(rhs)
    if m <= _DENSE_MAX_ROWS:
        A = np.eye(m)
        A[rows, cols] -= jump
        X, method, iterations = np.linalg.solve(A, rhs), "dense", 1
    else:
        A = identity(m, format="csr") - csr_matrix((jump, (rows, cols)), shape=(m, m))
        steps = []
        solve = partial(gmres, A, restart=50, maxiter=200, callback=steps.append,
                        callback_type="pr_norm")
        h = solve(rhs[:, 0], atol=1e-13, rtol=0.0)[0]
        T = solve(rhs[:, 1], atol=0.0, rtol=1e-8)[0]  # T only has to bound ||A^-1||
        X, method, iterations = np.column_stack((h, T)), "iterative", len(steps)
    residual = np.abs(rhs - A @ X).max(axis=0)
    slack = 4 * terms * _EPS
    t_max = float(np.abs(X[:, 1]).max())
    drift = float(residual[1]) + slack * (1.0 + t_max)
    if not drift < 1.0:
        raise NumericalFailure(f"absorption-time residual {drift:.3e} leaves the error unbounded")
    bound = t_max / (1.0 - drift) * (float(residual[0]) + slack)
    if not bound <= SOLVE_RESIDUAL_TOL:
        raise NumericalFailure(f"certified error bound {bound:.3e} above {SOLVE_RESIDUAL_TOL:g}")
    return X, SolverInfo(method, iterations, bound)


def fixation_probabilities(model: MicSMPModel,
                           alpha: InitialDistribution | None = None) -> FixationReport:
    """Solve the absorbing chain for every configuration's fixation probability.

    Dense LU up to ``n = 10``, GMRES above; both certified (:func:`_certified_solve`).
    When ``alpha`` is given, the report carries ``rho_alpha = sum alpha(x) rho_x``.

    Raises :class:`TooLarge` above ``n = 20``, :class:`DegenerateCase` when
    some transient configuration can never change, and
    :class:`NumericalFailure` when the certified error bound exceeds 1e-10.
    """
    n = model.n
    _require_exact_size(n)
    if alpha is not None and alpha.n != n:
        raise NotStochastic("initial distribution dimension mismatch")
    X, solver = _certified_solve(*_jump_system(model, n), terms=n + 2)
    h = X[:, 0]
    if h.min() < -solver.residual or h.max() > 1.0 + solver.residual:
        raise NumericalFailure("fixation probabilities escape [0, 1]")

    rho = np.concatenate(([0.0], h.clip(0.0, 1.0), [1.0]))
    levels = mask_bits(np.arange(1 << n), n).sum(axis=1)
    reference = np.array([moran_rho(j, n, model.r) for j in range(n + 1)])
    deviation = np.zeros(n + 1)
    np.maximum.at(deviation, levels, np.abs(rho - reference[levels]))

    rho_alpha = None
    if alpha is not None:
        rho_alpha = float(sum(w * rho[mask] for mask, w in alpha.atoms))

    return FixationReport(n=n, r=model.r, rho=rho, per_level_deviation=deviation,
                          solver=solver, rho_alpha=rho_alpha)


def fixation_for_initial(model: MicSMPModel, alpha: InitialDistribution) -> float:
    """Fixation probability when the start is drawn from ``alpha``."""
    return fixation_probabilities(model, alpha=alpha).rho_alpha
