"""Structural diagnostics and small-population closed forms.

Covers the martingale drift identities under stationary selection, constancy
of the decrease/increase ratio, lumpability of the mutant-count projection,
the two-vertex fixation surface with its stationary and non-stationary
solution branches, and the three-vertex counterexample family whose neutral
fixation probability admits a rational closed form.

The diagnostics take only the model.  Those over every transient
configuration read one batch of ``p_plus``/``p_minus``, kept for the last
model diagnosed, so consecutive diagnostics of one model share one batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (MicSMPModel, _as_stack, _level_rates, _require_exact_size,
                       _require_fitness, build_model)
from .errors import DegenerateCase, DegenerateDenominator, OutOfRange, ZeroDenominator
from .exact import InitialDistribution, moran_rho
from .graph import (SelectionPolicy, WeightMatrix, complete_graph_weights,
                    two_vertex_weights, validate_weight_matrix)

#: Threshold for structural equality checks (exact float identities).
STRUCTURAL_TOL = 1e-12
#: Threshold for solver-mediated comparisons.
SOLVER_TOL = 1e-10

#: Three-vertex weight matrix whose stationary distribution is (2/7, 2/7, 3/7):
#: non-isothermal, yet single-mutant fixation can still match the well-mixed value.
GALANIS_WEIGHTS = ((0.0, 0.25, 0.75), (0.25, 0.0, 0.75), (0.5, 0.5, 0.0))


@functools.lru_cache(maxsize=1)
def _transient_rates(model: MicSMPModel):
    """Read-only level, ``p_plus`` and ``p_minus`` of every transient mask, in one batch;
    index ``i`` holds mask ``i + 1``.  Models are immutable, so the memo cannot go stale."""
    _require_exact_size(model.n)
    levels, pp, pm = _level_rates(*_as_stack(model), np.arange(1, (1 << model.n) - 1))
    rates = levels, pp[0], pm[0]
    for array in rates:
        array.setflags(write=False)
    return rates


def _ratio_deviation(pp: np.ndarray, pm: np.ndarray, r) -> np.ndarray:
    """``|p_minus / p_plus - 1/r|`` per configuration, ``inf`` where ``p_plus == 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pp > 0.0, np.abs(pm / pp - 1.0 / r), np.inf)


def _drifts(pp: np.ndarray, pm: np.ndarray, r):
    """:class:`MartingaleReport`'s ``drift`` and ``exp_drift`` per configuration."""
    return pp - pm, r * pm + (1.0 - pp - pm) + pp / r - 1.0


@dataclass(frozen=True, eq=False)
class MartingaleReport:
    """Drift diagnostics per configuration, as arrays of length ``2^n`` indexed by mask.

    ``drift[mask] = p_plus - p_minus`` vanishes for stationary selection at
    neutral fitness; ``exp_drift[mask] = r p_minus + (1 - p_plus - p_minus)
    + p_plus / r - 1`` vanishes for stationary selection at every fitness.
    Both are 0 at the absorbing masks 0 and ``2^n - 1``, which never move.
    """

    drift: np.ndarray
    exp_drift: np.ndarray
    max_abs_drift: float
    max_abs_exp_drift: float


def martingale_report(model: MicSMPModel) -> MartingaleReport:
    """Evaluate both drift identities on every transient configuration.

    Raises :class:`TooLarge` above ``n = 20``, as do :func:`ratio_constancy`
    and :func:`macro_markov_check`.
    """
    pp, pm = (np.pad(rate, 1) for rate in _transient_rates(model)[1:])  # 0 at masks 0, 2^n - 1
    drift, exp_drift = _drifts(pp, pm, model.r)
    return MartingaleReport(drift, exp_drift, float(np.abs(drift).max()),
                            float(np.abs(exp_drift).max()))


def ratio_constancy(model: MicSMPModel) -> float:
    """Worst-case ``|p_minus / p_plus - 1/r|`` over transient configurations.

    Zero (to rounding) exactly when the selection policy is stationary for
    the weight matrix.  Configurations with ``p_plus == 0`` (possible only
    for policies with zero entries) contribute ``inf``.
    """
    _, pp, pm = _transient_rates(model)
    return float(_ratio_deviation(pp, pm, model.r).max())


def single_mutant_ratio_witness(model: MicSMPModel) -> tuple[int, float]:
    """Single-mutant configuration with the largest ratio deviation.

    Returns ``(mask, deviation)``; a strictly positive deviation witnesses a
    non-stationary policy, since for ``x = e_v`` the deviation numerator is
    ``mu_v - (mu W)_v``.  Of equal deviations, the lowest mask is returned.
    """
    masks = [1 << v for v in range(model.n)]
    _, (pp,), (pm,) = _level_rates(*_as_stack(model), masks)
    deviation = _ratio_deviation(pp, pm, model.r)
    best = int(deviation.argmax())
    return masks[best], float(deviation[best])


@dataclass(frozen=True)
class MacroMarkovResult:
    """Whether the mutant-count projection is a Markov birth-death chain.

    ``lumpable`` requires ``p_plus`` and ``p_minus`` to be constant on every
    level; otherwise ``witness = (level, mask_a, mask_b)`` names two
    configurations of equal level with different transition probabilities.
    """

    lumpable: bool
    witness: tuple | None


def macro_markov_check(model: MicSMPModel) -> MacroMarkovResult:
    """Check per-level constancy of ``p_plus`` and ``p_minus``, to :data:`STRUCTURAL_TOL`."""
    levels, pp, pm = _transient_rates(model)
    # the lowest mask of level j, 2^j - 1, sits at index 2^j - 2
    ref = (1 << levels) - 2
    differs = (np.abs(pp - pp[ref]) > STRUCTURAL_TOL) | (np.abs(pm - pm[ref]) > STRUCTURAL_TOL)
    if not differs.any():
        return MacroMarkovResult(True, None)
    level = int(levels[differs].min())
    mask = int(np.flatnonzero(differs & (levels == level))[0]) + 1
    return MacroMarkovResult(False, (level, (1 << level) - 1, mask))


# ---------------------------------------------------------------------------
# Two-vertex population: closed-form fixation surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class N2Params:
    """Parameters of the two-vertex model.

    ``a``
        Initial weight on the mutant-at-vertex-2 state (mask ``0b10``); the
        complementary weight ``1 - a`` sits on mask ``0b01``.
    ``m``
        Selection weight on vertex 1, so the policy is ``(m, 1 - m)``.
    ``c``
        Cross-weight ratio ``w1 / w2`` of the two-vertex graph.
    ``r``
        Mutant fitness.
    """

    a: float
    m: float
    c: float
    r: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise OutOfRange(f"initial weight a={self.a} outside [0, 1]")
        if not 0.0 <= self.m <= 1.0:
            raise OutOfRange(f"selection weight m={self.m} outside [0, 1]")
        _require_positive(self.c, self.r)

    def initial_distribution(self) -> InitialDistribution:
        atoms = []
        if self.a > 0.0:
            atoms.append((0b10, self.a))
        if self.a < 1.0:
            atoms.append((0b01, 1.0 - self.a))
        return InitialDistribution(n=2, atoms=tuple(atoms))

    def model(self) -> MicSMPModel:
        """Concrete two-vertex model realising the ratio ``c = w1 / w2``."""
        return build_model(_n2_weights(self.c), mu=np.array([self.m, 1.0 - self.m]), r=self.r)


def _n2_weights(c: float) -> WeightMatrix:
    """Two-vertex weights with cross-weight ratio ``c = w1 / w2``, the larger weight 1."""
    w1 = min(1.0, c)
    return two_vertex_weights(w1, w1 / c)


def _require_positive(c: float, r: float) -> None:
    if not (0.0 < c < math.inf and 0.0 < r < math.inf):
        raise OutOfRange(f"c and r must be positive and finite, got c={c}, r={r}")


def _n2_surface(a, m, c, r):
    """Two-vertex fixation ``r a (1-m) / d1 + r m (1-a) / d2``, elementwise, with its
    denominators ``d1 = m c + r (1-m)`` and ``d2 = (1-m)/c + r m``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = m * c + r * (1.0 - m)
        d2 = (1.0 - m) / c + r * m
        return r * a * (1.0 - m) / d1 + r * m * (1.0 - a) / d2, d1, d2


def n2_fixation_closed_form(p: N2Params) -> float:
    """Fixation probability of the two-vertex model, in closed form.

    ``r a (1-m) / (m c + r (1-m)) + r m (1-a) / ((1-m)/c + r m)``.
    """
    value, d1, d2 = _n2_surface(*np.float64([p.a, p.m, p.c, p.r]))
    if not (d1 > 0.0 and d2 > 0.0 and np.isfinite(d1) and np.isfinite(d2)):
        raise DegenerateDenominator(f"denominators {d1}, {d2} at m={p.m}, c={p.c}, r={p.r}")
    return float(value)


def n2_F(p: N2Params) -> float:
    """Fixation probability normalised by the single-mutant well-mixed value."""
    return n2_fixation_closed_form(p) / moran_rho(1, 2, p.r)


def n2_moran_selection(a: float, c: float, r: float) -> float:
    """Selection weight ``m`` making the two-vertex fixation match the
    well-mixed value at initial weight ``a``.

    ``m = (a (r+1) - r) / (a (r+1) (1-c) + c - r)`` for ``a`` inside the
    bracket ``[min(1, r), max(1, r)] / (r + 1)``.  At the neutral point
    ``a = 1/2, r = 1`` every ``m`` works and 0 is returned.

    Raises
    ------
    DegenerateCase
        If ``c == r == 1`` (the surface is flat only on the stationary line).
    OutOfRange
        If ``a`` is outside the bracket, or the resulting ``m`` escapes
        ``[0, 1]``.
    ZeroDenominator
        If the denominator vanishes away from the neutral point.
    """
    tol = STRUCTURAL_TOL
    if abs(c - 1.0) <= tol and abs(r - 1.0) <= tol:
        raise DegenerateCase("c and r simultaneously one")
    lo = min(1.0, r) / (r + 1.0)
    hi = max(1.0, r) / (r + 1.0)
    if not lo - tol <= a <= hi + tol:
        raise OutOfRange(f"a={a} outside the admissible bracket [{lo}, {hi}]")
    numerator = a * (r + 1.0) - r
    denominator = a * (r + 1.0) * (1.0 - c) + c - r
    if abs(denominator) <= 1e-14:
        if abs(numerator) <= 1e-14:
            return 0.0  # a = r/(r+1) with r = 1: every m matches
        raise ZeroDenominator(f"denominator vanishes at a={a}, c={c}, r={r}")
    m = numerator / denominator
    if not -tol <= m <= 1.0 + tol:
        raise OutOfRange(f"solved m={m} escapes [0, 1] at a={a}, c={c}, r={r}")
    return min(max(m, 0.0), 1.0)


def sweep_n2(c: float, r: float, grid: int) -> np.ndarray:
    """Normalised fixation surface on a uniform ``grid x grid`` lattice.

    Row index runs over the initial weight ``a``, column index over the
    selection weight ``m``, both on ``linspace(0, 1, grid)``.  Cells with a
    non-positive denominator are NaN.
    """
    if grid < 2:
        raise OutOfRange(f"grid must be at least 2, got {grid}")
    _require_positive(c, r)
    axis = np.linspace(0.0, 1.0, grid)
    value, d1, d2 = _n2_surface(axis[:, None], axis[None, :], c, r)
    return np.where((d1 > 0.0) & (d2 > 0.0), value, np.nan) / moran_rho(1, 2, r)


# ---------------------------------------------------------------------------
# Three-vertex counterexample family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalanisParams:
    """Neutral-fitness parameters for the three-vertex counterexample.

    The initial weights follow the closed form's state order: ``a1`` is the
    weight on the single-mutant state at vertex 2 (mask ``0b010``), ``a2``
    on vertex 3 (mask ``0b100``), and ``1 - a1 - a2`` on vertex 1 (mask
    ``0b001``).  ``m1``/``m2`` are the selection weights on vertices 1 and
    2, with ``1 - m1 - m2`` on vertex 3.
    """

    a1: float
    a2: float
    m1: float
    m2: float

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not (self.a1 >= 0.0 and self.a2 >= 0.0 and self.a1 + self.a2 <= 1.0 + STRUCTURAL_TOL):
            raise OutOfRange(f"initial weights ({self.a1}, {self.a2}) not a sub-simplex point")
        if not (self.m1 >= 0.0 and self.m2 >= 0.0 and self.m1 + self.m2 <= 1.0 + STRUCTURAL_TOL):
            raise OutOfRange(f"selection weights ({self.m1}, {self.m2}) not a sub-simplex point")

    def initial_distribution(self) -> InitialDistribution:
        weights = {0b010: self.a1, 0b100: self.a2, 0b001: 1.0 - self.a1 - self.a2}
        atoms = tuple((mask, w) for mask, w in weights.items() if w > 0.0)
        return InitialDistribution(n=3, atoms=atoms)

    def policy(self) -> SelectionPolicy:
        return SelectionPolicy(np.array([self.m1, self.m2, 1.0 - self.m1 - self.m2]))


def galanis_model(r: float, mu="stationary") -> MicSMPModel:
    """Three-vertex counterexample model; the policy defaults to stationary."""
    return build_model(validate_weight_matrix(GALANIS_WEIGHTS), mu=mu, r=r)


def galanis_neutral_fixation(g: GalanisParams) -> float:
    """Closed-form neutral fixation probability of the counterexample model.

    ``(2 a2 + 3 m1 - 3 a1 m1 + 3 a1 m2 - 5 a2 m1 - 2 a2 m2) / (m1 + m2 + 2)``;
    the denominator is at least 2.
    """
    numerator = (2.0 * g.a2 + 3.0 * g.m1 - 3.0 * g.a1 * g.m1 + 3.0 * g.a1 * g.m2
                 - 5.0 * g.a2 * g.m1 - 2.0 * g.a2 * g.m2)
    return numerator / (g.m1 + g.m2 + 2.0)


def galanis_case3_residual(g: GalanisParams) -> float:
    """Residual of the implicit neutral-fixation condition, defined for ``m1 != m2``.

    ``-a1 + a2 (2 - 5 m1 - 2 m2) / (3 (m1 - m2)) + (8 m1 - m2 - 2) / (9 (m1 - m2))``.
    """
    return galanis_case3_initial_weight(g.a2, g.m1, g.m2) - g.a1


def galanis_case3_initial_weight(a2: float, m1: float, m2: float) -> float:
    """Solve the implicit condition for ``a1`` given ``(a2, m1, m2)``, ``m1 != m2``."""
    gap = m1 - m2
    if gap == 0.0:
        raise ZeroDenominator("implicit condition undefined at m1 == m2")
    return a2 * (2.0 - 5.0 * m1 - 2.0 * m2) / (3.0 * gap) + (8.0 * m1 - m2 - 2.0) / (9.0 * gap)


def galanis_moran_condition(g: GalanisParams) -> tuple[str | None, float]:
    """Classify whether the parameters force the well-mixed value 1/3, to :data:`SOLVER_TOL`.

    Returns ``(case, residual)`` with ``case`` one of ``"case1"`` (uniform
    initial weights, any policy), ``"case2"`` (``m1 = 2/7`` with
    ``a2 = (9 a1 - 1) / 6``), ``"case3"`` (the implicit condition holds with
    ``m1 != m2``), or ``None``.  The reported residual is the implicit
    condition's when defined, else the distance of the closed form from 1/3.
    """
    tol = SOLVER_TOL
    separated = abs(g.m1 - g.m2) > 1e-9
    residual = (galanis_case3_residual(g) if separated
                else galanis_neutral_fixation(g) - 1.0 / 3.0)
    if abs(g.a1 - 1.0 / 3.0) <= tol and abs(g.a2 - 1.0 / 3.0) <= tol:
        return "case1", residual
    if (abs(g.m1 - 2.0 / 7.0) <= tol and abs(g.a1 - 1.0 / 3.0) > tol
            and abs(g.a2 - (9.0 * g.a1 - 1.0) / 6.0) <= tol):
        return "case2", residual
    if separated and abs(residual) <= tol:
        return "case3", residual
    return None, residual


# ---------------------------------------------------------------------------
# Well-mixed reduction
# ---------------------------------------------------------------------------

def _classic_rate(lead: float, j: int, n: int, r: float) -> float:
    """``lead / (1 + (r-1) j/n) * j/n * (n-j)/n``, zero at the absorbing levels."""
    if not 0 < j < n:
        return 0.0
    frac = j / n
    return lead / (1.0 + (r - 1.0) * frac) * frac * (n - j) / n


def classic_p_plus(j: int, n: int, r: float) -> float:
    """Well-mixed probability of gaining a mutant from ``j`` of ``n``."""
    return _classic_rate(r, j, n, r)


def classic_p_minus(j: int, n: int, r: float) -> float:
    """Well-mixed probability of losing a mutant from ``j`` of ``n``."""
    return _classic_rate(1.0, j, n, r)


def classic_moran_check(n: int, r: float) -> float:
    """Largest deviation of the complete-graph model from the well-mixed law.

    Builds the complete graph with loops under uniform selection and compares
    ``p_plus``/``p_minus`` of every configuration against the classic
    ``j``-only formulas; the reduction is exact, so the result should sit at
    rounding level.
    """
    return float(_classic_deviations(n, np.array([r], dtype=float))[0])


def _classic_deviations(n: int, r: np.ndarray) -> np.ndarray:
    """:func:`classic_moran_check` at each fitness of ``r``, from one batch."""
    if not 2 <= n <= 12:
        raise OutOfRange(f"check supported for 2 <= n <= 12, got {n}")
    _require_fitness(r)
    W = np.broadcast_to(complete_graph_weights(n).entries, (len(r), n, n))
    levels, pp, pm = _level_rates(W, np.full(W.shape[:2], 1.0 / n), r, np.arange(1, (1 << n) - 1))
    expected = np.array([[[classic_p_plus(j, n, x), classic_p_minus(j, n, x)] for j in range(n)]
                         for x in r.tolist()])[:, levels]
    return np.abs(np.stack((pp, pm), axis=-1) - expected).max(axis=(1, 2))
