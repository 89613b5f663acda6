"""One-step law of the spatial Moran process on a weighted digraph.

Each update selects a parent vertex ``v`` (fitness-biased by the selection
policy) and copies its type onto a ``W(v, .)``-random neighbour ``v'``.
Copying onto a vertex that already carries the same type, including ``v``
itself, is an idle step.  The all-mutant and all-wildtype configurations are
absorbing.

For a configuration ``x``, policy ``mu`` and fitness ``r``, with
``zeta = x @ mu`` and ``W_mu = diag(mu) @ W``, the level transition
probabilities are::

    p_plus(x)  = r / (1 + (r - 1) zeta) * (x W_mu 1^T - x W_mu x^T)
    p_minus(x) = 1 / (1 + (r - 1) zeta) * ((1 - x) W_mu x^T)

Under stationary selection (``mu = pi`` with ``pi W = pi``) their ratio is
the constant ``p_minus / p_plus = 1 / r`` on every transient configuration.

:func:`flip_masses` gives the per-vertex flip masses for a batch of
configurations; the step law, the kernel, the exact solver, the Monte Carlo
tables, and ``p_plus``/``p_minus`` with the diagnostics built on them (its
row sums over the wildtype and the mutant vertices) all take them from it.
They are subset sums: with ``S(y)`` the rows of ``[W_mu | mu]`` over the set bits
of ``y``, always added in ascending vertex order, and ``D = 1 + (r - 1) S(x)[n]``,
a wildtype ``u`` flips with ``r S(x)[u] / D`` and a mutant ``u`` with ``S(full ^ x)[u] / D``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import NotStochastic, TooLarge
from .graph import (
    STOCHASTIC_TOL,
    Configuration,
    SelectionPolicy,
    WeightMatrix,
    mask_bits,
    stationary_distribution,
)

#: Largest vertex count for the exact engines (transition kernel and fixation
#: solver), which enumerate all ``2^n`` configurations.
MAX_EXACT_VERTICES = 20
#: Masks per block of :func:`flip_masses`, bounding its temporaries to fit in cache.
_MASK_BLOCK = 1 << 11
#: Most rows of the subset-sum table of :func:`flip_masses`: 2.7 MB at ``n = 20``.
_TABLE_ROWS = 1 << 14


@dataclass(frozen=True, eq=False)
class MicSMPModel:
    """A spatial Moran process: weights ``W``, selection policy ``mu``, fitness ``r``."""

    W: WeightMatrix
    mu: SelectionPolicy
    r: float

    def __post_init__(self):
        _require_fitness(np.array([self.r]))
        if self.mu.n != self.W.n:
            raise NotStochastic(
                f"policy length {self.mu.n} does not match vertex count {self.W.n}"
            )

    @property
    def n(self) -> int:
        return self.W.n

    def stationarity_gap(self) -> float:
        """``max|mu @ W - mu|``; zero iff the policy is stationary for ``W``."""
        return float(np.max(np.abs(self.mu.mu @ self.W.entries - self.mu.mu)))

    def is_stationary(self, tol: float = STOCHASTIC_TOL) -> bool:
        return self.stationarity_gap() <= tol


def build_model(W: WeightMatrix, mu="stationary", r: float = 1.0) -> MicSMPModel:
    """Assemble a model, resolving the policy specification.

    ``mu`` may be a :class:`SelectionPolicy`, a vector, the string
    ``"stationary"`` (use the stationary distribution of ``W``) or
    ``"uniform"``.
    """
    if isinstance(mu, str):
        if mu == "stationary":
            mu = SelectionPolicy(stationary_distribution(W).pi)
        elif mu == "uniform":
            mu = SelectionPolicy(np.full(W.n, 1.0 / W.n))
        else:
            raise NotStochastic(f"unknown policy specification {mu!r}")
    elif not isinstance(mu, SelectionPolicy):
        mu = SelectionPolicy(np.asarray(mu, dtype=float))
    return MicSMPModel(W=W, mu=mu, r=float(r))


@dataclass(frozen=True, eq=False)
class StepDistribution:
    """One-step law out of a configuration: changing moves plus an idle mass."""

    source: Configuration
    transitions: tuple  # ((Configuration, probability), ...) sorted by target mask
    idle_probability: float

    def total(self) -> float:
        return self.idle_probability + sum(p for _, p in self.transitions)


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Row-stochastic kernel over all ``2^n`` configurations, indexed by bitmask.

    ``P`` is a CSR matrix with sorted column indices and no stored zeros.
    Rows 0 and ``2^n - 1`` are exact unit self-loops.
    """

    n: int
    P: csr_matrix

    @property
    def size(self) -> int:
        return 1 << self.n

    def row(self, mask: int) -> np.ndarray:
        return self.P[[mask]].toarray().ravel()

    def entries(self):
        """Yield ``(from_mask, to_mask, probability)`` for every nonzero entry, in order."""
        coo = self.P.tocoo()
        yield from zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())


def p_plus(x: Configuration, model: MicSMPModel) -> float:
    """Probability that one update increases the mutant count by one."""
    return float(_level_rates(*_as_stack(model), [_mask_of(x, model)])[1][0, 0])


def p_minus(x: Configuration, model: MicSMPModel) -> float:
    """Probability that one update decreases the mutant count by one."""
    return float(_level_rates(*_as_stack(model), [_mask_of(x, model)])[2][0, 0])


def _mask_of(x: Configuration, model: MicSMPModel) -> int:
    if x.n != model.n:
        raise NotStochastic("configuration and model dimensions differ")
    return x.bits


def flip_masses(model: MicSMPModel, masks) -> np.ndarray:
    """One-step mass of flipping each vertex, out of each configuration in ``masks``.

    Returns an array of shape ``(len(masks), n)``: entry ``[k, u]`` is the
    probability that one update copies onto vertex ``u + 1`` the type it does
    not carry in ``masks[k]``, moving the chain to ``masks[k] ^ (1 << u)``.
    The rest of each row's unit mass is idle.  Masks may be of any width.

    Each subset sum ``S`` (module docstring) is ``0.0`` plus its rows in vertex order, the
    low ones from a table filled by doubling, ``T[2^v : 2^(v+1)] = T[:2^v] + row_v`` (no
    BLAS): a row is bitwise the same in any batch and stack of :func:`_flip_masses`.
    """
    return _flip_masses(*_as_stack(model), masks)[0]


def _as_stack(model: MicSMPModel):
    """``(W, mu, r)`` of ``model`` as a stack of one, the arguments of :func:`_flip_masses`."""
    return model.W.entries[None], model.mu.mu[None], np.array([model.r])


def _flip_masses(W: np.ndarray, mu: np.ndarray, r: np.ndarray, masks) -> np.ndarray:
    """:func:`flip_masses` of ``k`` models with the same ``n`` at once: weights ``W`` of
    shape ``(k, n, n)``, policies ``mu`` ``(k, n)`` and fitnesses ``r`` ``(k,)`` give
    an array of shape ``(k, len(masks), n)``."""
    k, n = mu.shape
    bits = mask_bits(masks, n)
    out = np.empty((k,) + bits.shape)
    r = r[:, None, None]
    step = max(1, _MASK_BLOCK // k)
    rows = np.concatenate((mu[:, :, None] * W, mu[:, :, None]), axis=2)  # [W_mu | mu]
    # table[:, y] = S(y) over the low b bits, by doubling: each row is added last
    b = min(n, len(bits).bit_length(), max(1, _TABLE_ROWS // k).bit_length() - 1)
    table = np.zeros((k, 1 << b, n + 1))
    for v in range(b):
        np.add(table[:, :1 << v], rows[:, v, None], out=table[:, 1 << v:2 << v])
    for lo in range(0, len(bits), step):
        x = bits[lo:lo + step]
        sides = np.stack((x, ~x))  # the mutants of each mask, then its wildtypes
        low = x[:, :b] @ (1 << np.arange(b))
        S = table.take(np.stack((low, (1 << b) - 1 - low)), axis=1)
        for v in range(b, n):
            np.add(S, rows[:, v, None, None], out=S, where=sides[:, :, v, None])
        flips = np.where(x, S[:, 1, :, :n], r * S[:, 0, :, :n])
        out[:, lo:lo + len(x)] = flips / (1.0 + (r - 1.0) * S[:, 0, :, n:])
    return out


def _level_rates(W: np.ndarray, mu: np.ndarray, r: np.ndarray, masks):
    """Level of each configuration in ``masks``, then ``(k, len(masks))`` ``p_plus`` and ``p_minus``
    of the models of :func:`_flip_masses`: flip mass sums over the wildtype and the mutants."""
    bits = mask_bits(masks, mu.shape[1])
    flips = _flip_masses(W, mu, r, masks)
    return (bits.sum(axis=1), _flip_totals(np.where(bits, 0.0, flips)),
            _flip_totals(np.where(bits, flips, 0.0)))


def _flip_totals(flips: np.ndarray) -> np.ndarray:
    """Row sums of :func:`flip_masses`, in vertex order: the mass of leaving each configuration."""
    total = flips[..., 0].copy()
    for u in range(1, flips.shape[-1]):
        total += flips[..., u]
    return total


def _require_fitness(r: np.ndarray) -> None:
    bad = ~((r > 0.0) & np.isfinite(r))
    if bad.any():
        raise NotStochastic(f"fitness must be positive and finite, got {r[bad.argmax()]}")


def _require_exact_size(n: int) -> None:
    if n > MAX_EXACT_VERTICES:
        raise TooLarge(f"exact computations over all 2^n configurations are limited "
                       f"to n <= {MAX_EXACT_VERTICES}, got {n}")


def step_distribution(x: Configuration, model: MicSMPModel) -> StepDistribution:
    """The one-step law out of ``x``: every single-vertex flip of positive mass."""
    flips = flip_masses(model, [_mask_of(x, model)])
    moves = [(Configuration(x.bits ^ (1 << u), x.n), float(p))
             for u, p in enumerate(flips[0].tolist()) if p > 0.0]
    moves.sort(key=lambda pair: pair[0].bits)
    return StepDistribution(source=x, transitions=tuple(moves),
                            idle_probability=max(1.0 - float(_flip_totals(flips)[0]), 0.0))


def transition_kernel(model: MicSMPModel) -> TransitionKernel:
    """Assemble the full ``2^n x 2^n`` transition kernel from :func:`flip_masses`.

    Rows come from the same per-configuration masses as
    :func:`step_distribution`, so kernel rows and step laws agree bitwise.
    Raises :class:`TooLarge` above :data:`MAX_EXACT_VERTICES`.
    """
    n = model.n
    _require_exact_size(n)
    size = 1 << n
    masks = np.arange(size)
    flips = flip_masses(model, masks)
    # n flips then the idle mass on the diagonal, per row; absorbing rows have
    # no flip mass, so their idle mass is exactly 1
    values = np.column_stack((flips, np.maximum(1.0 - _flip_totals(flips), 0.0)))
    cols = (masks[:, None] ^ np.append(1 << np.arange(n), 0)).astype(np.int32)
    indptr = np.arange(0, values.size + 1, n + 1, dtype=np.int32)
    P = csr_matrix((values.ravel(), cols.ravel(), indptr), shape=(size, size))
    P.sort_indices()
    P.eliminate_zeros()
    return TransitionKernel(n=n, P=P)
