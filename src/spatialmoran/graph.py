"""Weighted population graphs, stationary policies, and mutant configurations.

The population structure is a strongly connected digraph on ``n`` vertices
encoded by a row-stochastic weight matrix ``W``: entry ``W[v, u]`` is the
probability that vertex ``v`` places its offspring on vertex ``u``.
Self-loops are allowed.  Occupation states are bitmasks: bit ``v`` set means
vertex ``v + 1`` carries a mutant, so the all-ones mask is full fixation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    LevelOutOfRange,
    NotStochastic,
    NotStronglyConnected,
    NumericalFailure,
    OutOfRange,
)

#: Tolerance for stochasticity and stationarity checks.
STOCHASTIC_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _integer(name: str, value) -> int:
    """``value`` as a plain int: Python and NumPy integers pass, else :class:`OutOfRange`."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise OutOfRange(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Validated row-stochastic weight matrix of a strongly connected digraph.

    Construct through :func:`validate_weight_matrix`; the entry array is
    frozen (read-only) afterwards.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.entries.shape[0]

    def column_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Strictly positive probability row vector ``pi`` with ``pi @ W == pi``."""

    pi: np.ndarray

    @property
    def n(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True, eq=False)
class SelectionPolicy:
    """Probability distribution over vertices used to pick the reproducing one."""

    mu: np.ndarray

    def __post_init__(self):
        mu = _frozen_array(self.mu)
        if mu.ndim != 1:
            raise NotStochastic("selection policy must be a vector")
        _require_policies(mu[None])
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def _require_policies(mu: np.ndarray) -> None:
    """:class:`SelectionPolicy`'s checks on every row of a ``(k, n)`` stack of policies."""
    if not np.isfinite(mu).all():
        raise NotStochastic("selection policy entries must be finite")
    sums = mu.sum(axis=1)
    bad = (mu < -STOCHASTIC_TOL).any(axis=1) | (np.abs(sums - 1.0) > STOCHASTIC_TOL)
    if bad.any():
        raise NotStochastic(
            f"selection policy must be a probability vector, got sum {float(sums[bad.argmax()])!r}"
        )


@dataclass(frozen=True)
class Configuration:
    """Occupation state of the graph as a bitmask of ``n`` vertices.

    Bit ``v`` corresponds to vertex ``v + 1``; a set bit marks a mutant.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise LevelOutOfRange(f"vertex count must be positive, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise LevelOutOfRange(
                f"mask {self.bits:#b} does not fit into {self.n} bits"
            )

    @property
    def level(self) -> int:
        """Number of mutants (popcount of the mask)."""
        return self.bits.bit_count()

    @property
    def is_absorbing(self) -> bool:
        return self.bits == 0 or self.bits == (1 << self.n) - 1

    def vector(self) -> np.ndarray:
        """0/1 occupation row vector, component ``v`` for vertex ``v + 1``."""
        return mask_vector(self.bits, self.n)

    def complement(self) -> "Configuration":
        return Configuration(self.bits ^ ((1 << self.n) - 1), self.n)


def mask_vector(mask: int, n: int) -> np.ndarray:
    """Expand a bitmask of any width into a float 0/1 vector of length ``n``."""
    return mask_bits([mask], n)[0].astype(float)


def mask_bits(masks, n: int) -> np.ndarray:
    """Expand bitmasks of any width in ``[0, 2^n)`` (else :class:`LevelOutOfRange`) into a
    boolean matrix: ``[k, v]`` is True where vertex ``v + 1`` is a mutant in ``masks[k]``."""
    if isinstance(masks, np.ndarray) and masks.dtype.kind == "i":
        words = np.ascontiguousarray(masks, dtype="<i8").reshape(-1)
        low, high = (int(words.min()), int(words.max())) if words.size else (0, 0)
    else:
        masks = masks.tolist() if isinstance(masks, np.ndarray) else [int(mask) for mask in masks]
        low, high = (min(masks), max(masks)) if masks else (0, 0)
        words = None
    if low < 0 or high >> n:
        raise LevelOutOfRange(f"a mask does not fit into {n} bits")
    if high >> 63:
        return _mask_bits_from_bytes(masks, n)
    if words is None:
        words = np.array(masks, dtype="<i8")
    # every mask fits into 63 bits: read the bits straight from little-endian int64 words
    return np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, count=n,
                         bitorder="little").view(bool)


def _mask_bits_from_bytes(masks: list, n: int) -> np.ndarray:
    """:func:`mask_bits` of in-range Python ints of any width, one ``int.to_bytes`` each."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join([mask.to_bytes(width, "little") for mask in masks]), np.uint8)
    return np.unpackbits(raw.reshape(-1, width), axis=1, count=n, bitorder="little").view(bool)


def _first_unreached(adjacency: np.ndarray) -> int | None:
    """A vertex that no directed path of ``adjacency`` reaches from vertex 0, or None."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen
    while not seen.all():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        if not frontier.any():
            return int(seen.argmin())
        seen |= frontier
    return None


def validate_weight_matrix(raw) -> WeightMatrix:
    """Validate a raw square matrix as a population weight matrix.

    Checks shape, finite entries in range, row stochasticity within
    :data:`STOCHASTIC_TOL`, and strong connectivity of the digraph spanned by
    positive off-diagonal entries (self-loops are ignored for connectivity).

    Parameters
    ----------
    raw : array_like, shape (n, n)
        Candidate weight matrix, ``n >= 2``.

    Returns
    -------
    WeightMatrix
    """
    try:
        entries = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, entries that are not numbers
        raise NotStochastic(f"weight matrix must be a square array of numbers: {exc}") from None
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise NotStochastic(f"weight matrix must be square, got shape {entries.shape}")
    n = entries.shape[0]
    if n < 2:
        raise NotStochastic("population needs at least two vertices")
    tol = STOCHASTIC_TOL
    if not np.isfinite(entries).all() or (entries < -tol).any() or (entries > 1.0 + tol).any():
        raise NotStochastic("entries must be finite and lie in [0, 1]")
    row_err = np.abs(entries.sum(axis=1) - 1.0)
    if (row_err > tol).any():
        bad = int(np.argmax(row_err))
        raise NotStochastic(
            f"row {bad + 1} sums to {float(entries[bad].sum())!r}, off by {row_err[bad]:.3e}"
        )
    edges = entries > 0.0
    np.fill_diagonal(edges, False)
    for adjacency, relation in ((edges, "is not reached from"), (edges.T, "does not reach")):
        unreached = _first_unreached(adjacency)
        if unreached is not None:
            raise NotStronglyConnected(
                f"vertex {unreached + 1} {relation} vertex 1 along positive "
                f"off-diagonal edges"
            )
    entries.setflags(write=False)
    return WeightMatrix(entries)


def stationary_distribution(W: WeightMatrix) -> StationaryDistribution:
    """Compute the unique stationary distribution of a validated weight matrix.

    Solves ``pi @ W = pi`` together with ``sum(pi) = 1`` by replacing one
    balance equation with the normalisation row; strong connectivity makes the
    solution unique and strictly positive.  A least-squares solve of the full
    stacked system is used as fallback if the square system is ill-behaved.

    Raises
    ------
    NumericalFailure
        If the fixed-point residual ``max|pi @ W - pi|`` exceeds
        :data:`STOCHASTIC_TOL` or a component is not strictly positive.
    """
    n = W.n
    A = W.entries.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi = None
    if pi is None or np.any(pi <= 0.0):
        stacked = np.vstack([W.entries.T - np.eye(n), np.ones((1, n))])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        pi = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    pi = pi / pi.sum()
    residual = np.max(np.abs(pi @ W.entries - pi))
    if residual > STOCHASTIC_TOL or np.any(pi <= 0.0):
        raise NumericalFailure(
            f"stationary solve failed: residual {residual:.3e}, min component {pi.min():.3e}"
        )
    return StationaryDistribution(_frozen_array(pi))


def is_isothermal(W: WeightMatrix) -> bool:
    """True iff every column of ``W`` sums to one (doubly stochastic weights)."""
    return bool(np.max(np.abs(W.column_sums() - 1.0)) <= STOCHASTIC_TOL)


def enumerate_level(n: int, j: int) -> list[Configuration]:
    """All configurations of ``n`` vertices with exactly ``j`` mutants.

    Returned in increasing bitmask order; there are ``C(n, j)`` of them.
    """
    return [Configuration(mask, n) for mask in level_masks(n, j)]


def level_masks(n: int, j: int) -> list[int]:
    """Bitmasks of the configurations of :func:`enumerate_level`, in the same order."""
    if not 0 <= j <= n:
        raise LevelOutOfRange(f"level {j} outside [0, {n}]")
    # subsets of the vertices taken in decreasing order come out in decreasing mask order
    return [sum(s) for s in combinations([1 << v for v in range(n - 1, -1, -1)], j)][::-1]


def complete_graph_weights(n: int) -> WeightMatrix:
    """Complete graph with loops: every edge, including self-loops, has weight 1/n."""
    if n < 2:
        raise NotStochastic("population needs at least two vertices")
    return validate_weight_matrix(np.full((n, n), 1.0 / n))


def two_vertex_weights(w1: float, w2: float) -> WeightMatrix:
    """Two-vertex graph with cross weights ``w1`` (1 -> 2) and ``w2`` (2 -> 1).

    Both weights must lie in (0, 1]; the remaining mass sits on self-loops.
    """
    if not (0.0 < w1 <= 1.0 and 0.0 < w2 <= 1.0):
        raise NotStochastic(f"cross weights must lie in (0, 1], got {w1}, {w2}")
    return validate_weight_matrix([[1.0 - w1, w1], [w2, 1.0 - w2]])
