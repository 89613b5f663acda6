"""Reference checks for the benchmark, computed apart from the program.

Nothing here imports ``spatialmoran``.  Every reference is evaluated from
the model definition itself: the well-mixed fixation formula, the one-step
law of the spatial Moran process written out over all configurations at
once, column sums, and binomial standard errors.  Each check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

#: The library's stated tolerance for solved fixation probabilities.
RHO_TOL = 1e-10
#: Tolerance for quantities that are a closed form of the model (no solve).
FORMULA_TOL = 1e-12
#: Monte Carlo acceptance band, in binomial standard errors.
MC_SIGMAS = 5.0


def moran_rho(i: int, n: int, r: float) -> float:
    """Well-mixed fixation probability from ``i`` mutants among ``n``."""
    if i == 0:
        return 0.0
    if i == n:
        return 1.0
    if r == 1.0:
        return i / n
    return (1.0 - r ** -i) / (1.0 - r ** -n)


def occupation(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``2^n`` masks and their 0/1 occupation rows (bit ``v`` is vertex ``v``)."""
    masks = np.arange(1 << n)
    return masks, ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def flip_masses(W: np.ndarray, mu: np.ndarray, r: float, X: np.ndarray) -> np.ndarray:
    """One-step probability of flipping each vertex, for every row of ``X``.

    The parent ``v`` is chosen with weight ``mu_v`` times its fitness (``r``
    for a mutant, 1 otherwise), and its type is copied onto a
    ``W[v, .]``-random target; a flip happens when the target has the other
    type.
    """
    fitness = np.where(X > 0.0, r, 1.0) * mu[None, :]
    parent = fitness / fitness.sum(axis=1, keepdims=True)
    onto_mutant_parent = (parent * X) @ W
    onto_wild_parent = (parent * (1.0 - X)) @ W
    return onto_mutant_parent * (1.0 - X) + onto_wild_parent * X


def level_moves(W: np.ndarray, mu: np.ndarray, r: float, masks) -> np.ndarray:
    """``(p_plus, p_minus)`` for each given mask, as an array of shape ``(len, 2)``."""
    n = W.shape[0]
    masks = np.asarray(masks, dtype=np.int64)
    X = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    flips = flip_masses(W, mu, r, X)
    return np.stack([(flips * (1.0 - X)).sum(axis=1), (flips * X).sum(axis=1)], axis=1)


def rho_vector(doc: dict, n: int) -> tuple[np.ndarray | None, list[str]]:
    """The ``rho`` block of an ``exact`` output as an array indexed by mask."""
    entries = doc.get("rho")
    size = 1 << n
    if not isinstance(entries, list) or len(entries) != size:
        return None, [f"rho has {len(entries) if isinstance(entries, list) else 'no'}"
                      f" entries, expected {size}"]
    if [e["mask"] for e in entries] != list(range(size)):
        return None, ["rho masks are not 0 .. 2^n - 1 in order"]
    return np.array([e["value"] for e in entries], dtype=float), []


def check_exact(doc: dict, W: np.ndarray, mu: np.ndarray | None, r: float,
                stationary_policy: bool) -> tuple[list[str], float]:
    """Check an ``exact --init level:1:uniform`` output.

    ``mu`` is the policy for non-stationary instances (``None`` when the
    policy is the stationary one).  Returns the problems found and the
    largest error measured: against the well-mixed formula for stationary
    instances, against the one-step equation otherwise.
    """
    n = W.shape[0]
    rho, problems = rho_vector(doc, n)
    if rho is None:
        return problems, math.inf
    full = (1 << n) - 1
    masks, X = occupation(n)
    level = X.sum(axis=1).astype(int)
    if rho[0] != 0.0 or rho[full] != 1.0:
        problems.append(f"boundary values {rho[0]!r}, {rho[full]!r}, expected 0 and 1")
    if np.any(rho < 0.0) or np.any(rho > 1.0):
        problems.append("rho escapes [0, 1]")
    reference = np.array([moran_rho(int(j), n, r) for j in range(n + 1)])
    formula_error = np.abs(rho - reference[level])
    if stationary_policy:
        error = float(formula_error.max())
        if error > RHO_TOL:
            worst = int(np.argmax(formula_error))
            problems.append(f"rho at mask {worst} is {error:.3e} from the well-mixed "
                            f"value, above {RHO_TOL:g}")
    else:
        # rho_x = sum_y P(x, y) rho_y, written for the jump chain: the idle
        # mass cancels, so an error at any single mask shows undiluted.
        flips = flip_masses(W, mu, r, X)[1:full]
        inner = masks[1:full]
        neighbours = rho[inner[:, None] ^ (1 << np.arange(n))[None, :]]
        residual = np.abs(rho[1:full] - (flips * neighbours).sum(axis=1) / flips.sum(axis=1))
        error = float(residual.max())
        if error > RHO_TOL:
            worst = int(inner[int(np.argmax(residual))])
            problems.append(f"one-step equation misses by {error:.3e} at mask {worst}, "
                            f"above {RHO_TOL:g}")
    singles = rho[1 << np.arange(n)]
    if abs(doc.get("rho_alpha", math.nan) - singles.mean()) > FORMULA_TOL:
        problems.append(f"rho_alpha {doc.get('rho_alpha')!r} is not the mean "
                        f"{float(singles.mean())!r} of the single-mutant values")
    for j in range(1, n):
        printed = doc.get("moran", {}).get(str(j), math.nan)
        if abs(printed - reference[j]) > FORMULA_TOL:
            problems.append(f"moran[{j}] = {printed!r}, expected {float(reference[j])!r}")
        worst = float(formula_error[level == j].max())
        printed = doc.get("deviation", {}).get(str(j), math.nan)
        if abs(printed - worst) > FORMULA_TOL:
            problems.append(f"deviation[{j}] = {printed!r}, measured {worst!r}")
    return problems, error


def check_simulation(doc: dict, trials: int, exact: float) -> list[str]:
    """Check a ``simulate`` output against the exact fixation probability."""
    problems = []
    if doc.get("trials") != trials:
        problems.append(f"trials {doc.get('trials')!r}, expected {trials}")
    if doc.get("censored") != 0:
        problems.append(f"{doc.get('censored')!r} censored trials")
    fixations, extinctions = doc.get("fixations", -1), doc.get("extinctions", -1)
    if fixations + extinctions != trials:
        problems.append(f"fixations {fixations} + extinctions {extinctions} != {trials}")
    se = math.sqrt(exact * (1.0 - exact) / trials)
    frequency = doc.get("frequency", math.nan)
    if not abs(frequency - exact) <= MC_SIGMAS * se:
        problems.append(f"frequency {frequency!r} is {abs(frequency - exact) / se:.1f} "
                        f"standard errors from the exact {exact!r}")
    return problems


def check_suite(doc: dict) -> list[str]:
    """Check a builtin ``verify`` output: every check passes."""
    checks = doc.get("checks", {})
    failed = sorted(name for name, entry in checks.items() if entry.get("pass") is not True)
    problems = [f"builtin check {name} failed" for name in failed]
    if not checks or doc.get("pass") is not True:
        problems.append("builtin suite does not report pass")
    return problems


def check_model_report(doc: dict, W: np.ndarray, mu: np.ndarray, r: float) -> list[str]:
    """Check a ``verify --model`` report against the model's own closed forms."""
    report = doc.get("model_report", {})
    problems = []
    isothermal = bool(np.max(np.abs(W.sum(axis=0) - 1.0)) <= FORMULA_TOL)
    if report.get("isothermal") is not isothermal:
        problems.append(f"isothermal {report.get('isothermal')!r}, column sums say {isothermal}")

    # For x = e_v: p_minus / p_plus - 1/r = ((mu W)_v - mu_v) / (r mu_v (1 - W_vv)).
    per_vertex = np.abs(mu @ W - mu) / (r * mu * (1.0 - np.diag(W)))
    v = int(np.argmax(per_vertex))
    expected = float(per_vertex[v])
    witness = report.get("single_mutant_ratio_witness", {})
    deviation = witness.get("deviation", math.nan)
    if not abs(deviation - expected) <= FORMULA_TOL * expected:
        problems.append(f"single-mutant witness {deviation!r}, expected {expected!r}")
    if witness.get("mask") != 1 << v:
        problems.append(f"single-mutant witness mask {witness.get('mask')!r}, expected {1 << v}")

    macro = report.get("macro_markov", {})
    if macro.get("lumpable") is not False or not macro.get("witness"):
        problems.append("macro_markov gives no witness for a non-lumpable model")
    else:
        level, a, b = macro["witness"]
        moves = level_moves(W, mu, r, [a, b])
        if not (int(a).bit_count() == int(b).bit_count() == level):
            problems.append(f"macro_markov witness masks {a}, {b} are not both at level {level}")
        elif np.max(np.abs(moves[0] - moves[1])) <= FORMULA_TOL:
            problems.append(f"macro_markov witness masks {a}, {b} have equal p_plus, p_minus")
    return problems
