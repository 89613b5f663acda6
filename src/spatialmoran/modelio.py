"""Model files, builtin models, and initial-distribution specifications.

A model document is JSON of the form::

    {"n": 3, "W": [["0", "1/4", "3/4"], ...], "mu": "stationary", "r": 1.0}

Matrix rows are outer arrays.  Numbers may be given as JSON numbers, decimal
strings, or exact ``"p/q"`` rational strings (converted to double).  ``mu``
is a vector, ``"stationary"``, or ``"uniform"``.

Builtin model names avoid copy-paste errors:

* ``@galanis`` - the three-vertex counterexample, stationary policy, r = 1
* ``@complete:n`` - complete graph with loops on ``n`` vertices, uniform policy
* ``@n2:w1,w2`` - two-vertex graph with the given cross weights
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .analysis import GALANIS_WEIGHTS
from .dynamics import MicSMPModel, build_model
from .errors import InputError, LevelOutOfRange, NotStochastic
from .exact import InitialDistribution
from .graph import complete_graph_weights, two_vertex_weights, validate_weight_matrix


def parse_number(value) -> float:
    """Parse a JSON number (not a boolean), decimal string, or exact ``"p/q"`` string to double."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                return float(Fraction(text))
            return float(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotStochastic(f"cannot parse number {value!r}") from exc
    raise NotStochastic(f"cannot parse number {value!r}")


def builtin_model(name: str) -> dict:
    """Expand a ``@``-prefixed builtin name into a model document."""
    body = name[1:]
    if body == "galanis":
        return {"n": 3, "W": [list(row) for row in GALANIS_WEIGHTS],
                "mu": "stationary", "r": 1.0}
    if body.startswith("complete:"):
        try:
            n = int(body.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"expected @complete:n with an integer n, got {name!r}") from exc
        W = complete_graph_weights(n)
        return {"n": n, "W": W.entries.tolist(), "mu": "uniform", "r": 1.0}
    if body.startswith("n2:"):
        parts = body.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise InputError(f"expected @n2:w1,w2, got {name!r}")
        w1, w2 = (parse_number(p) for p in parts)
        W = two_vertex_weights(w1, w2)
        return {"n": 2, "W": W.entries.tolist(), "mu": "stationary", "r": 1.0}
    raise InputError(f"unknown builtin model {name!r}")


def parse_model(doc: dict, r_override=None, mu_override=None) -> MicSMPModel:
    """Build a model from a parsed document, with optional CLI overrides."""
    if not isinstance(doc, dict):
        raise InputError("model document must be a JSON object")
    try:
        matrix = [[parse_number(v) for v in row] for row in doc["W"]]
    except KeyError as exc:
        raise InputError("model document lacks the 'W' matrix") from exc
    except TypeError as exc:
        raise InputError("'W' must be an array of rows of numbers") from exc
    W = validate_weight_matrix(matrix)
    if "n" in doc and parse_number(doc["n"]) != W.n:
        raise InputError(f"declared n={doc['n']} does not match matrix size {W.n}")
    mu = mu_override if mu_override is not None else doc.get("mu", "stationary")
    if isinstance(mu, (list, tuple)):
        mu = [parse_number(v) for v in mu]
    elif not isinstance(mu, str):
        raise InputError(f"'mu' must be a vector, 'stationary' or 'uniform', got {mu!r}")
    r = parse_number(r_override if r_override is not None else doc.get("r", 1.0))
    return build_model(W, mu=mu, r=r)


def load_model(source: str, r_override=None, mu_override=None) -> MicSMPModel:
    """Load a model from a builtin name (``@...``) or a JSON file path."""
    if source.startswith("@"):
        doc = builtin_model(source)
    else:
        path = Path(source)
        if not path.exists():
            raise InputError(f"model file {source!r} does not exist")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"model file {source!r} is not valid JSON: {exc}") from exc
    return parse_model(doc, r_override=r_override, mu_override=mu_override)


def parse_policy_override(text: str):
    """Parse a CLI ``--mu`` value: ``stationary``, ``uniform``, or a comma list."""
    if text in ("stationary", "uniform"):
        return text
    return [parse_number(part) for part in text.split(",")]


def parse_init_spec(spec: str, n: int) -> InitialDistribution:
    """Parse an initial-distribution specification.

    Accepted forms: ``mask:K`` (point mass on mask ``K``, decimal or
    ``0b.../0x...``), ``level:j:uniform`` (uniform over all configurations
    with ``j`` mutants), and ``atoms:[(mask,weight),...]``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "mask":
        try:
            mask = int(rest, 0)
        except ValueError as exc:
            raise InputError(f"cannot parse mask {rest!r}") from exc
        return InitialDistribution.point_mass(mask, n)
    if kind == "level":
        level_text, _, qualifier = rest.partition(":")
        if qualifier not in ("", "uniform"):
            raise InputError(f"unsupported level qualifier {qualifier!r}")
        try:
            level = int(level_text)
        except ValueError as exc:
            raise InputError(f"cannot parse level {level_text!r}") from exc
        if not 0 < level < n:
            raise LevelOutOfRange(f"initial level {level} not transient for n={n}")
        return InitialDistribution.level_uniform(n, level)
    if kind == "atoms":
        try:
            pairs = json.loads(rest.replace("(", "[").replace(")", "]"))
            atoms = tuple((mask, parse_number(weight)) for mask, weight in pairs)
        except (TypeError, ValueError, OverflowError) as exc:  # bad JSON or bad pairs
            raise InputError(f"cannot parse atoms {rest!r}") from exc
        if any(type(mask) is not int for mask, _ in atoms):  # not a float, nor true or false
            raise InputError(f"atom masks must be integers, got {rest!r}")
        return InitialDistribution(n=n, atoms=atoms)
    raise InputError(f"unknown initial specification {spec!r}")
