"""Command-line interface: exact solves, simulation, sweeps, verification.

Every JSON output embeds a run manifest (command, arguments, seed, version,
timestamp) for reproducibility.  Set ``SOURCE_DATE_EPOCH`` to pin the
timestamp and make outputs byte-stable.  Exit codes: 0 success, 1 runtime
failure (including failed builtin verification), 2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__
from .dynamics import transition_kernel
from .errors import InputError, SpatialMoranError
from .exact import _moran_by_level, fixation_probabilities
from .modelio import load_model, parse_init_spec, parse_policy_override
from .montecarlo import TrajectoryConfig, estimate_fixation
from .verification import DEFAULT_SEED, builtin_suite, describe_model


def _manifest(command: str, argv: list[str], seed: int | None) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        stamp = datetime.now(tz=timezone.utc)
    return {
        "command": command,
        "arguments": list(argv),
        "seed": seed,
        "version": __version__,
        "timestamp": stamp.isoformat(),
    }


def _finite(value):
    """``value`` with each non-finite float in it, in nested dicts and lists too, as ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _emit(doc: dict, indent: int | None, rho: np.ndarray | None = None) -> None:
    """Write ``json.dumps(doc, indent=indent)`` with each NaN or infinity as ``null``, which
    strict JSON has no other way to write, and where float64 ``rho`` fills ``"rho": null`` (only
    the key matches, as strings escape quotes) with ``[{"mask": x, "value": rho[x]}, ...]`` in one
    pass.  Each distinct bit pattern is written once (``-0.0`` apart from ``0.0``): a stationary
    model's ``2^n`` values are its ``n + 1`` Moran values."""
    text = json.dumps(_finite(doc), indent=indent, allow_nan=False)
    if rho is not None:
        at1, at2, at3 = ("" if indent is None else "\n" + " " * (indent * d) for d in (1, 2, 3))
        comma = "," if at1 else ", "
        bits, which = np.unique(rho.view(np.uint64), return_inverse=True)
        tails = [f'{comma}{at3}"value": {value!r}{at2}}}' for value in bits.view(float).tolist()]
        head = "{" + at3 + '"mask": '
        rows = (comma + at2).join([f"{head}{x}{tails[i]}" for x, i in enumerate(which.tolist())])
        text = text.replace('"rho": null', '"rho": [' + at2 + rows + at1 + "]", 1)
    sys.stdout.write(text + "\n")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True,
                     help="model JSON file or builtin (@galanis, @complete:n, @n2:w1,w2)")
    sub.add_argument("--r", default=None, help="override the mutant fitness")
    sub.add_argument("--mu", default=None,
                     help="override the policy: stationary, uniform, or a comma list")


def _add_indent_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json-indent", type=int, default=None,
                     help="pretty-print JSON output with this indent")


def _load(args) -> object:
    mu = parse_policy_override(args.mu) if args.mu is not None else None
    return load_model(args.model, r_override=args.r, mu_override=mu)


def _cmd_exact(args, argv) -> int:
    model = _load(args)
    alpha = parse_init_spec(args.init, model.n) if args.init else None
    report = fixation_probabilities(model, alpha=alpha)
    deviation = report.per_level_deviation.tolist()
    moran = _moran_by_level(model.n, model.r).tolist()
    doc = {
        "manifest": _manifest("exact", argv, None),
        "rho": None,  # filled in by _emit
        "deviation": {str(j): deviation[j] for j in range(1, model.n)},
        "moran": {str(j): moran[j] for j in range(1, model.n)},
        "solver": dataclasses.asdict(report.solver),
    }
    if report.rho_alpha is not None:
        doc["rho_alpha"] = report.rho_alpha
    _emit(doc, args.json_indent, report.rho)
    return 0


def _cmd_simulate(args, argv) -> int:
    model = _load(args)
    alpha = parse_init_spec(args.init, model.n)
    cfg = TrajectoryConfig(seed=args.seed, max_steps=args.max_steps, mode=args.mode)
    result = estimate_fixation(model, alpha, args.trials, cfg, workers=args.workers)
    doc = {"manifest": _manifest("simulate", argv, args.seed), **dataclasses.asdict(result)}
    _emit(doc, args.json_indent)
    return 0


def _cmd_sweep(args, argv) -> int:
    from .analysis import sweep_n2

    values = sweep_n2(args.c, args.r, args.grid)
    axis = np.linspace(0.0, 1.0, args.grid).tolist()  # the points sweep_n2 evaluates
    lines = ["a,m,F"]
    for i, a in enumerate(axis):
        for j, m in enumerate(axis):
            lines.append(f"{a:.17g},{m:.17g},{values[i, j]:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _dump_kernel(model, path: str) -> None:
    kernel = transition_kernel(model)
    with open(path, "w") as handle:
        handle.write("from_mask,to_mask,prob\n")
        for src, dst, prob in kernel.entries():
            handle.write(f"{src},{dst},{prob:.17g}\n")


def _cmd_verify(args, argv) -> int:
    if args.model:
        model = _load(args)
        if args.dump_kernel:
            _dump_kernel(model, args.dump_kernel)
        doc = {
            "manifest": _manifest("verify", argv, args.seed),
            "model_report": describe_model(model),
            "pass": True,  # descriptive for user models
        }
        _emit(doc, args.json_indent)
        return 0
    checks = builtin_suite(seed=args.seed, graphs=args.graphs)
    ok = all(entry["pass"] for entry in checks.values())
    doc = {
        "manifest": _manifest("verify", argv, args.seed),
        "checks": checks,
        "pass": ok,
    }
    _emit(doc, args.json_indent)
    return 0 if ok else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="spatialmoran",
        description="Fixation probabilities of spatial Moran processes on weighted digraphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_exact = sub.add_parser("exact", help="solve fixation probabilities exactly")
    _add_model_flags(p_exact)
    p_exact.add_argument("--init", default=None,
                         help="initial distribution: mask:K, level:j:uniform, or atoms:[(mask,w),...]")
    _add_indent_flag(p_exact)
    p_exact.set_defaults(handler=_cmd_exact)

    p_sim = sub.add_parser("simulate", help="estimate fixation by Monte Carlo")
    _add_model_flags(p_sim)
    p_sim.add_argument("--init", required=True,
                       help="initial distribution: mask:K, level:j:uniform, or atoms:[(mask,w),...]")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", default="event", choices=("event", "faithful"))
    p_sim.add_argument("--max-steps", type=int, default=10**7)
    p_sim.add_argument("--workers", type=int, default=1)
    _add_indent_flag(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="two-vertex fixation surface as CSV")
    p_sweep.add_argument("--c", type=float, required=True, help="cross-weight ratio w1/w2")
    p_sweep.add_argument("--r", type=float, required=True, help="mutant fitness")
    p_sweep.add_argument("--grid", type=int, default=101)
    p_sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the builtin checks or describe a model")
    p_verify.add_argument("--model", default=None,
                          help="describe this model instead of running the builtin suite")
    p_verify.add_argument("--r", default=None)
    p_verify.add_argument("--mu", default=None)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--graphs", type=int, default=10,
                          help="random graphs per builtin check family")
    p_verify.add_argument("--dump-kernel", default=None,
                          help="with --model: write the transition kernel as CSV")
    _add_indent_flag(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    indent = getattr(args, "json_indent", None)
    try:
        return args.handler(args, argv)
    except SpatialMoranError as exc:
        _emit({"manifest": _manifest(args.subcommand, argv, getattr(args, "seed", None)),
               "error": {"type": type(exc).__name__, "message": str(exc)}}, indent)
        return 2 if isinstance(exc, InputError) else 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
