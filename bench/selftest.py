"""Self-test of the benchmark's reference checks: wrong answers must be rejected.

Run from the root of a checkout::

    python3 bench/selftest.py

It produces correct outputs with the CLI on small models, confirms that
every check accepts them, then alters each output in one way that a correct
program never shows and confirms that :func:`run.judge` counts the altered
operation as failed.  The wrong answers: ``rho`` shifted by 1e-9 at one
mask, a Monte Carlo frequency 6 standard errors from the exact value, and a
single-mutant witness off by 1 %.  Exits with 0 when every correct output
passes and every wrong answer is rejected.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from workloads import (describe_op, exact_op, random_weights, simulate_op, write_model)


def _shift_rho(mask: int, delta: float):
    def alter(doc):
        doc["rho"][mask]["value"] += delta
    return alter


def _biased_frequency(sigmas: float, exact: float, trials: int):
    def alter(doc):
        doc["frequency"] = exact + sigmas * math.sqrt(exact * (1.0 - exact) / trials)
    return alter


def _scale_witness(factor: float):
    def alter(doc):
        doc["model_report"]["single_mutant_ratio_witness"]["deviation"] *= factor
    return alter


def cases(workdir: Path):
    """(op, wrong answers as (label, alteration)) for each small model."""
    rng = np.random.default_rng(7)
    out = []
    for n, policy, r in ((8, "stationary", 2.0), (8, "uniform", 1.5), (13, "uniform", 2.0)):
        W = random_weights(n, rng, 0.8)
        path = write_model(workdir / f"exact-{n}-{policy}.json", W, policy, r)
        op = exact_op(f"exact-n{n}-{policy}", path, W, policy, r, policy == "stationary")
        full = (1 << n) - 1
        wrong = [(f"rho{sign:+d}e-9 at mask {mask}", _shift_rho(mask, sign * 1e-9))
                 for mask in (1, full // 3, full - 1) for sign in (1, -1)]
        out.append((op, wrong))
    trials, exact = 20000, 1.0 / 3.0
    op = simulate_op("galanis-event", "@galanis", None, "mask:1", "event", trials, 5, exact)
    out.append((op, [(f"frequency {s:+d} standard errors from exact", _biased_frequency(s, exact, trials))
                     for s in (6, -6)]))
    W = random_weights(8, rng, 0.5)
    mu = rng.uniform(0.5, 2.0, 8)
    mu /= mu.sum()
    path = write_model(workdir / "describe-8.json", W, mu, 2.0)
    op = describe_op("verify-model-n8", path, W, mu, 2.0)
    out.append((op, [(f"witness x{f}", _scale_witness(f)) for f in (1.01, 0.99)]))
    return out


def main() -> int:
    if not (run.SRC / "spatialmoran" / "__init__.py").is_file():
        sys.stderr.write(f"no spatialmoran package under {run.SRC}\n")
        return 2
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    wrong_total = rejected = correct_failed = 0
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for op, wrong in cases(Path(workdir)):
            code, text = run.call_cli(cli, op.argv)
            problems, _ = run.judge(op, code, text)
            if problems:
                correct_failed += 1
                print(f"FAIL  {op.name}: correct output rejected: {problems}")
            doc = json.loads(text)
            for label, alter in wrong:
                bad = copy.deepcopy(doc)
                alter(bad)
                problems, _ = run.judge(op, code, json.dumps(bad))
                wrong_total += 1
                rejected += bool(problems)
                print(f"{'ok  ' if problems else 'MISS'}  {op.name}: {label}: "
                      f"{problems[0] if problems else 'accepted'}")
    print(f"{rejected} of {wrong_total} wrong answers counted as failed; "
          f"{correct_failed} correct outputs rejected")
    return 0 if rejected == wrong_total and not correct_failed else 1


if __name__ == "__main__":
    sys.exit(main())
