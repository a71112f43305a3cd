"""Correctness gate for the benchmark's commands.

A command fails if it raised, if any invariant flag is FAIL, or if a result
scalar leaves its committed reference in `references.json`.  A reference rule
is any of: `value` with `tol` (|x - value| <= tol), `min`, `max`, and
`max_scalar` (x <= another scalar of the same report).  Tolerances come from
the physics (fidelities to ~1e-9, error counts exactly 0, the second-order
Trotter slope near 2), not from bit equality, so they hold for every seed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())


def check(scalars: dict, failing_flags: list[str], rules: dict) -> list[str]:
    """Problems with one command's report; empty when it passes."""
    problems = [f"flag {name} = FAIL" for name in failing_flags]
    for name, rule in rules.items():
        if name not in scalars:
            problems.append(f"scalar {name} missing from the report")
            continue
        x = float(scalars[name])
        if not math.isfinite(x):
            problems.append(f"{name} = {x} is not finite")
            continue
        if "value" in rule and abs(x - rule["value"]) > rule["tol"]:
            problems.append(f"{name} = {x!r} differs from reference {rule['value']!r} "
                            f"by more than {rule['tol']}")
        if "min" in rule and x < rule["min"]:
            problems.append(f"{name} = {x!r} below {rule['min']!r}")
        if "max" in rule and x > rule["max"]:
            problems.append(f"{name} = {x!r} above {rule['max']!r}")
        if "max_scalar" in rule and x > scalars.get(rule["max_scalar"], -math.inf):
            problems.append(f"{name} = {x!r} above {rule['max_scalar']}")
    return problems
