"""The benchmark's workloads: fixed lists of `adiagen.cli.run` configs.

Each workload is run as a closed loop by one client: its commands run back to
back, each starting after the previous one returns.  The workload seed is
every command's master seed; the fixed inputs (gate lists, szk moduli) live in
`inputs/`.  `smoke=True` gives a reduced-size variant for the benchmark's own
tests; its overrides leave every reference-checked scalar meaningful.
"""
from __future__ import annotations

import json
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

# name -> (why, [(command, params, smoke overrides)])
WORKLOADS = {
    "sparse-trotter": (
        "sparseham piece application dominates; vectorised block pieces show here",
        [("trotter-sweep", {"n": 7, "D": 4, "alpha": 1e-3}, {"n": 5})],
    ),
    "zeno-paths": (
        "dense eigh on two jagged-path shapes (circuit, matchings); the rank-2 path engine shows here",
        [
            ("compile-circuit",
             {"n": 7, "gate_file": "zeno7.txt", "x": "0000000", "R": 500, "grid": 101},
             {"R": 50}),
            ("matchings-qsample", {"n": 4, "R": 250}, {"R": 20}),
        ],
    ),
    "schrodinger-path": (
        "adiabatic Schrodinger route: expm and groundstate every step plus the condition check",
        [("adiabatic-run",
          {"n": 7, "gate_file": "schrodinger7.txt", "eps": 0.1, "T": 30.0, "delta": 0.2},
          {})],
    ),
    "many-small": (
        "dims <= 64, per-call overhead; the only workload where szk and markov's own code work",
        [
            ("decompose-check", {"instances": 250}, {"instances": 10}),
            ("gap-formula", {"trials": 1000}, {"trials": 20}),
            ("zen-bound", {"trials": 1000}, {"trials": 20}),
            ("markov-spectrum", {"trials": 250}, {"trials": 10}),
            ("szk-sd", {"trials": 1000}, {"trials": 20}),
            ("szk-dlp", {"p": 4099, "g": 2, "instances": 250}, {"instances": 5}),
            ("szk-qr", {"moduli": "szk_moduli.json"}, {}),
        ],
    ),
}


def _resolve(params: dict) -> dict:
    """Turn file-name parameters into what the CLI expects."""
    out = dict(params)
    if "gate_file" in out:
        out["gate_file"] = str(INPUTS / out["gate_file"])
    if isinstance(out.get("moduli"), str):
        out["moduli"] = json.loads((INPUTS / out["moduli"]).read_text())["moduli"]
    return out


def build(name: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's command configs for one workload seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    configs = []
    for command, params, overrides in WORKLOADS[name][1]:
        merged = {**params, **overrides} if smoke else params
        configs.append({"command": command, "seed": seed, **_resolve(merged)})
    return configs
