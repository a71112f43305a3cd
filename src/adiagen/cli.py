"""Reproducible experiment runner.

Every pipeline is a subcommand; a run is fully determined by its config and
master seed, and produces a structured text report (stdout) plus optional
column-data series files for plotting.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import adiabatic, markov, sparseham, szk
from .qcore import (
    MAX_DIM,
    NumericalError,
    hermitian_norm,
    matrix_exponential,
    random_sparse_hermitian,
    spectral_gap,
    spectral_norm,
    state_overlap,
)


class ConfigError(ValueError):
    """A config its command does not accept: unknown key, wrong type, non-finite value."""


def subseed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sub_rng(master: int, label: str) -> np.random.Generator:
    return np.random.default_rng(subseed(master, label))


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


def _cell(x) -> str:
    """A report or series value as printed: floats to 12 significant digits."""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


@dataclass
class RunReport:
    config: dict
    scalars: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)  # name -> (columns, rows)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(self.flags.values())

    def failing(self) -> list[str]:
        return [k for k, v in self.flags.items() if not v]

    def render(self) -> str:
        lines = ["# adiagen run report", f"config_hash: {config_hash(self.config)}",
                 f"command: {self.config.get('command', '?')}",
                 f"elapsed_seconds: {self.elapsed_seconds:.3f}", "[config]"]
        for k in sorted(self.config):
            lines.append(f"{k} = {self.config[k]}")
        lines.append("[scalars]")
        for k in sorted(self.scalars):
            lines.append(f"{k} = {_cell(self.scalars[k])}")
        lines.append("[flags]")
        for k in sorted(self.flags):
            lines.append(f"{k} = {'pass' if self.flags[k] else 'FAIL'}")
        for name, (columns, rows) in self.series.items():
            lines.append(f"[series {name}]")
            lines.append("# columns: " + " ".join(columns))
            for row in rows:
                lines.append(" ".join(map(_cell, row)))
        return "\n".join(lines) + "\n"


def emit_series(report: RunReport, directory) -> list[str]:
    """One column-data file per series, headed by the config hash."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for name, (columns, rows) in report.series.items():
        path = os.path.join(directory, f"{name}.dat")
        with open(path, "w") as f:
            f.write(f"# config_hash: {config_hash(report.config)}\n")
            f.write("# columns: " + " ".join(columns) + "\n")
            for row in rows:
                f.write(" ".join(map(_cell, row)) + "\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Experiments


def _require(cfg: dict, key: str, ok: bool, allowed: str) -> None:
    """Reject a value of `key` that its command cannot run with."""
    if not ok:
        raise ConfigError(f"{key} must be {allowed}, got {cfg[key]!r}")


# The budget of a per-trial loop count.  At it, a run takes from 3 s (szk-sd) to
# 13 min (decompose-check) on 2 cores; 10^14 trials would take years.
_MAX_TRIALS = 10**6


def _require_trials(cfg: dict, key: str) -> None:
    """Reject a per-trial loop count below 1 or above the budget."""
    _require(cfg, key, 1 <= cfg[key] <= _MAX_TRIALS, f"in [1, {_MAX_TRIALS}]")


def _run_decompose_check(cfg: dict, report: RunReport) -> None:
    _require_trials(cfg, "instances")
    rng = sub_rng(cfg["seed"], "decompose-instances")
    worst_norm_excess = 0.0
    max_count_ratio = 0.0
    for trial in range(cfg["instances"]):
        n = int(rng.integers(3, 7))
        D = int(rng.integers(2, 7))
        H = random_sparse_hermitian(n, D, 1.0, int(rng.integers(1 << 31)))
        sh = sparseham.sparse_from_dense(H, D=D, lam=1.0)
        pieces = sparseham.decompose(sh)  # reconstruction + disjointness checked inside
        bound = (D + 1) ** 2 * n**6
        max_count_ratio = max(max_count_ratio, len(pieces) / bound)
        # A piece's norm is its largest |value|; ||H|| = sh.lam: random_sparse_hermitian rescaled H to it
        worst_norm_excess = max(worst_norm_excess, float(np.max(np.abs(pieces.v), initial=0.0)) - sh.lam)
    report.scalars["instances"] = cfg["instances"]
    report.scalars["max_piece_count_ratio"] = max_count_ratio
    report.scalars["worst_norm_excess"] = worst_norm_excess
    report.flags["piece_count_bound"] = max_count_ratio <= 1.0
    report.flags["norm_domination"] = worst_norm_excess <= 1e-12


_MAX_QUBITS = MAX_DIM.bit_length() - 1
_ROUNDOFF_FLOOR = 1e-12  # above an exact product's error (commuting pieces, as at D = 1): <= 1.5e-14 at n <= 10
_MAX_STEP_NORM = 0.25  # largest delta * lam the sweep starts from; the defaults start there


def _run_trotter_sweep(cfg: dict, report: RunReport) -> None:
    n, D, lam, t = cfg["n"], cfg["D"], cfg["lam"], cfg["t"]
    _require(cfg, "n", 1 <= n <= _MAX_QUBITS, f"in [1, {_MAX_QUBITS}]")
    _require(cfg, "D", D >= 1, ">= 1")
    _require(cfg, "lam", lam > 0, "positive")
    _require(cfg, "t", t > 0, "positive")
    _require(cfg, "alpha", 0 < cfg["alpha"] < 1, "in (0, 1)")
    _require(cfg, "start_steps", cfg["start_steps"] >= 1, ">= 1")
    _require(cfg, "points", cfg["points"] >= 2, ">= 2 to fit a slope")
    steps = cfg["start_steps"]
    while t / (2 * steps) * lam > _MAX_STEP_NORM:  # a coarser step's error saturates near 2 and flattens the fit
        steps *= 2
    if steps > sparseham.MAX_TROTTER_STEPS:
        raise sparseham.StepBudgetError(f"the sweep would start at {steps} steps, over the step budget "
                                        f"{sparseham.MAX_TROTTER_STEPS}")
    most = (sparseham.MAX_TROTTER_STEPS // steps).bit_length()  # steps * 2^(points - 1) within the budget
    _require(cfg, "points", cfg["points"] <= most,
             f"<= {most}, so the sweep from {steps} steps ends within the step budget {sparseham.MAX_TROTTER_STEPS}")
    H = random_sparse_hermitian(n, D, lam, subseed(cfg["seed"], "trotter-instance"))
    pieces = sparseham.decompose(sparseham.sparse_from_dense(H, D=None, lam=lam))
    exact = matrix_exponential(H, t).entries
    rows = []
    for _ in range(cfg["points"]):
        delta = t / (2 * steps)
        # U is left unnamed, so that none outlives its error into trotter_within, which holds its own
        rows.append((delta, spectral_norm(sparseham.trotter_unitary(pieces, delta, steps, H.dim) - exact)))
        steps *= 2
    log_deltas, log_errors = np.log([d for d, _ in rows]), np.log([max(e, 1e-16) for _, e in rows])
    slope = float(np.polyfit(log_deltas, log_errors, 1)[0])
    _, achieved = sparseham.trotter_within(pieces, exact, t, cfg["alpha"], lam)
    report.series["delta_sweep"] = (("delta", "measured_error"), rows)
    report.scalars["loglog_slope"] = slope
    report.scalars["requested_alpha"] = cfg["alpha"]
    report.scalars["achieved_error"] = achieved
    report.flags["slope_at_least_linear"] = slope >= 0.9 or max(e for _, e in rows) <= _ROUNDOFF_FLOOR
    report.flags["accuracy_met"] = achieved <= cfg["alpha"]


_STACK_ENTRIES = 100 * 8 * 8  # entries per stacked matrix operand: 100 trials at dim 8


def _stacks(cfg: dict):
    """Trial counts of the stacks `cfg`'s trials run in: at most 100, fewer above dim 8."""
    trials, dim = cfg["trials"], cfg["dim"]
    _require_trials(cfg, "trials")
    _require(cfg, "dim", 2 <= dim <= MAX_DIM, f"in [2, {MAX_DIM}]")
    size = max(1, min(100, _STACK_ENTRIES // dim**2))
    return [min(size, trials - start) for start in range(0, trials, size)]


def _run_gap_formula(cfg: dict, report: RunReport) -> None:
    stacks = _stacks(cfg)
    rng = sub_rng(cfg["seed"], "gap-formula")
    dim = cfg["dim"]
    worst = 0.0
    worst_below_overlap = 0.0  # the lemma: no gap on the segment is below |<a|b>|
    for k in stacks:
        z, eta = np.empty((k, 4, dim)), np.empty(k)
        for i in range(k):  # the draws of one trial after another: Re a, Im a, Re b, Im b, eta
            z[i] = rng.normal(size=(4, dim))
            eta[i] = rng.uniform(0.05, 0.95)
        alpha, beta = (x / np.linalg.norm(x, axis=1, keepdims=True)
                       for x in (z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]))
        w = eta[:, None, None]
        H = (np.eye(dim) - (1 - w) * alpha[:, :, None] * alpha[:, None, :].conj()
             - w * beta[:, :, None] * beta[:, None, :].conj())
        got = spectral_gap(H)
        ov = np.abs(np.sum(alpha.conj() * beta, axis=1))
        want = adiabatic.two_projector_gap_formula(ov, eta)
        worst = max(worst, float(np.max(np.abs(got - want))))
        worst_below_overlap = max(worst_below_overlap, float(np.max(ov - got)))
    report.scalars["worst_formula_deviation"] = worst
    report.flags["formula_exact"] = worst <= 1e-9
    report.flags["minimum_at_half"] = worst_below_overlap <= 1e-9


def _run_zen_bound(cfg: dict, report: RunReport) -> None:
    stacks = _stacks(cfg)
    rng = sub_rng(cfg["seed"], "zen-bound")
    dim = cfg["dim"]
    violations = 0
    worst_margin = math.inf
    for k in stacks:
        z, u = np.empty((k, 4, dim, dim)), np.empty(k)
        for i in range(k):  # the draws of one trial after another: Re A, Im A, Re P, Im P, u
            z[i] = rng.normal(size=(4, dim, dim))
            u[i] = rng.uniform(1e-4, 0.2)
        A, P = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
        H = (A + A.conj().swapaxes(1, 2)) / 2
        P = (P + P.conj().swapaxes(1, 2)) / 2
        scale = u / np.maximum(hermitian_norm(P), 1e-12)
        lhs, rhs = adiabatic.groundstate_perturbation_bound(H, H + scale[:, None, None] * P)
        promise = ~np.isnan(lhs)  # a degenerate draw is not a promise instance
        worst_margin = min(worst_margin, float(np.min(lhs[promise] - rhs[promise], initial=math.inf)))
        violations += int(np.sum(lhs[promise] < rhs[promise]))
    report.scalars["violations"] = violations
    report.scalars["worst_margin"] = worst_margin
    report.flags["inequality_holds"] = violations == 0


_BUILTIN_CIRCUITS = {
    "bell2": adiabatic.GateSequence(n=2, gates=(("H", (0,)), ("X", (1,)))),
    "ghz3": adiabatic.GateSequence(n=3, gates=(("H", (0,)), ("CCX", (0, 1, 2)), ("X", (1,)))),
}


def _load_circuit(cfg: dict) -> tuple[adiabatic.GateSequence, str]:
    """The gates of `gate_file` on `n` qubits, else the builtin `circuit`; and the input `x`."""
    if cfg["gate_file"]:
        _require(cfg, "n", 1 <= cfg["n"] <= _MAX_QUBITS, f"in [1, {_MAX_QUBITS}] with a gate_file")
        with open(cfg["gate_file"]) as f:
            return adiabatic.parse_gate_lines(cfg["n"], f.read()), cfg["x"]
    _require(cfg, "circuit", cfg["circuit"] in _BUILTIN_CIRCUITS, f"one of {', '.join(_BUILTIN_CIRCUITS)}")
    return _BUILTIN_CIRCUITS[cfg["circuit"]], cfg["x"]


def _run_zeno_run(cfg: dict, report: RunReport) -> None:
    _require_trials(cfg, "shots")
    _require(cfg, "R_sweep", min(cfg["R_sweep"], default=0) >= 1, "a non-empty list of integers >= 1")
    gates, x = _load_circuit(cfg)
    path = adiabatic.compile_circuit(gates, x)
    rng = sub_rng(cfg["seed"], "zeno-mc")
    rows = []
    for R in cfg["R_sweep"]:
        rep = adiabatic.zeno_evolve(path, R)
        mc = adiabatic.zeno_success_samples(rep.per_step_overlaps, cfg["shots"], rng)
        rows.append((R, 1.0 - rep.success_probability, 1.0 - mc / cfg["shots"]))
    fails = [exact_fail for _, exact_fail, _ in rows]
    report.series["zeno_failure"] = (("R", "exact_failure", "mc_failure"), rows)
    report.flags["failure_monotone_nonincreasing"] = all(b <= a + 1e-12 for a, b in zip(fails, fails[1:]))


def _run_adiabatic_run(cfg: dict, report: RunReport) -> None:
    _require(cfg, "T", cfg["T"] >= 0, ">= 0 (0 derives T from the adiabatic condition)")
    _require(cfg, "delta", cfg["delta"] > 0, "positive")
    _require(cfg, "eps", cfg["eps"] > 0, "positive")
    _require(cfg, "target_fidelity", 0 <= cfg["target_fidelity"] <= 1, "in [0, 1]")
    gates, x = _load_circuit(cfg)
    path = adiabatic.compile_circuit(gates, x)
    eps = cfg["eps"]
    cond = adiabatic.check_adiabatic_condition(path)
    T = cfg["T"]
    if not T:  # derived: T = max_ratio / eps, raised past the quotient's rounding so that T * eps >= max_ratio
        T = max(1.0, cond.max_ratio / eps)
        while T * eps < cond.max_ratio:
            T = math.nextafter(T, math.inf)
    rep = adiabatic.evolve_discretized(path, T, cfg["delta"], path.ground_state(0.0))
    report.scalars["T"] = T
    report.scalars["max_condition_ratio"] = cond.max_ratio
    report.scalars["worst_condition_s"] = cond.worst_s
    report.scalars["final_fidelity_sq"] = rep.success_probability
    report.flags["condition_holds"] = T * eps >= cond.max_ratio
    report.flags["reached_target"] = rep.success_probability >= cfg["target_fidelity"]


def _run_compile_circuit(cfg: dict, report: RunReport) -> None:
    _require(cfg, "grid", cfg["grid"] >= 1, ">= 1")
    _require(cfg, "R", cfg["R"] >= 1, ">= 1")
    _require(cfg, "target_fidelity", 0 <= cfg["target_fidelity"] <= 1, "in [0, 1]")
    gates, x = _load_circuit(cfg)
    path = adiabatic.compile_circuit(gates, x)
    overlaps = path.overlaps  # a gateless circuit's one state overlaps itself: exactly 1 on a basis state
    min_gap = float(np.min(path.gap(np.linspace(0, 1, cfg["grid"]))))
    rep = adiabatic.zeno_evolve(path, cfg["R"])
    target = adiabatic.simulate_circuit(gates, x)
    fid = abs(state_overlap(rep.final_state, target))
    inv_sqrt2 = 1 / math.sqrt(2)
    report.scalars["min_consecutive_overlap"] = min(overlaps)
    report.scalars["min_sampled_gap"] = min_gap
    report.scalars["zeno_fidelity"] = fid
    report.flags["overlaps_above_inv_sqrt2"] = all(o >= inv_sqrt2 - 1e-12 for o in overlaps)
    report.flags["gaps_above_inv_sqrt2"] = min_gap >= inv_sqrt2 - 1e-9
    report.flags["matches_circuit_output"] = fid >= cfg["target_fidelity"]


def _run_markov_spectrum(cfg: dict, report: RunReport) -> None:
    _require_trials(cfg, "trials")
    # N is drawn from [2, max_states), so max_states - 1 bounds the chain's dimension
    _require(cfg, "max_states", 3 <= cfg["max_states"] <= MAX_DIM + 1, f"in [3, {MAX_DIM + 1}]")
    rng = sub_rng(cfg["seed"], "markov-spectrum")
    worst_spec = worst_ground = 0.0
    for _ in range(cfg["trials"]):
        N = int(rng.integers(2, cfg["max_states"]))
        chain = _random_reversible_chain(N, rng)
        H = markov.chain_hamiltonian(chain)
        hvals = np.linalg.eigvalsh(H)
        mvals = np.sort(1.0 - np.linalg.eigvals(chain.transition).real)
        worst_spec = max(worst_spec, float(np.max(np.abs(hvals - mvals))))
        worst_ground = max(worst_ground, markov.sqrt_pi_deviation(H, chain.pi, hvals))
    report.scalars["worst_spectrum_deviation"] = worst_spec
    report.scalars["worst_groundstate_deviation"] = worst_ground
    report.flags["spectrum_correspondence"] = worst_spec <= 1e-9
    report.flags["groundstate_is_sqrt_pi"] = worst_ground <= markov.SQRT_PI_TOL


def _random_reversible_chain(N: int, rng: np.random.Generator) -> markov.MarkovChain:
    """Metropolis chain on a random connected graph with random weights."""
    w = rng.uniform(0.2, 2.0, size=N)
    parents = rng.integers(0, np.arange(1, N))  # node i's tree parent, in [0, i)
    edges = {(j, i) for i, j in enumerate(parents.tolist(), start=1)}
    extra = np.sort(rng.integers(0, N, size=(N, 2)), axis=1)  # N random pairs, each as (smaller, larger)
    edges.update((i, j) for i, j in extra.tolist() if i != j)
    neighbors = [[] for _ in range(N)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    return markov.metropolis_chain(w, neighbors)


# An anneal step holds an N x N chain, 115 KB at n = 4: 1000 steps hold 115 MB and run in 1.5 s on 2 cores
_MAX_ANNEAL_STEPS = 1000


def _run_matchings_qsample(cfg: dict, report: RunReport) -> None:
    n = cfg["n"]
    edge = cfg["removed_edge"]
    _require(cfg, "n", 1 <= n <= markov.MAX_MATCHING_N, f"in [1, {markov.MAX_MATCHING_N}]")
    _require(cfg, "removed_edge", len(edge) == 2 and all(0 <= v < n for v in edge), f"two vertices in [0, {n})")
    _require(cfg, "steps", 0 <= cfg["steps"] <= _MAX_ANNEAL_STEPS, f"in [0, {_MAX_ANNEAL_STEPS}]")
    _require(cfg, "R", cfg["R"] >= 1, ">= 1")
    _require(cfg, "target_fidelity", 0 <= cfg["target_fidelity"] <= 1, "in [0, 1]")
    target = {(u, v) for u in range(n) for v in range(n)} - {tuple(edge)}
    seed_state, space = markov.matchings_seed_qsample(n)
    _, p_perfect = markov.project_perfect(seed_state, space)
    chains = markov.anneal_weights_sequence(space, target, cfg["steps"], cfg["ratio"])
    rep = markov.qsample_sequence(chains, seed_state, cfg["R"])
    target_state = markov.pi_state(chains[-1].pi)
    fid = abs(state_overlap(rep.final_state, target_state))
    post, _ = markov.project_perfect(rep.final_state, space)
    target_perfect = [i for i in space.perfect_indices() if space.states[i] <= target]
    amps = np.abs(post.amplitudes[target_perfect])
    uniform_dev = float(np.max(np.abs(amps - 1.0 / math.sqrt(len(target_perfect)))))
    off_mass = float(1.0 - np.sum(amps**2))
    report.scalars["seed_perfect_probability"] = p_perfect
    report.scalars["min_chain_gap"] = min(c.gap for c in chains)
    report.scalars["final_fidelity"] = fid
    report.scalars["post_uniform_deviation"] = uniform_dev
    report.scalars["post_off_target_mass"] = off_mass
    report.flags["qsample_fidelity"] = fid >= cfg["target_fidelity"]


# kind -> the truth tables of C0 and C1 on 3 bits, and the decider's right answer
_SD_PAIRS = {"far": ([0, 1] * 4, [2, 3] * 4, "yes"), "close": ([0, 1, 2, 3] * 2, [0, 1, 2, 3] * 2, "no")}


def _run_szk_sd(cfg: dict, report: RunReport) -> None:
    _require(cfg, "kind", cfg["kind"] in _SD_PAIRS, "far or close")
    _require(cfg, "delta", 0 < cfg["delta"] < 1, "in (0, 1)")
    _require_trials(cfg, "trials")
    t0, t1, expected = _SD_PAIRS[cfg["kind"]]
    C0, C1 = szk.ClassicalCircuit(3, 3, t0), szk.ClassicalCircuit(3, 3, t1)
    delta, trials = cfg["delta"], cfg["trials"]
    rng = sub_rng(cfg["seed"], "szk-sd")
    v, w = szk.qsample_exact(C0), szk.qsample_exact(C1)
    errors = sum(szk.sd_decider(v, w, delta, rng) != expected for _ in range(trials))
    report.scalars["trials"] = trials
    report.scalars["errors"] = errors
    report.scalars["variation"] = szk.variation(
        szk.distribution_of(C0), szk.distribution_of(C1))
    report.flags["error_rate_within_delta"] = errors <= max(1, math.ceil(delta * trials))


def _run_szk_dlp(cfg: dict, report: RunReport) -> None:
    _require(cfg, "p", cfg["p"] >= 8, ">= 8, so that floor(log2 p) >= 3")
    _require_trials(cfg, "instances")
    p, g = cfg["p"], cfg["g"]
    rng = sub_rng(cfg["seed"], "szk-dlp")
    c = szk.DLP_PROMISE_FRACTION
    family = szk.dlp_family(p, g)
    logs = szk.dlp_logs(p, g)
    mismatches = 0
    for _ in range(cfg["instances"]):
        if rng.random() < 0.5:
            x = int(rng.integers(1, int(c * p) + 1))
        else:
            x = int(rng.integers(p // 2 + 1, p // 2 + int(c * p) + 1))
        y = pow(g, x, p)
        got = szk.dlp_decider(family, y, cfg["shots"], rng)
        want = szk.dlp_promise_holds(logs, y)
        if got != want:
            mismatches += 1
    report.scalars["instances"] = cfg["instances"]
    report.scalars["mismatches"] = mismatches
    report.flags["matches_referee"] = mismatches == 0


def _run_szk_qr(cfg: dict, report: RunReport) -> None:
    _require(cfg, "moduli", min(cfg["moduli"], default=0) >= 2, "a non-empty list of integers >= 2")
    rng = sub_rng(cfg["seed"], "szk-qr")
    mismatches = 0
    total = 0
    for nn in cfg["moduli"]:
        family = szk.qr_family(nn)
        for x in szk.units(nn):
            got = szk.qr_decider(family, x, cfg["shots"], rng)
            want = "residue" if szk.is_residue(x, nn) else "nonresidue"
            total += 1
            if got != want:
                mismatches += 1
    report.scalars["instances"] = total
    report.scalars["mismatches"] = mismatches
    report.flags["matches_referee"] = mismatches == 0


_CIRCUIT = dict(circuit="bell2", gate_file="", n=0, x="")  # a gate_file needs n; x is zero-padded

# command -> (runner, defaults).  The runner reads exactly these keys.  A key's
# type is its default's type; a list default's first item gives its items' type.
COMMANDS = {
    "decompose-check": (_run_decompose_check, dict(instances=50)),
    "trotter-sweep": (_run_trotter_sweep, dict(n=5, D=4, lam=1.0, t=1.0, start_steps=2, points=6, alpha=1e-3)),
    "gap-formula": (_run_gap_formula, dict(trials=100, dim=8)),
    "zeno-run": (_run_zeno_run, dict(_CIRCUIT, shots=10000, R_sweep=[250, 500, 1000, 2000])),
    # T = 0 derives T from the adiabatic condition
    "adiabatic-run": (_run_adiabatic_run, dict(_CIRCUIT, T=0.0, eps=0.05, delta=0.05, target_fidelity=0.9)),
    "compile-circuit": (_run_compile_circuit, dict(_CIRCUIT, grid=101, R=2000, target_fidelity=0.99)),
    "zen-bound": (_run_zen_bound, dict(trials=200, dim=8)),
    "markov-spectrum": (_run_markov_spectrum, dict(trials=50, max_states=33)),
    "matchings-qsample": (_run_matchings_qsample,
                          dict(n=2, removed_edge=[0, 0], steps=20, ratio=0.7, R=500, target_fidelity=0.99)),
    "szk-sd": (_run_szk_sd, dict(kind="far", delta=0.01, trials=100)),
    "szk-dlp": (_run_szk_dlp, dict(p=251, g=6, shots=4000, instances=25)),
    "szk-qr": (_run_szk_qr, dict(shots=4000, moduli=[15, 21, 33])),
}


def _fits(value, default) -> bool:
    """Whether `value` has the type of `default`; an int fits a float, a bool or a nan/inf fits nothing."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(item, default[0]) for item in value)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kind) and not isinstance(value, bool)


def resolve(config) -> dict:
    """The full config of a run: `config` checked against its command's keys, defaults filled in."""
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a dict, got {type(config).__name__}")
    command, seed = config.get("command"), config.get("seed")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    if not _fits(seed, 0):
        raise ConfigError(f"config must carry an integer seed, got {seed!r}")
    resolved = {"command": command, "seed": seed, **copy.deepcopy(COMMANDS[command][1])}
    for key, value in config.items():
        if key not in resolved:
            raise ConfigError(f"unknown key {key!r} for {command}; it takes {', '.join(resolved)}")
        if not _fits(value, resolved[key]):
            raise ConfigError(f"{key} must have the type of its default {resolved[key]!r}, got {value!r}")
        resolved[key] = float(value) if isinstance(resolved[key], float) else value
    return resolved


def run(config: dict) -> RunReport:
    report = RunReport(config=resolve(config))
    start = time.perf_counter()
    COMMANDS[report.config["command"]][0](report.config, report)
    report.elapsed_seconds = time.perf_counter() - start
    return report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)  # main reports it on one line with exit code 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adiagen", description="adiabatic state generation experiments")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        sub = subparsers.add_parser(name, argument_default=argparse.SUPPRESS)
        sub.add_argument("--config", help="JSON config file; its keys override flags")
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--series-dir", help="directory for series data files")
        for key, default in defaults.items():
            many = isinstance(default, list)
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key, nargs="+" if many else None,
                             type=type(default[0] if many else default), help=f"default: {default!r}")
    return parser


def main(argv=None) -> int:
    try:
        config = vars(_build_parser().parse_args(argv))
        series_dir, path = config.pop("series_dir", None), config.pop("config", None)
        if path:
            with open(path) as f:
                loaded = json.load(f)
            if not isinstance(loaded, dict):
                raise ConfigError(f"--config {path}: expected a JSON object, got {type(loaded).__name__}")
            config.update(loaded)
        report = run(config)
    except (NumericalError, MemoryError) as exc:  # a size numpy cannot allocate fails like a step budget
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    if series_dir:
        emit_series(report, series_dir)
    if not report.ok:
        print("failing invariants: " + ", ".join(report.failing()), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
