"""Reproducible experiment runner.

Every pipeline is a subcommand; a run is fully determined by its config and
master seed, and produces a structured text report (stdout) plus optional
column-data series files for plotting.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import adiabatic, markov, sparseham, szk
from .qcore import (
    DenseHermitian,
    StateVector,
    ground_state,
    matrix_exponential,
    random_sparse_hermitian,
    spectral_gap,
    spectral_norm,
    state_overlap,
)

COMMANDS = (
    "decompose-check", "trotter-sweep", "gap-formula", "zeno-run",
    "adiabatic-run", "compile-circuit", "zen-bound", "markov-spectrum",
    "matchings-qsample", "szk-sd", "szk-dlp", "szk-qr",
)


def subseed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sub_rng(master: int, label: str) -> np.random.Generator:
    return np.random.default_rng(subseed(master, label))


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


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
            v = self.scalars[k]
            lines.append(f"{k} = {v:.12g}" if isinstance(v, float) else f"{k} = {v}")
        lines.append("[flags]")
        for k in sorted(self.flags):
            lines.append(f"{k} = {'pass' if self.flags[k] else 'FAIL'}")
        for name, (columns, rows) in self.series.items():
            lines.append(f"[series {name}]")
            lines.append("# columns: " + " ".join(columns))
            for row in rows:
                lines.append(" ".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row))
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
                f.write(" ".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row) + "\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Experiments


def _run_decompose_check(cfg: dict, report: RunReport) -> None:
    rng = sub_rng(cfg["seed"], "decompose-instances")
    instances = cfg.get("instances", 50)
    worst_norm_excess = 0.0
    max_count_ratio = 0.0
    for trial in range(instances):
        n = int(rng.integers(3, 7))
        D = int(rng.integers(2, 7))
        H = random_sparse_hermitian(n, D, 1.0, int(rng.integers(1 << 31)))
        sh = sparseham.sparse_from_dense(H, D=D, lam=1.0)
        pieces = sparseham.decompose(sh)  # reconstruction + disjointness checked inside
        bound = (D + 1) ** 2 * n**6
        max_count_ratio = max(max_count_ratio, len(pieces) / bound)
        norm_h = spectral_norm(H)
        for p in pieces:
            worst_norm_excess = max(worst_norm_excess, p.norm() - norm_h)
    report.scalars["instances"] = instances
    report.scalars["max_piece_count_ratio"] = max_count_ratio
    report.scalars["worst_norm_excess"] = worst_norm_excess
    report.flags["piece_count_bound"] = max_count_ratio <= 1.0
    report.flags["norm_domination"] = worst_norm_excess <= 1e-12


def _loglog_slope(xs, ys) -> float:
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    return float(np.polyfit(lx, ly, 1)[0])


def _run_trotter_sweep(cfg: dict, report: RunReport) -> None:
    n, D, lam, t = cfg.get("n", 5), cfg.get("D", 4), cfg.get("lam", 1.0), cfg.get("t", 1.0)
    H = random_sparse_hermitian(n, D, lam, subseed(cfg["seed"], "trotter-instance"))
    sh = sparseham.sparse_from_dense(H, D=None, lam=lam)
    pieces = sparseham.decompose(sh)
    exact = matrix_exponential(H, t).entries
    rows = []
    deltas, errors = [], []
    steps = cfg.get("start_steps", 2)
    for _ in range(cfg.get("points", 6)):
        delta = t / (2 * steps)
        U = sparseham.trotter_unitary(pieces, delta, steps, H.dim)
        err = spectral_norm(U - exact)
        deltas.append(delta)
        errors.append(max(err, 1e-16))
        rows.append((delta, err))
        steps *= 2
    slope = _loglog_slope(deltas, errors)
    alpha = cfg.get("alpha", 1e-3)
    U = sparseham.simulate_sparse(sh, t, alpha)
    achieved = spectral_norm(U - exact)
    report.series["delta_sweep"] = (("delta", "measured_error"), rows)
    report.scalars["loglog_slope"] = slope
    report.scalars["requested_alpha"] = alpha
    report.scalars["achieved_error"] = achieved
    report.flags["slope_at_least_linear"] = slope >= 0.9
    report.flags["accuracy_met"] = achieved <= alpha


def _run_gap_formula(cfg: dict, report: RunReport) -> None:
    rng = sub_rng(cfg["seed"], "gap-formula")
    trials = cfg.get("trials", 100)
    dim = cfg.get("dim", 8)
    worst = 0.0
    worst_min = 0.0
    for _ in range(trials):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        alpha = StateVector.from_amplitudes(a, normalize=True)
        beta = StateVector.from_amplitudes(b, normalize=True)
        eta = float(rng.uniform(0.05, 0.95))
        H = DenseHermitian((1 - eta) * adiabatic.projector_hamiltonian(alpha).entries
                           + eta * adiabatic.projector_hamiltonian(beta).entries)
        got = spectral_gap(H)
        ov = abs(state_overlap(alpha, beta))
        want = adiabatic.two_projector_gap_formula(ov, eta)
        worst = max(worst, abs(got - want))
        worst_min = max(worst_min, abs(adiabatic.segment_min_gap(alpha, beta) - ov))
    report.scalars["worst_formula_deviation"] = worst
    report.flags["formula_exact"] = worst <= 1e-9
    report.flags["minimum_at_half"] = worst_min <= 1e-9


def _run_zen_bound(cfg: dict, report: RunReport) -> None:
    rng = sub_rng(cfg["seed"], "zen-bound")
    trials = cfg.get("trials", 200)
    dim = cfg.get("dim", 8)
    violations = 0
    worst_margin = math.inf
    for _ in range(trials):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = DenseHermitian((A + A.conj().T) / 2)
        P = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        P = (P + P.conj().T) / 2
        scale = float(rng.uniform(1e-4, 0.2)) / max(spectral_norm(P), 1e-12)
        J = DenseHermitian(H.entries + scale * P)
        try:
            lhs, rhs = adiabatic.groundstate_perturbation_bound(H, J)
        except Exception:
            continue  # degenerate draw; not a promise instance
        worst_margin = min(worst_margin, lhs - rhs)
        if lhs < rhs:
            violations += 1
    report.scalars["violations"] = violations
    report.scalars["worst_margin"] = worst_margin
    report.flags["inequality_holds"] = violations == 0


def _builtin_circuit(name: str) -> tuple[adiabatic.GateSequence, str]:
    if name == "bell2":
        gates = adiabatic.GateSequence(n=2, gates=(("H", (0,)), ("X", (1,))))
        return gates, "00"
    if name == "ghz3":
        gates = adiabatic.GateSequence(
            n=3, gates=(("H", (0,)), ("CCX", (0, 1, 2)), ("X", (1,))))
        return gates, "00"
    raise ValueError(f"unknown builtin circuit {name!r}")


def _load_circuit(cfg: dict) -> tuple[adiabatic.GateSequence, str]:
    if cfg.get("gate_file"):
        with open(cfg["gate_file"]) as f:
            gates = adiabatic.parse_gate_lines(cfg["n"], f.read())
        return gates, cfg.get("x", "0" * cfg["n"])
    return _builtin_circuit(cfg.get("circuit", "bell2"))


def _run_zeno_run(cfg: dict, report: RunReport) -> None:
    gates, x = _load_circuit(cfg)
    path = adiabatic.compile_circuit(gates, x)
    _, psi0 = ground_state(path.evaluate(0.0))
    shots = cfg.get("shots", 10000)
    rng = sub_rng(cfg["seed"], "zeno-mc")
    rows = []
    prev_fail = math.inf
    monotone = True
    for R in cfg.get("R_sweep", [250, 500, 1000, 2000]):
        rep = adiabatic.zeno_evolve(path, R, psi0)
        exact_fail = 1.0 - rep.success_probability
        mc = adiabatic.zeno_success_samples(rep.per_step_overlaps, shots, rng)
        mc_fail = 1.0 - mc / shots
        rows.append((R, exact_fail, mc_fail))
        if exact_fail > prev_fail + 1e-12:
            monotone = False
        prev_fail = exact_fail
    report.series["zeno_failure"] = (("R", "exact_failure", "mc_failure"), rows)
    report.flags["failure_monotone_nonincreasing"] = monotone


def _run_adiabatic_run(cfg: dict, report: RunReport) -> None:
    gates, x = _load_circuit(cfg)
    path = adiabatic.compile_circuit(gates, x)
    eps = cfg.get("eps", 0.05)
    cond = adiabatic.check_adiabatic_condition(path, adiabatic.Schedule(T=1.0, eps=eps))
    T = cfg.get("T", 0.0) or max(1.0, cond.max_ratio / eps)
    rep = adiabatic.evolve_discretized(
        path, adiabatic.Schedule(T=T, eps=eps), cfg.get("delta", 0.05),
        ground_state(path.evaluate(0.0))[1])
    report.scalars["T"] = T
    report.scalars["max_condition_ratio"] = cond.max_ratio
    report.scalars["final_fidelity_sq"] = rep.success_probability
    report.flags["condition_holds"] = T * eps >= cond.max_ratio
    report.flags["reached_target"] = rep.success_probability >= cfg.get("target_fidelity", 0.9)


def _run_compile_circuit(cfg: dict, report: RunReport) -> None:
    gates, x = _load_circuit(cfg)
    doubled = adiabatic.expand_sqrt(gates)
    states = adiabatic.circuit_states(doubled, x)
    overlaps = [abs(state_overlap(a, b)) for a, b in zip(states, states[1:])]
    path = adiabatic.jagged_path(states)
    gaps = [spectral_gap(path.evaluate(s)) for s in np.linspace(0, 1, cfg.get("grid", 101))]
    rep = adiabatic.zeno_evolve(path, cfg.get("R", 2000), states[0])
    target = adiabatic.simulate_circuit(gates, x)
    fid = abs(state_overlap(rep.final_state, target))
    inv_sqrt2 = 1 / math.sqrt(2)
    report.scalars["min_consecutive_overlap"] = min(overlaps) if overlaps else 1.0
    report.scalars["min_sampled_gap"] = min(gaps)
    report.scalars["zeno_fidelity"] = fid
    report.flags["overlaps_above_inv_sqrt2"] = all(o >= inv_sqrt2 - 1e-12 for o in overlaps)
    report.flags["gaps_above_inv_sqrt2"] = min(gaps) >= inv_sqrt2 - 1e-9
    report.flags["matches_circuit_output"] = fid >= cfg.get("target_fidelity", 0.99)


def _run_markov_spectrum(cfg: dict, report: RunReport) -> None:
    rng = sub_rng(cfg["seed"], "markov-spectrum")
    trials = cfg.get("trials", 50)
    worst_spec = worst_ground = 0.0
    for _ in range(trials):
        N = int(rng.integers(2, cfg.get("max_states", 33)))
        chain = _random_reversible_chain(N, rng)
        pi = markov.stationary(chain)
        H = markov.chain_hamiltonian(chain, pi)
        hvals = np.sort(np.linalg.eigvalsh(H.entries))
        mvals = np.sort(1.0 - np.linalg.eigvals(chain.transition).real)
        worst_spec = max(worst_spec, float(np.max(np.abs(hvals - mvals))))
        _, g = ground_state(H)
        worst_ground = max(worst_ground, float(np.max(np.abs(
            np.abs(g.amplitudes) - np.sqrt(pi.pi)))))
    report.scalars["worst_spectrum_deviation"] = worst_spec
    report.scalars["worst_groundstate_deviation"] = worst_ground
    report.flags["spectrum_correspondence"] = worst_spec <= 1e-9
    report.flags["groundstate_is_sqrt_pi"] = worst_ground <= 1e-8


def _random_reversible_chain(N: int, rng: np.random.Generator) -> markov.MarkovChain:
    """Metropolis chain on a random connected graph with random weights."""
    w = rng.uniform(0.2, 2.0, size=N)
    neighbors = [[] for _ in range(N)]
    for i in range(1, N):
        j = int(rng.integers(0, i))
        neighbors[i].append(j)
        neighbors[j].append(i)
    for _ in range(N):
        i, j = rng.integers(0, N, size=2)
        if i != j and int(j) not in neighbors[int(i)]:
            neighbors[int(i)].append(int(j))
            neighbors[int(j)].append(int(i))
    return markov.metropolis_chain(w, neighbors)


def _run_matchings_qsample(cfg: dict, report: RunReport) -> None:
    n = cfg.get("n", 2)
    removed = cfg.get("removed_edge", [0, 0])
    target = {(u, v) for u in range(n) for v in range(n)} - {tuple(removed)}
    seed_state, space = markov.matchings_seed_qsample(n)
    _, _, p_perfect = markov.project_perfect(seed_state, space)
    seq, space_t = markov.anneal_weights_sequence(
        n, target, cfg.get("steps", 20), cfg.get("ratio", 0.7))
    sv = markov.check_slowly_varying(seq)
    rep = markov.qsample_sequence(seq, seed_state, mode="zeno", R=cfg.get("R", 500))
    final_pi = markov.stationary(seq.chains[-1])
    target_state = markov.pi_state(final_pi)
    fid = abs(state_overlap(rep.final_state, target_state))
    _, post, _ = markov.project_perfect(rep.final_state, space_t)
    target_perfect = [i for i in space_t.perfect_indices()
                      if all(e in space_t.target_edges for e in space_t.states[i])]
    amps = np.abs(post.amplitudes[target_perfect])
    uniform_dev = float(np.max(np.abs(amps - 1.0 / math.sqrt(len(target_perfect)))))
    off_mass = float(1.0 - np.sum(amps**2))
    report.scalars["seed_perfect_probability"] = p_perfect
    report.scalars["final_fidelity"] = fid
    report.scalars["post_uniform_deviation"] = uniform_dev
    report.scalars["post_off_target_mass"] = off_mass
    report.flags["slowly_varying"] = sv.ok
    report.flags["qsample_fidelity"] = fid >= cfg.get("target_fidelity", 0.99)


def _run_szk_sd(cfg: dict, report: RunReport) -> None:
    kind = cfg.get("kind", "far")
    n = 3
    if kind == "far":
        C0 = szk.circuit_from_table(n, 3, [x % 2 for x in range(8)])
        C1 = szk.circuit_from_table(n, 3, [2 + x % 2 for x in range(8)])
        expected = "yes"
    else:
        C0 = szk.circuit_from_table(n, 3, [x % 4 for x in range(8)])
        C1 = szk.circuit_from_table(n, 3, [x % 4 for x in range(8)])
        expected = "no"
    delta = cfg.get("delta", 0.01)
    trials = cfg.get("trials", 100)
    rng = sub_rng(cfg["seed"], "szk-sd")
    errors = sum(szk.sd_decider(C0, C1, delta, rng) != expected for _ in range(trials))
    report.scalars["trials"] = trials
    report.scalars["errors"] = errors
    report.scalars["variation"] = szk.variation(
        szk.distribution_of(C0), szk.distribution_of(C1))
    report.flags["error_rate_within_delta"] = errors <= max(1, math.ceil(delta * trials))


def _run_szk_dlp(cfg: dict, report: RunReport) -> None:
    p, g = cfg.get("p", 251), cfg.get("g", 6)
    rng = sub_rng(cfg["seed"], "szk-dlp")
    shots = cfg.get("shots", 4000)
    instances = cfg.get("instances", 25)
    c = 1 / 6
    mismatches = 0
    for _ in range(instances):
        if rng.random() < 0.5:
            x = int(rng.integers(1, int(c * p) + 1))
        else:
            x = int(rng.integers(p // 2 + 1, p // 2 + int(c * p) + 1))
        y = pow(g, x, p)
        got = szk.dlp_decider(p, g, y, shots, rng)
        want = szk.dlp_promise_holds(p, g, y)
        if got != want:
            mismatches += 1
    report.scalars["instances"] = instances
    report.scalars["mismatches"] = mismatches
    report.flags["matches_referee"] = mismatches == 0


def _run_szk_qr(cfg: dict, report: RunReport) -> None:
    rng = sub_rng(cfg["seed"], "szk-qr")
    shots = cfg.get("shots", 4000)
    mismatches = 0
    total = 0
    for nn in cfg.get("moduli", [15, 21, 33]):
        for x in szk.units(nn):
            got = szk.qr_decider(nn, x, shots, rng)
            want = "residue" if szk.is_residue(x, nn) else "nonresidue"
            total += 1
            if got != want:
                mismatches += 1
    report.scalars["instances"] = total
    report.scalars["mismatches"] = mismatches
    report.flags["matches_referee"] = mismatches == 0


_DISPATCH = {
    "decompose-check": _run_decompose_check,
    "trotter-sweep": _run_trotter_sweep,
    "gap-formula": _run_gap_formula,
    "zeno-run": _run_zeno_run,
    "adiabatic-run": _run_adiabatic_run,
    "compile-circuit": _run_compile_circuit,
    "zen-bound": _run_zen_bound,
    "markov-spectrum": _run_markov_spectrum,
    "matchings-qsample": _run_matchings_qsample,
    "szk-sd": _run_szk_sd,
    "szk-dlp": _run_szk_dlp,
    "szk-qr": _run_szk_qr,
}


def run(config: dict) -> RunReport:
    command = config.get("command")
    if command not in _DISPATCH:
        raise ValueError(f"unknown command {command!r}")
    if not isinstance(config.get("seed"), int):
        raise ValueError("config must carry an integer seed")
    report = RunReport(config=dict(config))
    start = time.perf_counter()
    _DISPATCH[command](config, report)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiagen", description="adiabatic state generation experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; overrides flags")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--series-dir", help="directory for series data files")
    for name, typ in [
        ("n", int), ("D", int), ("lam", float), ("t", float), ("alpha", float),
        ("T", float), ("eps", float), ("delta", float), ("R", int),
        ("steps", int), ("ratio", float), ("shots", int), ("trials", int),
        ("instances", int), ("points", int), ("p", int), ("g", int),
        ("circuit", str), ("gate_file", str), ("x", str), ("kind", str),
        ("target-fidelity", float),
    ]:
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, dest=name.replace("-", "_"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {"command": args.command, "seed": args.seed}
    for key, value in vars(args).items():
        if key in ("command", "config", "series_dir") or value is None:
            continue
        config[key] = value
    if args.config:
        try:
            with open(args.config) as f:
                config.update(json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        report = run(config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    if args.series_dir:
        emit_series(report, args.series_dir)
    if not report.ok:
        print("failing invariants: " + ", ".join(report.failing()), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
