"""Experiment runner: determinism, report format, series files, exit codes."""
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adiagen import adiabatic, cli, sparseham
from adiagen.qcore import (
    DegenerateGroundstateError,
    DenseHermitian,
    StateVector,
    matrix_exponential,
    random_sparse_hermitian,
    spectral_gap,
    spectral_norm,
    state_overlap,
)
from dense_references import perturbation_bound_pair

SRC = Path(__file__).resolve().parents[1] / "src"


class TestSeeding:
    def test_subseed_deterministic_and_label_sensitive(self):
        assert cli.subseed(42, "a") == cli.subseed(42, "a")
        assert cli.subseed(42, "a") != cli.subseed(42, "b")
        assert cli.subseed(42, "a") != cli.subseed(43, "a")

    def test_config_hash_order_independent(self):
        assert cli.config_hash({"a": 1, "b": 2}) == cli.config_hash({"b": 2, "a": 1})

    def test_config_hash_counts_defaults(self):
        short = cli.run({"command": "gap-formula", "seed": 1})
        spelled = cli.run({"command": "gap-formula", "seed": 1, "trials": 100})
        assert cli.config_hash(short.config) == cli.config_hash(spelled.config)


class TestRun:
    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            cli.run({"command": "nope", "seed": 1})

    def test_missing_seed_rejected(self):
        with pytest.raises(ValueError):
            cli.run({"command": "gap-formula"})

    def test_gap_formula_passes(self):
        report = cli.run({"command": "gap-formula", "seed": 42, "trials": 20})
        assert report.ok
        assert report.scalars["worst_formula_deviation"] <= 1e-9

    def test_trotter_sweep_deterministic(self):
        cfg = {"command": "trotter-sweep", "seed": 42, "n": 3, "D": 3, "points": 4}
        a = cli.run(cfg).render()
        b = cli.run(cfg).render()
        a = "\n".join(ln for ln in a.splitlines() if not ln.startswith("elapsed"))
        b = "\n".join(ln for ln in b.splitlines() if not ln.startswith("elapsed"))
        assert a == b

    def test_zeno_run_failure_monotone(self):
        report = cli.run({"command": "zeno-run", "seed": 42, "circuit": "bell2",
                          "R_sweep": [50, 100, 200], "shots": 2000})
        assert report.flags["failure_monotone_nonincreasing"]
        rows = report.series["zeno_failure"][1]
        fails = [r[1] for r in rows]
        assert fails == sorted(fails, reverse=True)

    def test_matchings_reports_perfect_probability(self):
        report = cli.run({"command": "matchings-qsample", "seed": 42,
                          "n": 2, "steps": 10, "R": 200})
        assert report.scalars["seed_perfect_probability"] == pytest.approx(0.2, abs=1e-9)
        assert report.ok

    def test_szk_qr_matches_referee(self):
        report = cli.run({"command": "szk-qr", "seed": 42, "moduli": [15],
                          "shots": 2000})
        assert report.scalars["mismatches"] == 0


class TestReportFormat:
    def test_render_sections(self):
        report = cli.run({"command": "gap-formula", "seed": 1, "trials": 5})
        text = report.render()
        assert "config_hash: " in text
        assert "[config]" in text
        assert "[scalars]" in text
        assert "[flags]" in text

    def test_emit_series(self, tmp_path):
        report = cli.run({"command": "trotter-sweep", "seed": 7, "n": 3,
                          "D": 2, "points": 3})
        paths = cli.emit_series(report, tmp_path)
        assert len(paths) == 1
        lines = Path(paths[0]).read_text().splitlines()
        assert lines[0] == f"# config_hash: {cli.config_hash(report.config)}"
        assert lines[1].startswith("# columns: delta measured_error")
        assert len(lines) == 2 + 3

    def test_empty_series_header_only(self, tmp_path):
        report = cli.RunReport(config={"command": "x", "seed": 0})
        report.series["empty"] = (("a", "b"), [])
        paths = cli.emit_series(report, tmp_path)
        lines = Path(paths[0]).read_text().splitlines()
        assert len(lines) == 2


class TestMain:
    def test_success_exit_code(self, capsys):
        rc = cli.main(["gap-formula", "--seed", "42", "--trials", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "formula_exact = pass" in out

    def test_failing_invariant_exit_code(self, capsys):
        # A fidelity target that a fast schedule misses trips a flag, not a config error.
        rc = cli.main(["adiabatic-run", "--seed", "42", "--circuit", "bell2",
                       "--T", "0.5", "--delta", "0.1", "--target-fidelity", "1.0"])
        assert rc == 1
        assert "failing invariants" in capsys.readouterr().err

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        rc = cli.main(["gap-formula", "--config", str(bad)])
        assert rc == 2

    def test_bad_command_value_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "nope"}))
        rc = cli.main(["gap-formula", "--config", str(cfg)])
        assert rc == 2

    def test_series_dir_written(self, tmp_path, capsys):
        rc = cli.main(["trotter-sweep", "--seed", "42", "--n", "3", "--D", "2",
                       "--points", "3", "--series-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "delta_sweep.dat").exists()


def _degenerate(*_args):
    raise DegenerateGroundstateError("groundstate degenerate: gap 0.000e+00")


# name -> (argv, JSON written to cfg.json and passed as --config, patch, exit code, text stderr names)
REJECTED = {
    "typo-key": (["zeno-run"], {"R_sweeep": [50]}, None, 2, "R_sweeep"),
    "other-commands-flags": (["gap-formula", "--alpha", "5", "--kind", "bogus"], None, None, 2, "--alpha"),
    "nan": (["adiabatic-run", "--eps", "nan"], None, None, 2, "eps"),
    "inf": (["adiabatic-run", "--eps", "inf"], None, None, 2, "eps"),
    "gate-file-without-n": (["compile-circuit", "--gate-file", "gates.txt"], None, None, 2, "gate_file"),
    "missing-gate-file": (["compile-circuit", "--gate-file", "missing.txt", "--n", "2"], None, None, 2,
                          "missing.txt"),
    "gate-file-n-40": (["compile-circuit", "--gate-file", "gates.txt", "--n", "40"], None, None, 2,
                       "n must be in [1, 12] with a gate_file, got 40"),
    "zeno-gate-file-n-13": (["zeno-run", "--gate-file", "gates.txt", "--n", "13"], None, None, 2,
                            "n must be in [1, 12]"),
    "adiabatic-gate-file-n-negative": (["adiabatic-run", "--gate-file", "gates.txt", "--n", "-1"], None, None, 2,
                                       "n must be in [1, 12]"),
    "wrong-type": (["gap-formula"], {"trials": "ten"}, None, 2, "trials"),
    "list-config": (["gap-formula"], [1, 2], None, 2, "--config"),
    "zen-bound-dim-1": (["zen-bound"], {"dim": 1}, None, 2, "dim"),
    "numerical-error": (["gap-formula"], None, ("spectral_gap", _degenerate), 3, "DegenerateGroundstateError"),
    "szk-sd-unknown-kind": (["szk-sd", "--kind", "bogus"], None, None, 2, "kind"),
    "szk-sd-delta-0": (["szk-sd", "--delta", "0"], None, None, 2, "delta"),
    "trotter-start-steps-0": (["trotter-sweep", "--start-steps", "0"], None, None, 2, "start_steps"),
    "trotter-points-0": (["trotter-sweep", "--points", "0"], None, None, 2, "points"),
    "trotter-points-1": (["trotter-sweep", "--points", "1"], None, None, 2, "points"),
    "trotter-points-past-the-budget": (["trotter-sweep", "--n", "1", "--D", "1", "--points", "1100"], None, None, 2,
                                       "points"),
    "trotter-t-0": (["trotter-sweep", "--t", "0"], None, None, 2, "t must be positive"),
    "trotter-t-negative": (["trotter-sweep", "--t", "-1"], None, None, 2, "t must be positive"),
    "trotter-n-13": (["trotter-sweep", "--n", "13"], None, None, 2, "n must be in [1, 12]"),
    # delta * lam <= 1/4 needs about 2^100 steps, over MAX_TROTTER_STEPS = 2^20
    "trotter-lam-1e30": (["trotter-sweep", "--lam", "1e30"], None, None, 3, "StepBudgetError: the sweep would start"),
    # trotter_within's seed step count, past 2^20 by far, from a lam^3 past the float range
    "trotter-seed-past-the-budget": (["trotter-sweep", "--n", "2", "--lam", "1e110", "--t", "1e-106"], None, None, 3,
                                     "StepBudgetError: step budget"),
    "zeno-shots-0": (["zeno-run", "--shots", "0"], None, None, 2, "shots"),
    "adiabatic-delta-0": (["adiabatic-run", "--delta", "0"], None, None, 2, "delta"),
    "adiabatic-T-negative": (["adiabatic-run", "--T", "-1"], None, None, 2, "T must be >= 0"),
    "removed-edge-one-vertex": (["matchings-qsample", "--removed-edge", "0"], None, None, 2, "removed_edge"),
    "removed-edge-outside": (["matchings-qsample", "--removed-edge", "9", "9"], None, None, 2, "removed_edge"),
    "compile-grid-0": (["compile-circuit", "--grid", "0"], None, None, 2, "grid"),
    "compile-R-0": (["compile-circuit", "--R", "0"], None, None, 2, "R must be >= 1, got 0"),
    "zeno-R-sweep-0": (["zeno-run", "--R-sweep", "250", "0"], None, None, 2, "R_sweep must be"),
    "zeno-R-sweep-empty": (["zeno-run"], {"R_sweep": []}, None, 2, "R_sweep must be"),
    "qsample-R-0": (["matchings-qsample", "--R", "0"], None, None, 2, "R must be >= 1, got 0"),
    "qsample-steps-negative": (["matchings-qsample", "--steps", "-1"], None, None, 2, "steps must be"),
    "adiabatic-eps-0": (["adiabatic-run", "--eps", "0"], None, None, 2, "eps must be positive, got 0.0"),
    "markov-max-states-2": (["markov-spectrum", "--max-states", "2"], None, None, 2, "max_states"),
    # N = 4107 would pass the draw and fail only at the chain Hamiltonian, after seconds of work
    "markov-max-states-4200": (["markov-spectrum", "--max-states", "4200", "--trials", "1", "--seed", "8"], None,
                               None, 2, "max_states must be in [3, 4097], got 4200"),
    "qsample-n-0": (["matchings-qsample", "--n", "0"], None, None, 2, "n must be in [1, 4], got 0"),
    "qsample-n-5": (["matchings-qsample", "--n", "5"], None, None, 2, "n must be in [1, 4], got 5"),
    "trotter-D-0": (["trotter-sweep", "--D", "0"], None, None, 2, "D must be >= 1, got 0"),
    "trotter-lam-0": (["trotter-sweep", "--lam", "0"], None, None, 2, "lam must be positive, got 0.0"),
    "szk-dlp-p-4": (["szk-dlp", "--p", "4"], None, None, 2, "p must be"),
    "szk-dlp-p-7": (["szk-dlp", "--p", "7"], None, None, 2, "p must be"),
    "szk-dlp-composite-p": (["szk-dlp", "--p", "9", "--g", "2"], None, None, 2, "p must be prime"),
    "szk-dlp-g-not-generator": (["szk-dlp", "--p", "4099", "--g", "4"], None, None, 2, "g must generate"),
    "decompose-instances-0": (["decompose-check", "--instances", "0"], None, None, 2, "instances"),
    "gap-formula-trials-0": (["gap-formula", "--trials", "0"], None, None, 2, "trials"),
    "zen-bound-trials-0": (["zen-bound", "--trials", "0"], None, None, 2, "trials"),
    "markov-trials-0": (["markov-spectrum", "--trials", "0"], None, None, 2, "trials"),
    "szk-sd-trials-0": (["szk-sd", "--trials", "0"], None, None, 2, "trials"),
    "szk-dlp-instances-0": (["szk-dlp", "--instances", "0"], None, None, 2, "instances"),
    "szk-qr-modulus-1": (["szk-qr", "--moduli", "15", "1"], None, None, 2, "moduli"),
    "szk-qr-no-moduli": (["szk-qr"], {"moduli": []}, None, 2, "moduli"),
    "adiabatic-fidelity-2": (["adiabatic-run", "--target-fidelity", "2.0"], None, None, 2, "target_fidelity"),
    "compile-fidelity-negative": (["compile-circuit", "--target-fidelity", "-0.5"], None, None, 2,
                                  "target_fidelity"),
    "qsample-fidelity-2": (["matchings-qsample", "--target-fidelity", "2"], None, None, 2, "target_fidelity"),
    # sizes whose arrays (over 700 TiB) numpy refuses before anything is allocated
    "oversized-compile-R": (["compile-circuit", "--R", "100000000000000"], None, None, 3, "Unable to allocate"),
    "oversized-compile-grid": (["compile-circuit", "--grid", "100000000000000"], None, None, 3, "Unable to allocate"),
    "oversized-zeno-R-sweep": (["zeno-run", "--R-sweep", "100000000000000"], None, None, 3, "Unable to allocate"),
    "oversized-qsample-R": (["matchings-qsample", "--R", "100000000000000"], None, None, 3, "Unable to allocate"),
    "oversized-adiabatic-delta": (["adiabatic-run", "--delta", "1e-12"], None, None, 3, "Unable to allocate"),
}


@pytest.mark.parametrize("argv, config, patch, code, named", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_run_exits_with_one_line(argv, config, patch, code, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gates.txt").write_text("H 0\n")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    if patch:
        monkeypatch.setattr(cli, *patch)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and named in err and "Traceback" not in err


# command -> its per-trial loop count
TRIAL_COUNTS = {"decompose-check": "instances", "gap-formula": "trials", "zen-bound": "trials", "zeno-run": "shots",
                "markov-spectrum": "trials", "szk-sd": "trials", "szk-dlp": "instances"}


@pytest.mark.parametrize("command, key", TRIAL_COUNTS.items(), ids=TRIAL_COUNTS.keys())
def test_trial_count_above_the_budget_rejected(command, key, monkeypatch, capsys):
    """Checked against a budget of 3, so that a missing check runs 4 trials rather than 10^14."""
    monkeypatch.setattr(cli, "_MAX_TRIALS", 3)
    assert cli.main([command, f"--{key}", "4", "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be in [1, 3], got 4\n"
    assert cli.main([command, f"--{key}", "3", "--seed", "1"]) == 0


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_passes_at_its_defaults(command, capsys):
    assert cli.main([command, "--seed", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_gap_formula_minimum_flag_checks_the_dense_gaps(monkeypatch):
    # Gaps of 0 break the lemma that every segment gap is at least |<a|b>|.
    monkeypatch.setattr(cli, "spectral_gap", lambda H: 0.0)
    report = cli.run({"command": "gap-formula", "seed": 1, "trials": 5})
    assert not report.flags["minimum_at_half"]


def parent_gap_formula(seed: int, trials: int, dim: int = 8):
    """gap-formula before its trials ran in stacks: one DenseHermitian and one eigvalsh per trial."""
    rng = cli.sub_rng(seed, "gap-formula")
    worst = worst_below_overlap = 0.0
    for _ in range(trials):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        alpha = StateVector.from_amplitudes(a)
        beta = StateVector.from_amplitudes(b)
        eta = float(rng.uniform(0.05, 0.95))
        H = DenseHermitian((1 - eta) * adiabatic.projector_hamiltonian(alpha).entries
                           + eta * adiabatic.projector_hamiltonian(beta).entries)
        got = spectral_gap(H)
        ov = abs(state_overlap(alpha, beta))
        worst = max(worst, abs(got - adiabatic.two_projector_gap_formula(ov, eta)))
        worst_below_overlap = max(worst_below_overlap, ov - got)
    return ({"worst_formula_deviation": worst},
            {"formula_exact": worst <= 1e-9, "minimum_at_half": worst_below_overlap <= 1e-9})


def parent_zen_bound(seed: int, trials: int, dim: int = 8):
    """zen-bound before its trials ran in stacks: two eigh and two SVD norms per trial."""
    rng = cli.sub_rng(seed, "zen-bound")
    violations, worst_margin = 0, math.inf
    for _ in range(trials):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = DenseHermitian((A + A.conj().T) / 2)
        P = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        P = (P + P.conj().T) / 2
        scale = float(rng.uniform(1e-4, 0.2)) / max(float(np.linalg.norm(P, 2)), 1e-12)
        J = DenseHermitian(H.entries + scale * P)
        try:
            lhs, rhs = perturbation_bound_pair(H, J)
        except DegenerateGroundstateError:
            continue
        worst_margin = min(worst_margin, lhs - rhs)
        violations += lhs < rhs
    return {"violations": violations, "worst_margin": worst_margin}, {"inequality_holds": violations == 0}


PARENT_LOOPS = {"gap-formula": parent_gap_formula, "zen-bound": parent_zen_bound}


class TestStackedTrials:
    @pytest.mark.parametrize("trials", [1, 99, 100, 101, 1000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("command", PARENT_LOOPS)
    def test_replay_matches_the_per_trial_loop(self, command, seed, trials):
        report = cli.run({"command": command, "seed": seed, "trials": trials})
        scalars, flags = PARENT_LOOPS[command](seed, trials)
        assert report.flags == flags
        assert report.scalars.keys() == scalars.keys()
        for key, want in scalars.items():
            assert abs(report.scalars[key] - want) <= 1e-12, key

    def test_zen_bound_eigh_per_stack(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        assert cli.run({"command": "zen-bound", "seed": 1, "trials": 1000}).ok
        assert len(shapes) <= 20 and max(shape[0] for shape in shapes) <= 100

    @pytest.mark.parametrize("command", PARENT_LOOPS)
    def test_large_dim_runs_smaller_stacks(self, command, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        assert cli.run({"command": command, "seed": 1, "trials": 3, "dim": 64}).ok
        assert {shape[:-2] for shape in shapes} == {(1,)}


def test_decompose_check_norm_is_the_rescaled_lam(monkeypatch):
    """The runner compares pieces with lam, which is ||H|| because random_sparse_hermitian rescaled H to it."""
    drawn = []
    draw = cli.random_sparse_hermitian
    monkeypatch.setattr(cli, "random_sparse_hermitian",
                        lambda n, D, lam, seed: drawn.append((draw(n, D, lam, seed), lam)) or drawn[-1][0])
    monkeypatch.setattr(cli, "spectral_norm", None)  # no second norm per instance
    assert cli.run({"command": "decompose-check", "seed": 1, "instances": 250}).ok
    assert len(drawn) == 250
    assert max(abs(spectral_norm(H) - lam) for H, lam in drawn) <= 1e-12


def test_decompose_check_flags_a_piece_above_the_norm(monkeypatch):
    decompose = sparseham.decompose

    def inflated(sh):  # the last piece, of 2x2 blocks, its complex values scaled to norm 1 + 1e-6 > ||H|| = lam = 1
        pieces = decompose(sh)
        last = slice(pieces.cuts[-2], None)
        assert last.start >= pieces.diagonal
        v = pieces.v.copy()
        v[last] = v[last] / np.max(np.abs(v[last])) * (1 + 1e-6)
        return replace(pieces, v=v)

    monkeypatch.setattr(sparseham, "decompose", inflated)
    report = cli.run({"command": "decompose-check", "seed": 1, "instances": 3})
    assert report.scalars["worst_norm_excess"] == pytest.approx(1e-6, abs=1e-12)
    assert report.failing() == ["norm_domination"]


def test_adiabatic_run_checks_the_condition_once(monkeypatch):
    calls = []
    check = adiabatic.check_adiabatic_condition
    monkeypatch.setattr(adiabatic, "check_adiabatic_condition",
                        lambda *args, **kwargs: calls.append(args) or check(*args, **kwargs))
    assert cli.run({"command": "adiabatic-run", "seed": 1}).ok
    assert len(calls) == 1


@pytest.mark.parametrize("circuit", ["bell2", "schrodinger7"])
def test_derived_T_meets_the_condition_at_every_eps(circuit, tmp_path):
    """T = max_ratio / eps can round to a T with T * eps < max_ratio (about 3% of eps: 0.01 on bell2,
    0.0781 on schrodinger7); the derived T is the first float at or above the quotient that passes."""
    cfg = {"command": "adiabatic-run", "seed": 1, "delta": 1.0}  # a coarse evolution: only T is checked
    if circuit == "schrodinger7":
        (tmp_path / "gates.txt").write_text("H 0\nCCX 0 1 6\n")
        cfg.update(gate_file=str(tmp_path / "gates.txt"), n=7)
    else:
        cfg["circuit"] = circuit
    for eps in [0.01, 0.0781, *np.round(np.arange(0.001, 0.2, 0.0005), 4).tolist()]:
        report = cli.run({**cfg, "eps": eps})
        T, ratio = report.scalars["T"], report.scalars["max_condition_ratio"]
        assert report.flags["condition_holds"] and T * eps >= ratio, eps
        assert T == max(1.0, ratio / eps) or math.nextafter(T, 0) * eps < ratio, eps


def test_given_T_is_kept():
    report = cli.run({"command": "adiabatic-run", "seed": 1, "circuit": "bell2", "T": 30.0, "eps": 0.0781})
    assert report.scalars["T"] == 30.0


def test_adiabatic_run_reports_where_the_condition_is_tightest():
    report = cli.run({"command": "adiabatic-run", "seed": 1, "circuit": "ghz3"})
    grid = np.linspace(1e-5, 1 - 1e-5, adiabatic.CONDITION_GRID).tolist()
    assert report.scalars["worst_condition_s"] in grid


def test_module_entry_point_runs_once_without_warnings():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "adiagen.cli",
                           "zen-bound", "--trials", "1", "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.count("# adiagen run report") == 1


def parent_trotter_sweep(seed: int, n: int, D: int = 4, lam: float = 1.0, t: float = 1.0,
                         start_steps: int = 2, points: int = 6, alpha: float = 1e-3):
    """trotter-sweep's (loglog_slope, achieved_error) when simulate_sparse decomposed and exponentiated H again."""
    H = random_sparse_hermitian(n, D, lam, cli.subseed(seed, "trotter-instance"))
    sh = sparseham.sparse_from_dense(H, D=None, lam=lam)
    pieces = sparseham.decompose(sh)
    exact = matrix_exponential(H, t).entries
    rows = []
    for k in range(points):
        steps = start_steps << k
        U = sparseham.trotter_unitary(pieces, t / (2 * steps), steps, H.dim)
        rows.append((t / (2 * steps), spectral_norm(U - exact)))
    slope = float(np.polyfit(np.log([d for d, _ in rows]), np.log([max(e, 1e-16) for _, e in rows]), 1)[0])
    return slope, spectral_norm(sparseham.simulate_sparse(sh, t, alpha) - exact)


class TestTrotterSweepFixedWork:
    def test_decompose_and_exponential_once_per_run(self, monkeypatch):
        calls = Counter()
        for owner, name in ((sparseham, "decompose"), (cli, "matrix_exponential"),
                            (sparseham, "matrix_exponential"), (sparseham.SparseHamiltonian, "materialize")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, _name=name, _f=original: calls.update([_name]) or _f(*args))
        assert cli.run({"command": "trotter-sweep", "seed": 1, "n": 7}).ok
        assert calls == {"decompose": 1, "matrix_exponential": 1}  # the dense H is drawn, never materialized

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 7])
    def test_same_scalars_as_the_parent_route(self, n, seed):
        report = cli.run({"command": "trotter-sweep", "seed": seed, "n": n})
        assert (report.scalars["loglog_slope"], report.scalars["achieved_error"]) == parent_trotter_sweep(seed, n)

    def test_exhausted_step_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(sparseham, "MAX_TROTTER_STEPS", 4)
        sh = sparseham.sparse_from_dense(random_sparse_hermitian(3, 2, 1.0, seed=1))
        with pytest.raises(sparseham.StepBudgetError):
            sparseham.simulate_sparse(sh, 1.0, 1e-6)
        # 2 points keep the sweep itself (2 and 4 steps) within the budget of 4
        assert cli.main(["trotter-sweep", "--n", "3", "--D", "2", "--alpha", "1e-6", "--points", "2"]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "StepBudgetError" in err


class TestTrotterSlopeFlag:
    @pytest.mark.parametrize("n", [1, 5])
    def test_exact_product_passes(self, n):
        """At D = 1 the pieces commute, so every error is round-off and the fitted slope is noise."""
        report = cli.run({"command": "trotter-sweep", "seed": 42, "n": n, "D": 1})
        assert max(e for _, e in report.series["delta_sweep"][1]) < 1e-13
        assert cli.main(["trotter-sweep", "--n", str(n), "--D", "1"]) == 0

    @pytest.mark.parametrize("t, lam, first_delta", [(50.0, 1.0, 50 / 256), (1.0, 3.0, 1 / 16), (1.0, 1.0, 1 / 4)])
    def test_sweep_starts_at_delta_lam_at_most_a_quarter(self, t, lam, first_delta):
        """The default start_steps = 2 is doubled until delta * lam <= 1/4.  At t = 50 it starts at 128
        steps; a sweep from 2 steps read 4 of its 6 errors near 2.0, a slope of 0.34, and exited 1."""
        report = cli.run({"command": "trotter-sweep", "seed": 1, "t": t, "lam": lam})
        assert report.series["delta_sweep"][1][0][0] == first_delta
        assert 1.9 <= report.scalars["loglog_slope"] <= 2.1 and report.ok

    def test_slow_decay_above_roundoff_fails(self, monkeypatch):
        unitary = sparseham.trotter_unitary
        monkeypatch.setattr(sparseham, "trotter_unitary", lambda pieces, delta, steps, N: (
            unitary(pieces, delta, steps, N) + 0.1 * math.sqrt(delta) * np.eye(N)))
        report = cli.run({"command": "trotter-sweep", "seed": 1})
        assert min(e for _, e in report.series["delta_sweep"][1]) > 1e-3
        assert report.scalars["loglog_slope"] < 0.9 and not report.flags["slope_at_least_linear"]


def test_markov_spectrum_makes_no_eigh_call(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", None)
    report = cli.run({"command": "markov-spectrum", "seed": 1, "trials": 50})
    assert report.ok


def test_matchings_qsample_takes_one_eigvalsh_per_chain(monkeypatch):
    calls = []
    for op in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, op, lambda *a, _op=op, _f=getattr(np.linalg, op), **k:
                            calls.append((_op, np.shape(a[0]))) or _f(*a, **k))
    report = cli.run({"command": "matchings-qsample", "seed": 1, "n": 4})
    assert report.ok
    assert calls == [("eigvalsh", (120, 120))] * 21  # the default anneal: steps + 1 chains of 120 states
