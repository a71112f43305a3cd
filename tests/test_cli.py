"""Experiment runner: determinism, report format, series files, exit codes."""
import json

import pytest

from adiagen import cli
from adiagen.qcore import DegenerateGroundstateError


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
        assert report.flags["slowly_varying"]

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
        lines = open(paths[0]).read().splitlines()
        assert lines[0] == f"# config_hash: {cli.config_hash(report.config)}"
        assert lines[1].startswith("# columns: delta measured_error")
        assert len(lines) == 2 + 3

    def test_empty_series_header_only(self, tmp_path):
        report = cli.RunReport(config={"command": "x", "seed": 0})
        report.series["empty"] = (("a", "b"), [])
        paths = cli.emit_series(report, tmp_path)
        lines = open(paths[0]).read().splitlines()
        assert len(lines) == 2


class TestMain:
    def test_success_exit_code(self, capsys):
        rc = cli.main(["gap-formula", "--seed", "42", "--trials", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "formula_exact = pass" in out

    def test_failing_invariant_exit_code(self, capsys):
        # An unreachable fidelity target trips a flag, not a config error.
        rc = cli.main(["adiabatic-run", "--seed", "42", "--circuit", "bell2",
                       "--T", "0.5", "--delta", "0.1", "--target-fidelity", "1.1"])
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
    "wrong-type": (["gap-formula"], {"trials": "ten"}, None, 2, "trials"),
    "list-config": (["gap-formula"], [1, 2], None, 2, "--config"),
    "zen-bound-dim-1": (["zen-bound"], {"dim": 1}, None, 2, "dim"),
    "numerical-error": (["gap-formula"], None, ("spectral_gap", _degenerate), 3, "DegenerateGroundstateError"),
    "szk-sd-unknown-kind": (["szk-sd", "--kind", "bogus"], None, None, 2, "kind"),
    "szk-sd-delta-0": (["szk-sd", "--delta", "0"], None, None, 2, "delta"),
    "trotter-start-steps-0": (["trotter-sweep", "--start-steps", "0"], None, None, 2, "start_steps"),
    "trotter-points-0": (["trotter-sweep", "--points", "0"], None, None, 2, "points"),
    "trotter-points-1": (["trotter-sweep", "--points", "1"], None, None, 2, "points"),
    "zeno-shots-0": (["zeno-run", "--shots", "0"], None, None, 2, "shots"),
    "adiabatic-delta-0": (["adiabatic-run", "--delta", "0"], None, None, 2, "delta"),
    "removed-edge-one-vertex": (["matchings-qsample", "--removed-edge", "0"], None, None, 2, "removed_edge"),
    "removed-edge-outside": (["matchings-qsample", "--removed-edge", "9", "9"], None, None, 2, "removed_edge"),
    "compile-grid-0": (["compile-circuit", "--grid", "0"], None, None, 2, "grid"),
    "markov-max-states-2": (["markov-spectrum", "--max-states", "2"], None, None, 2, "max_states"),
    "szk-dlp-p-4": (["szk-dlp", "--p", "4"], None, None, 2, "p must be"),
    "szk-dlp-p-7": (["szk-dlp", "--p", "7"], None, None, 2, "p must be"),
    "decompose-instances-0": (["decompose-check", "--instances", "0"], None, None, 2, "instances"),
    "gap-formula-trials-0": (["gap-formula", "--trials", "0"], None, None, 2, "trials"),
    "zen-bound-trials-0": (["zen-bound", "--trials", "0"], None, None, 2, "trials"),
    "markov-trials-0": (["markov-spectrum", "--trials", "0"], None, None, 2, "trials"),
    "szk-sd-trials-0": (["szk-sd", "--trials", "0"], None, None, 2, "trials"),
    "szk-dlp-instances-0": (["szk-dlp", "--instances", "0"], None, None, 2, "instances"),
    "szk-qr-modulus-1": (["szk-qr", "--moduli", "15", "1"], None, None, 2, "moduli"),
    "szk-qr-no-moduli": (["szk-qr"], {"moduli": []}, None, 2, "moduli"),
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


def test_gap_formula_minimum_flag_checks_the_dense_gaps(monkeypatch):
    # Gaps of 0 break the lemma that every segment gap is at least |<a|b>|.
    monkeypatch.setattr(cli, "spectral_gap", lambda H: 0.0)
    report = cli.run({"command": "gap-formula", "seed": 1, "trials": 5})
    assert not report.flags["minimum_at_half"]
