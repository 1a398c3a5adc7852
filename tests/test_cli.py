"""Tests for configs, CSV serialization, experiment drivers, and the CLI."""

import csv
import math
import subprocess
import sys
from dataclasses import fields

import pytest

from dagbroadcast import grid as grid_mod
from dagbroadcast.model import LayerSchedule
from dagbroadcast.sigma import exact_chain, tv
from dagbroadcast.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    _fields_of_text,
    main,
    rows_to_csv,
    run,
    threshold_bisect,
)


def _sweep_file_error(text, tmp_path, capsys) -> str:
    """Run ``sweep --config`` on a file holding ``text``; expect one error line and exit 2."""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and "Traceback" not in err
    return err


class TestExperimentConfig:
    def test_text_round_trip(self):
        cfg = ExperimentConfig(
            model="grid-xor",
            delta_start=0.1,
            delta_stop=0.3,
            delta_count=5,
            depth=8,
            trials=100,
            seed=7,
        )
        text = "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))
        assert ExperimentConfig(**_fields_of_text(text)) == cfg

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        out = tmp_path / "rows.csv"
        path.write_text("model=bounds\ndepth=5\n# a comment\n\ndelta_start=0.3\ndelta_stop=0.3\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert {r["model"] for r in recs} == {"bounds"}
        assert sorted(int(r["k"]) for r in recs) == list(range(6))

    def test_unknown_field_rejected(self, tmp_path, capsys):
        assert "unknown field 'wibble'" in _sweep_file_error("wibble=3\n", tmp_path, capsys)

    def test_bad_value_rejected(self, tmp_path, capsys):
        assert "field depth:" in _sweep_file_error("depth=three\n", tmp_path, capsys)

    def test_missing_equals_rejected(self, tmp_path, capsys):
        assert "key=value" in _sweep_file_error("model grid-xor\n", tmp_path, capsys)

    def test_validation(self):
        with pytest.raises(ConfigError, match="model"):
            ExperimentConfig(model="nope").validate()
        with pytest.raises(ConfigError, match="delta_start"):
            ExperimentConfig(delta_start=0.6).validate()
        with pytest.raises(ConfigError, match="schedule"):
            ExperimentConfig(schedule="weird:1").validate()
        with pytest.raises(ConfigError, match="depth"):
            ExperimentConfig(depth=0).validate()

    def test_percolation_allows_large_p(self):
        ExperimentConfig(model="percolation", delta_start=0.8, delta_stop=0.8, trials=1).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(model="percolation", delta_start=1.2, delta_stop=1.2, trials=1).validate()

    def test_delta_grid(self):
        cfg = ExperimentConfig(delta_start=0.1, delta_stop=0.2, delta_count=3)
        assert list(cfg.deltas()) == pytest.approx([0.1, 0.15, 0.2])
        single = ExperimentConfig(delta_start=0.1, delta_stop=0.4, delta_count=1)
        assert list(single.deltas()) == [0.1]


class TestResultRow:
    def test_metric_validated(self):
        with pytest.raises(ValueError, match="metric"):
            ResultRow("bounds", 0.1, 1, 1, "nonsense", 0.5, 0.4, 0.6, 0, 0)

    def test_ci_must_bracket(self):
        with pytest.raises(ValueError, match="confidence"):
            ResultRow("bounds", 0.1, 1, 1, "bound_value", 0.5, 0.6, 0.7, 0, 0)


class TestCsv:
    def rows(self):
        return [
            ResultRow("bounds", 0.2, 2, 4, "bound_value", 0.5, 0.5, 0.5, 1, 0),
            ResultRow("bounds", 0.1, 1, 4, "bound_value", 0.7, 0.7, 0.7, 1, 0),
            ResultRow("bounds", 0.1, 1, 4, "tv_exact", 0.2, 0.2, 0.2, 1, 0),
        ]

    def test_sorted_and_headered(self):
        text = rows_to_csv(self.rows())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0.1", "0.1", "0.2"]
        assert [ln.split(",")[4] for ln in lines[1:3]] == ["bound_value", "tv_exact"]

    def test_order_independent_bytes(self):
        rows = self.rows()
        assert rows_to_csv(rows) == rows_to_csv(list(reversed(rows)))

    def test_lf_only(self):
        assert "\r" not in rows_to_csv(self.rows())


class TestRunDrivers:
    def test_dag_model_rows(self):
        cfg = ExperimentConfig(
            model="random-dag-maj3", delta_start=0.3, delta_stop=0.3, depth=10, schedule="const:16"
        )
        rows, summary = run(cfg)
        metrics = {r.metric for r in rows}
        assert metrics == {"tv_exact", "ml_error", "mi_bits"}
        assert len(rows) == 30
        assert "depth 10" in summary

    def test_andor2_reports_even_levels_only(self):
        cfg = ExperimentConfig(
            model="random-dag-andor2", delta_start=0.12, delta_stop=0.12, depth=9, schedule="const:8"
        )
        rows, _ = run(cfg)
        assert {r.k for r in rows} == {2, 4, 6, 8}

    def test_grid_model_with_mc(self):
        cfg = ExperimentConfig(
            model="grid-and", delta_start=0.25, delta_stop=0.25, depth=5, trials=500
        )
        rows, _ = run(cfg)
        assert {r.metric for r in rows} == {"tv_exact", "ml_error", "tv_mc"}

    def test_grid_xor_erasure_row(self):
        cfg = ExperimentConfig(
            model="grid-xor", delta_start=0.25, delta_stop=0.25, depth=4, trials=200
        )
        rows, summary = run(cfg)
        erasure = [r for r in rows if r.metric == "erasure_fail"]
        assert len(erasure) == 1
        assert erasure[0].k == 4
        assert "erasure failure frequency" in summary

    def test_grid_depth_beyond_cap_is_reported(self, monkeypatch, capsys):
        monkeypatch.setattr(grid_mod, "DEFAULT_DEPTH_CAP", 4)
        cfg = ExperimentConfig(model="grid-xor", delta_start=0.2, delta_stop=0.2, depth=6, trials=50)
        rows, summary = run(cfg)
        err = capsys.readouterr().err
        for text in (summary, err):
            assert "requested depth 6" in text and "reach depth 4" in text
        assert max(r.k for r in rows if r.metric != "erasure_fail") == 4
        assert [r.k for r in rows if r.metric == "erasure_fail"] == [6]

    def test_percolation_rows(self):
        cfg = ExperimentConfig(
            model="percolation", delta_start=0.9, delta_stop=0.9, depth=30, trials=100
        )
        rows, summary = run(cfg)
        assert rows[0].metric == "bound_value"
        assert "alpha estimate" in summary

    def test_bounds_rows(self):
        cfg = ExperimentConfig(model="bounds", delta_start=0.3, delta_stop=0.3, depth=6)
        rows, summary = run(cfg)
        assert len(rows) == 7
        assert "delta_es" in summary

    def test_csv_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = ExperimentConfig(
                model="grid-xor",
                delta_start=0.2,
                delta_stop=0.2,
                depth=4,
                trials=300,
                seed=11,
                out=str(out),
            )
            run(cfg)
        assert out1.read_bytes() == out2.read_bytes()

    def test_budget_propagates(self):
        from dagbroadcast.model import BudgetExceededError

        cfg = ExperimentConfig(
            model="random-dag-maj3", delta_start=0.3, delta_stop=0.3, depth=3, schedule="const:9000"
        )
        with pytest.raises(BudgetExceededError):
            run(cfg)


class TestThresholdBisect:
    def test_bracket_and_endpoint_consistency(self):
        sched = LayerSchedule.parse("const:16")
        lo, hi = threshold_bisect("maj3", sched, 40, tol=5e-3, cutoff=0.05)
        assert hi - lo <= 5e-3 + 1e-12
        assert tv(exact_chain("maj3", lo, sched, 40)[-1]) >= 0.05
        assert tv(exact_chain("maj3", hi, sched, 40)[-1]) < 0.05

    def test_collapses_when_criterion_everywhere(self):
        sched = LayerSchedule.parse("const:8")
        assert threshold_bisect("maj3", sched, 10, cutoff=2.0) == (0.05, 0.05)

    def test_collapses_when_criterion_nowhere(self):
        sched = LayerSchedule.parse("const:8")
        assert threshold_bisect("maj3", sched, 10, cutoff=0.0) == (0.45, 0.45)


def _assert_config_error(argv, field, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"field {field}:" in err and "Traceback" not in err


class TestMain:
    def test_fixed_points_command(self, capsys):
        assert main(["fixed-points", "--model", "maj3", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "0.9419417" in out
        assert "lipschitz" in out

    def test_exact_chain_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "chain.csv"
        code = main(
            ["exact-chain", "--model", "maj3", "--delta", "0.22", "--depth", "20",
             "--schedule", "const:32", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 60
        assert recs[0]["model"] == "random-dag-maj3"

    def test_mc_chain_command(self, capsys):
        assert main(["mc-chain", "--model", "maj3", "--delta", "0.25", "--depth", "5",
                     "--trials", "200", "--schedule", "const:8"]) == 0
        assert "monotone_fraction=1.000000" in capsys.readouterr().out

    def test_grid_exact_command(self, capsys):
        assert main(["grid-exact", "--gate", "xor", "--delta", "0.2", "--depth", "3"]) == 0
        assert "tv=" in capsys.readouterr().out

    def test_grid_exact_at_power_of_two_depth(self, capsys):
        assert main(["grid-exact", "--gate", "xor", "--delta", "0.1", "--depth", "16"]) == 0
        assert "k=16 tv=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["grid-exact", "--gate", "and", "--delta", "0.1", "--depth", "0"], "depth"),
            (["grid-exact", "--gate", "and", "--delta", "0.6"], "delta"),
            (["grid-xor", "--k", "0", "--delta", "0.1"], "k"),
        ],
    )
    def test_grid_bad_argument_exit_code(self, argv, field, capsys):
        _assert_config_error(argv, field, capsys)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["bisect", "--model", "maj3", "--schedule", "foo"], "schedule"),
            (["mc-chain", "--model", "maj3", "--delta", "0.1", "--trials", "0"], "trials"),
            (["mc-chain", "--model", "maj3", "--delta", "0.6"], "delta"),
            (["mc-chain", "--model", "maj3", "--delta", "0.1", "--depth", "0"], "depth"),
            (["bisect", "--model", "maj3", "--depth", "0"], "depth"),
            (["bisect", "--model", "andor2", "--delta-hi", "0.7"], "delta_hi"),
            (["fixed-points", "--model", "maj3", "--delta", "0.7"], "delta"),
        ],
    )
    def test_sigma_bad_argument_exit_code(self, argv, field, capsys):
        _assert_config_error(argv, field, capsys)

    def test_grid_and_couple_command(self, capsys):
        assert main(["grid-and-couple", "--delta", "0.35", "--depth", "20", "--trials", "300"]) == 0
        assert "P(T > 20)" in capsys.readouterr().out

    def test_grid_xor_command_with_export(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        code = main(["grid-xor", "--k", "4", "--delta", "0.25", "--trials", "100",
                     "--export-h", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "root column matches Lucas parities: True" in out
        assert "certificate annihilated: True" in out
        assert path.read_text().startswith("# rows=5 cols=21")

    def test_percolation_command(self, capsys):
        assert main(["percolation", "--p", "0.9", "--depth", "30", "--trials", "100"]) == 0
        assert "alpha estimate" in capsys.readouterr().out

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--delta", "0.3", "--depth", "10"]) == 0
        out = capsys.readouterr().out
        assert "delta_es=0.21132" in out
        assert "slow-growth threshold" in out

    def test_bisect_command(self, capsys):
        assert main(["bisect", "--model", "maj3", "--schedule", "const:8", "--depth", "10",
                     "--cutoff", "2.0"]) == 0
        assert "bracket" in capsys.readouterr().out

    def test_sweep_with_config_and_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(
            "model=bounds\ndelta_start=0.3\ndelta_stop=0.3\ndepth=4\n"
        )
        code = main(["sweep", "--config", str(cfg_path), "--depth", "6", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 7

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("model=mystery\n")
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_keeps_config_budget(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("model=random-dag-maj3\nschedule=const:64\ndepth=3\nbudget=10\n")
        assert main(["sweep", "--config", str(cfg_path)]) == 3
        assert "budget exceeded" in capsys.readouterr().err
        assert main(["sweep", "--config", str(cfg_path), "--budget", "64"]) == 0

    def test_budget_exit_code(self, capsys):
        code = main(["exact-chain", "--model", "maj3", "--delta", "0.2",
                     "--schedule", "const:9000", "--depth", "3"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NBL_SEED", "123")
        out = tmp_path / "seeded.csv"
        assert main(["grid-and-couple", "--delta", "0.4", "--depth", "5",
                     "--trials", "50", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert all(r["seed"] == "123" for r in recs)

    def test_entry_point_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dagbroadcast.cli", "bounds", "--delta", "0.3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "delta_es" in proc.stdout


class TestOneDriverPath:
    """Every row subcommand is one ExperimentConfig handed to run."""

    def test_dag_model_coupled_rows(self):
        from dagbroadcast.sigma import coupled_mc
        from dagbroadcast.stats import wilson_interval

        cfg = ExperimentConfig(
            model="random-dag-andor2", delta_start=0.1, delta_stop=0.1, depth=5,
            schedule="const:8", trials=40, seed=3,
        )
        rows, summary = run(cfg)
        coupled = sorted((r for r in rows if r.metric == "coalesce_prob"), key=lambda r: r.k)
        stats = coupled_mc("andor2", 0.1, LayerSchedule.parse("const:8"), 5, 40, 3)
        assert [r.k for r in coupled] == [1, 2, 3, 4, 5]
        assert [r.value for r in coupled] == list(stats.prob_unequal)
        for r in coupled:
            assert (r.ci_low, r.ci_high) == wilson_interval(round(r.value * 40), 40)
            assert r.trials == 40 and r.L_k == 8
        assert "monotone_fraction=" in summary and "P(unequal)=" in summary

    @pytest.mark.parametrize(
        "argv, config, label",
        [
            (["exact-chain", "--model", "maj3", "--delta", "0.2", "--depth", "6", "--schedule", "const:8"],
             "model=random-dag-maj3\ndelta_start=0.2\ndelta_stop=0.2\ndepth=6\nschedule=const:8\n",
             "random-dag-maj3"),
            (["mc-chain", "--model", "andor2", "--delta", "0.2", "--depth", "6", "--schedule", "const:8",
              "--trials", "30"],
             "model=random-dag-andor2\ndelta_start=0.2\ndelta_stop=0.2\ndepth=6\nschedule=const:8\ntrials=30\n",
             "random-dag-andor2"),
            (["grid-exact", "--gate", "and", "--delta", "0.2", "--depth", "4", "--trials", "30"],
             "model=grid-and\ndelta_start=0.2\ndelta_stop=0.2\ndepth=4\ntrials=30\n", "grid-and"),
            (["grid-exact", "--gate", "or", "--delta", "0.2", "--depth", "4", "--trials", "30"],
             "model=grid-or\ndelta_start=0.2\ndelta_stop=0.2\ndepth=4\ntrials=30\n", "grid-or"),
            (["grid-exact", "--gate", "xor", "--delta", "0.2", "--depth", "4", "--trials", "30"],
             "model=grid-xor\ndelta_start=0.2\ndelta_stop=0.2\ndepth=4\ntrials=30\n", "grid-xor"),
            (["grid-exact", "--gate", "nand", "--delta", "0.2", "--depth", "4"],
             "model=grid-nand\ndelta_start=0.2\ndelta_stop=0.2\ndepth=4\n", "grid-nand"),
            (["grid-and-couple", "--delta", "0.2", "--depth", "10", "--trials", "30"],
             "model=grid-and-couple\ndelta_start=0.2\ndelta_stop=0.2\ndepth=10\ntrials=30\n", "grid-and"),
            (["percolation", "--p", "0.8", "--depth", "10", "--trials", "30"],
             "model=percolation\ndelta_start=0.8\ndelta_stop=0.8\ndepth=10\ntrials=30\n", "percolation"),
            (["bounds", "--delta", "0.2", "--depth", "5", "--d", "2"],
             "model=bounds\ndelta_start=0.2\ndelta_stop=0.2\ndepth=5\nschedule=const:16\nd=2\n", "bounds"),
        ],
    )
    def test_subcommand_csv_equals_sweep(self, argv, config, label, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config + "seed=9\n")
        direct, swept = tmp_path / "direct.csv", tmp_path / "swept.csv"
        assert main([*argv, "--seed", "9", "--out", str(direct)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(swept)]) == 0
        assert direct.read_bytes() == swept.read_bytes()
        with open(direct, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert recs and {r["model"] for r in recs} == {label}

    def test_grid_exact_depth_beyond_cap_warns(self, capsys):
        assert main(["grid-exact", "--gate", "and", "--delta", "0.1", "--depth", "21"]) == 0
        captured = capsys.readouterr()
        assert "requested depth 21" in captured.err and "reach depth 20" in captured.out
        assert "k=20 tv=" in captured.out and "k=21" not in captured.out


class TestExitCodes:
    @pytest.mark.parametrize("delta", ["0", "0.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["exact-chain", "--model", "maj3"],
            ["mc-chain", "--model", "maj3"],
            ["grid-exact", "--gate", "or"],
            ["grid-and-couple"],
            ["bounds"],
            ["fixed-points", "--model", "andor2"],
        ],
    )
    def test_delta_out_of_range(self, argv, delta, capsys):
        _assert_config_error([*argv, "--delta", delta], "delta", capsys)

    def test_sweep_delta_names_config_field(self, tmp_path, capsys):
        _assert_config_error(["sweep", "--model", "grid-and", "--delta-start", "0"], "delta_start", capsys)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("model=grid-xor\ndelta_start=0.5\n")
        _assert_config_error(["sweep", "--config", str(cfg_path)], "delta_start", capsys)

    def test_bisect_zero_delta(self, capsys):
        _assert_config_error(["bisect", "--model", "maj3", "--delta-lo", "0"], "delta_lo", capsys)

    def test_percolation_p_out_of_range(self, capsys):
        _assert_config_error(["percolation", "--p", "1.5"], "p", capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact-chain", "--model", "maj3", "--delta", "0.1"],
            ["grid-and-couple", "--delta", "0.1"],
            ["percolation", "--p", "0.5"],
            ["bounds", "--delta", "0.1"],
            ["sweep", "--model", "bounds"],
        ],
    )
    def test_zero_depth(self, argv, capsys):
        _assert_config_error([*argv, "--depth", "0"], "depth", capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc-chain", "--model", "andor2", "--delta", "0.1"],
            ["grid-and-couple", "--delta", "0.1"],
            ["percolation", "--p", "0.5"],
        ],
    )
    def test_monte_carlo_only_needs_trials(self, argv, capsys):
        _assert_config_error([*argv, "--trials", "0"], "trials", capsys)

    @pytest.mark.parametrize("model", ["grid-and-couple", "percolation"])
    @pytest.mark.parametrize("trials", ["", "trials=0\n"])
    def test_monte_carlo_only_needs_trials_from_file(self, model, trials, tmp_path, capsys):
        # the default trials = 0 is refused too, rather than run as 1000 or 500 trials
        err = _sweep_file_error(f"model={model}\ndelta_start=0.3\ndelta_stop=0.3\ndepth=5\n{trials}", tmp_path, capsys)
        assert "field trials:" in err

    def test_missing_config_file(self, tmp_path, capsys):
        _assert_config_error(["sweep", "--config", str(tmp_path / "missing.cfg")], "config", capsys)

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("NBL_SEED", "abc")
        _assert_config_error(["bounds", "--delta", "0.3"], "seed", capsys)

    def test_seed_order(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NBL_SEED", "77")
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "rows.csv"

        def seeds(argv):
            assert main([*argv, "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                return {r["seed"] for r in csv.DictReader(fh)}

        cfg_path.write_text("model=bounds\ndelta_start=0.3\ndelta_stop=0.3\ndepth=2\nseed=0\n")
        assert seeds(["sweep", "--config", str(cfg_path)]) == {"0"}
        assert seeds(["sweep", "--config", str(cfg_path), "--seed", "5"]) == {"5"}
        cfg_path.write_text("model=bounds\ndelta_start=0.3\ndelta_stop=0.3\ndepth=2\n")
        assert seeds(["sweep", "--config", str(cfg_path)]) == {"77"}
        monkeypatch.delenv("NBL_SEED")
        assert seeds(["sweep", "--config", str(cfg_path)]) == {"0"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact-chain", "--model", "maj3", "--delta", "0.2"],
            ["mc-chain", "--model", "maj3", "--delta", "0.2"],
            ["sweep", "--model", "random-dag-andor2"],
            ["bisect", "--model", "maj3"],
        ],
    )
    def test_budget_exceeded(self, argv, capsys):
        assert main([*argv, "--schedule", "const:9000", "--depth", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "Traceback" not in err

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--delta", "0.3", "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fixed-points", "--model", "maj3", "--delta", "0.1"],
            ["grid-xor", "--k", "4", "--delta", "0.1"],
            ["bisect", "--model", "maj3"],
        ],
    )
    def test_out_flag_only_on_row_subcommands(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "rows.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fixed-points", "--model", "maj3", "--delta", "0.1"],
            ["grid-exact", "--gate", "and", "--delta", "0.1"],
            ["grid-and-couple", "--delta", "0.1"],
            ["grid-xor", "--k", "4", "--delta", "0.1"],
            ["percolation", "--p", "0.5"],
            ["bounds", "--delta", "0.1"],
        ],
    )
    def test_budget_flag_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "64"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", [["fixed-points", "--model", "maj3", "--delta", "0.1"], ["bisect", "--model", "maj3"]]
    )
    def test_seed_flag_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        assert exc.value.code == 2


class TestBisectTermination:
    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_tol_below_float_spacing(self, tol):
        lo, hi = threshold_bisect("maj3", LayerSchedule.parse("const:4"), 3, tol=tol)
        assert hi == math.nextafter(lo, 1)
