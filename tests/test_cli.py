"""Command-line behavior: outputs, determinism, and exit codes.

Exit code contract: 0 success, 1 usage/parameter error, 2 I/O failure,
3 best sample infeasible.
"""

import json

import pytest

from arbqubo import (
    ProblemShape,
    best_cycle_bruteforce,
    build_qubo,
    default_weights,
    load_rates,
    sampleset_from_json,
    solve_exact,
    to_log_weights,
)
from arbqubo import qubo
from arbqubo.cli import main

from conftest import fig1_csv_bytes


def write_fig1(tmp_path):
    path = tmp_path / "fig1.csv"
    path.write_bytes(fig1_csv_bytes())
    return str(path)


class TestGen:
    def test_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["gen", "--n", "5", "--seed", "7", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_planted_file_has_expected_oracle_profit(self, tmp_path):
        out = tmp_path / "planted.csv"
        code = main(
            [
                "gen", "--n", "5", "--seed", "7",
                "--plant", "0,1,2", "--strength", "1.05",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, "rb") as fh:
            rates = load_rates(fh, "csv")
        result = best_cycle_bruteforce(rates, max_len=4)
        assert result.best_profit == pytest.approx(1.05, abs=1e-9)

    def test_tiny_n_is_usage_error(self, tmp_path):
        assert main(["gen", "--n", "1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_path_is_io_error(self):
        assert main(["gen", "--n", "3", "--out", "/nonexistent/dir/x.csv"]) == 2


class TestSolve:
    def test_fig1_exact(self, tmp_path, capsys):
        rates = write_fig1(tmp_path)
        code = main(["solve", "--rates", rates, "--loop-length", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "USD -> EUR -> GBP -> USD" in out
        assert "1.39230" in out

    def test_consistent_market_reports_no_profit(self, tmp_path, capsys):
        rates = tmp_path / "flat.csv"
        assert main(["gen", "--n", "4", "--seed", "3", "--out", str(rates)]) == 0
        capsys.readouterr()
        code = main(["solve", "--rates", str(rates), "--loop-length", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no profitable loop" in out

    def test_zero_rate_weight_rejected(self, tmp_path):
        rates = write_fig1(tmp_path)
        code = main(
            ["solve", "--rates", rates, "--loop-length", "4", "--weight-rate", "0"]
        )
        assert code == 1

    def test_disabled_penalties_give_infeasible_exit(self, tmp_path, capsys):
        rates = write_fig1(tmp_path)
        code = main(
            [
                "solve", "--rates", rates, "--loop-length", "4",
                "--weight-one-hot", "0", "--weight-endpoint", "0",
                "--weight-consecutive", "0", "--weight-fill", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "infeasible" in out

    def test_writes_sampleset_and_model(self, tmp_path):
        rates = write_fig1(tmp_path)
        sample_file = tmp_path / "samples.json"
        model_file = tmp_path / "model.json"
        code = main(
            [
                "solve", "--rates", rates, "--loop-length", "4",
                "--solver", "tabu", "--reads", "5", "--seed", "1",
                "--out", str(sample_file), "--model-out", str(model_file),
            ]
        )
        assert code == 0
        stored = sampleset_from_json(sample_file.read_text())
        assert stored.solver_name == "tabu"
        assert len(stored) == 5
        model = json.loads(model_file.read_text())
        assert model["labels"] == ["USD", "EUR", "GBP"]

    def test_exact_out_round_trips_every_state(self, tmp_path, capsys):
        rates = write_fig1(tmp_path)
        sample_file = tmp_path / "samples.json"
        code = main(
            ["solve", "--rates", rates, "--loop-length", "4", "--out", str(sample_file)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        stored = sampleset_from_json(sample_file.read_text())
        assert stored.solver_name == "exact"
        assert len(stored) == 4096
        assert f"best energy: {stored.best().energy!r}" in printed
        with open(rates, "rb") as fh:
            w = to_log_weights(load_rates(fh, "csv"))
        shape = ProblemShape(3, 4)
        q = build_qubo(w, shape, default_weights(w, shape))
        assert stored.samples == list(solve_exact(q).samples)

    def test_oversized_qubo_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qubo, "QUBO_MAX_VARS", 11)
        rates = write_fig1(tmp_path)
        assert main(["solve", "--rates", rates, "--loop-length", "4"]) == 1
        assert "12 variables exceeds the dense QUBO guard 11" in capsys.readouterr().err

    def test_missing_rates_file_is_io_error(self):
        assert main(["solve", "--rates", "/no/such/file.csv"]) == 2


def write_planted(tmp_path):
    rates = tmp_path / "planted.csv"
    main(
        [
            "gen", "--n", "4", "--seed", "8", "--plant", "0,1",
            "--strength", "1.1", "--out", str(rates),
        ]
    )
    return rates


class TestBench:
    def test_row_count_is_cartesian(self, tmp_path):
        rates = write_planted(tmp_path)
        report_file = tmp_path / "report.csv"
        code = main(
            [
                "bench", "--rates", str(rates), "--loop-length", "3",
                "--solvers", "sa,tabu", "--reads", "20,50", "--batches", "2",
                "--sweeps", "100", "--out", str(report_file),
            ]
        )
        assert code == 0
        lines = report_file.read_text().strip().splitlines()
        assert len(lines) == 1 + 8  # header + 2 solvers x 2 read counts x 2 batches

    def test_solver_column_has_canonical_names(self, tmp_path):
        rates = write_planted(tmp_path)
        report_file = tmp_path / "report.csv"
        code = main(
            [
                "bench", "--rates", str(rates), "--loop-length", "3",
                "--solvers", "sa,tabu", "--reads", "5", "--batches", "1",
                "--sweeps", "20", "--out", str(report_file),
            ]
        )
        assert code == 0
        rows = report_file.read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["simulated_annealing", "tabu"]

    def test_unknown_solver_is_usage_error(self, tmp_path):
        rates = write_fig1(tmp_path)
        report_file = tmp_path / "r.csv"
        for solvers in ("hillclimb", "sa,hillclimb"):
            code = main(
                [
                    "bench", "--rates", rates, "--solvers", solvers,
                    "--out", str(report_file),
                ]
            )
            assert code == 1
            assert not report_file.exists()


class TestTiming:
    def test_published_single_read_value(self, capsys):
        code = main(
            [
                "timing", "--programming", "15782", "--anneal", "50",
                "--readout", "47", "--delay", "20", "--reads", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1,15899" in out

    def test_affine_sequence_has_zero_second_difference(self, capsys):
        code = main(
            [
                "timing", "--programming", "15782", "--anneal", "50",
                "--readout", "47", "--delay", "20", "--reads", "1,10,100,500",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        reads = [int(r[0]) for r in rows]
        times = [float(r[1]) for r in rows]
        slopes = [
            (t2 - t1) / (r2 - r1)
            for (r1, t1), (r2, t2) in zip(zip(reads, times), zip(reads[1:], times[1:]))
        ]
        assert max(slopes) - min(slopes) == pytest.approx(0.0, abs=1e-9)

    def test_worked_overhead_example(self, capsys):
        code = main(
            [
                "timing", "--programming", "107482", "--anneal", "0",
                "--readout", "0", "--delay", "0", "--reads", "1",
                "--include-overhead", "--overhead", "20000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1,127482" in out

    def test_negative_parameter_is_usage_error(self):
        code = main(
            ["timing", "--programming", "-5", "--readout", "0", "--reads", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_parameter_is_usage_error(self, value, capsys):
        code = main(
            ["timing", "--programming", value, "--readout", "0", "--reads", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: t_programming")

    def test_overflowing_total_prints_inf(self, capsys):
        code = main(
            [
                "timing", "--programming", "1e308", "--anneal", "1e308",
                "--readout", "0", "--delay", "0", "--reads", "1,2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1,inf", "2,inf"]


class TestOracleCommand:
    def test_fig1(self, tmp_path, capsys):
        rates = write_fig1(tmp_path)
        code = main(["oracle", "--rates", rates, "--max-len", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "USD -> EUR -> GBP -> USD" in out
        assert "1.39230" in out
        assert "arbitrage: yes" in out
        assert "negative-cycle screen (bellman-ford): yes" in out

    def test_consistent_market(self, tmp_path, capsys):
        rates = tmp_path / "flat.csv"
        main(["gen", "--n", "4", "--seed", "5", "--out", str(rates)])
        capsys.readouterr()
        code = main(["oracle", "--rates", str(rates), "--max-len", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "arbitrage: no" in out
        assert "negative-cycle screen (bellman-ford): no" in out

    def test_one_tolerance_for_both_detectors(self, tmp_path, capsys):
        # A 5e-10 profit: above PROFIT_EPS, so both detectors must say yes.
        rates = tmp_path / "thin.csv"
        main(
            [
                "gen", "--n", "4", "--seed", "2", "--plant", "0,1,2",
                "--strength", "1.0000000005", "--out", str(rates),
            ]
        )
        capsys.readouterr()
        assert main(["oracle", "--rates", str(rates)]) == 0
        out = capsys.readouterr().out
        assert "arbitrage: yes" in out
        assert "negative-cycle screen (bellman-ford): yes" in out


class TestMalformedInput:
    @pytest.mark.parametrize(
        "name,payload,max_len,message",
        [
            ("fig1.csv", None, "1", "max_len must be at least 2"),
            ("latin1.csv", b"from,to,rate\nA,B,0.5\nB,\xc4,2\n", "3", "not UTF-8"),
            ("word.json", b'{"labels": ["A", "B"], "rates": [[1, "x"], [2, 1]]}', "3", "numbers"),
            ("flat.json", b'{"labels": ["A", "B"], "rates": [1, 2]}', "3", "grid must be 2x2"),
            ("letters.json", b'{"labels": "AB", "rates": [[1, 2], [0.5, 1]]}', "3", "a list"),
        ],
        ids=["max-len-1", "not-utf8", "non-numeric-rate", "rows-not-lists", "labels-string"],
    )
    def test_exits_1_with_error_line(self, tmp_path, capsys, name, payload, max_len, message):
        path = tmp_path / name
        path.write_bytes(fig1_csv_bytes() if payload is None else payload)
        assert main(["oracle", "--rates", str(path), "--max-len", max_len]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
