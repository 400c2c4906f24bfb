"""Command-line behavior: outputs, determinism, and exit codes.

Exit code contract: 0 success, 1 usage/parameter error, 2 I/O failure,
3 best sample infeasible.
"""

import dataclasses
import json

import pytest

from arbqubo import (
    ProblemShape,
    Sample,
    best_cycle_bruteforce,
    build_qubo,
    default_weights,
    dump_rates_json,
    ground_state,
    load_rates,
    solve_exact,
    to_log_weights,
)
from arbqubo import bench, cli, qubo
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

    def test_oversized_n_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen", "--n", "10000000", "--out", str(out)]) == 1
        assert "exceeds 2048" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_is_io_error(self):
        assert main(["gen", "--n", "3", "--out", "/nonexistent/dir/x.csv"]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["gen", "--n", "4", "--seed", "-1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert not out.exists()


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
        stored = json.loads(sample_file.read_text())
        assert stored["solver"] == "tabu"
        assert list(stored["params"]) == [
            "num_reads", "seed", "tabu_tenure", "max_iterations_per_read",
        ]
        assert (stored["params"]["num_reads"], stored["params"]["seed"]) == (5, 1)
        assert list(stored["timing"]) == ["wall_time_us"]
        records = stored["samples"]
        assert [rec["read_index"] for rec in records] == [1, 2, 3, 4, 5]
        with open(rates, "rb") as fh:
            w = to_log_weights(load_rates(fh, "csv"))
        shape = ProblemShape(3, 4)
        weights = default_weights(w, shape)
        q = build_qubo(w, shape, weights)
        for rec in records:
            assert len(rec["bits"]) == q.n_vars and not rec["bits"].strip("01")
            bits = [int(b) for b in rec["bits"]]
            assert rec["energy"] == q.energy(bits)
        model = json.loads(model_file.read_text())
        assert (model["n_currencies"], model["loop_length"]) == (3, 4)
        assert model["weights"] == dataclasses.asdict(weights)
        assert model["labels"] == ["USD", "EUR", "GBP"]

    def test_writes_the_solved_qubo(self, tmp_path):
        rates = write_fig1(tmp_path)
        qubo_file = tmp_path / "qubo.json"
        code = main(
            [
                "solve", "--rates", rates, "--loop-length", "4",
                "--weight-rate", "2", "--qubo-out", str(qubo_file),
            ]
        )
        assert code == 0
        with open(rates, "rb") as fh:
            w = to_log_weights(load_rates(fh, "csv"))
        shape = ProblemShape(3, 4)
        q = build_qubo(w, shape, default_weights(w, shape, rate=2.0))
        assert qubo_file.read_text() == qubo.qubo_to_json(q)

    def test_exact_out_round_trips_every_state(self, tmp_path, capsys):
        rates = write_fig1(tmp_path)
        sample_file = tmp_path / "samples.json"
        code = main(
            ["solve", "--rates", rates, "--loop-length", "4", "--out", str(sample_file)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        stored = json.loads(sample_file.read_text())
        assert stored["solver"] == "exact"
        assert stored["params"] is None
        assert list(stored["timing"]) == ["wall_time_us"]
        with open(rates, "rb") as fh:
            w = to_log_weights(load_rates(fh, "csv"))
        shape = ProblemShape(3, 4)
        q = build_qubo(w, shape, default_weights(w, shape))
        # The one optimum, the set that solve_exact returns.
        bits, energy = ground_state(q)
        record = {"bits": "".join(map(str, bits)), "energy": energy, "read_index": 1}
        assert stored["samples"] == [record]
        assert solve_exact(q).samples == [Sample(bits, energy, read_index=1)]
        assert f"best energy: {energy!r}" in printed

    def test_oversized_qubo_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qubo, "QUBO_MAX_VARS", 11)
        rates = write_fig1(tmp_path)
        assert main(["solve", "--rates", rates, "--loop-length", "4"]) == 1
        assert "12 variables exceeds the dense QUBO guard 11" in capsys.readouterr().err

    def test_missing_rates_file_is_io_error(self):
        assert main(["solve", "--rates", "/no/such/file.csv"]) == 2


def write_market(tmp_path):
    """Five currencies whose best loop of length 4 pays 1.05."""
    rates = tmp_path / "market.csv"
    argv = ["gen", "--n", "5", "--seed", "7", "--plant", "0,1", "--strength", "1.05"]
    assert main(argv + ["--out", str(rates)]) == 0
    return str(rates)


class TestEnergyRange:
    """Every solver refuses a QUBO whose coefficient magnitudes sum to
    DBL_MAX/4 or more, with one error line, before it reads the matrix."""

    @pytest.mark.parametrize(
        "weight",
        [["--weight-rate", "1e306"], ["--weight-one-hot", "1e308"]],
        ids=["rate", "one-hot"],
    )
    def test_every_solver_gives_one_error(self, tmp_path, capsys, weight):
        argv = ["solve", "--rates", write_market(tmp_path), "--reads", "2", "--seed", "1", *weight]
        capsys.readouterr()
        errors = []
        for solver in ("sa", "tabu", "exact"):
            assert main(argv + ["--solver", solver]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0].startswith("error: coefficient and offset magnitudes sum to S = ")
        assert errors == [errors[0]] * 3

    def test_tabu_stops_at_a_large_rate_weight(self, tmp_path, capsys):
        # Ulps of these energies exceed ENERGY_EPS: if rounding drift alone
        # counted as improvement, the stall count would reset without end.
        argv = ["solve", "--rates", write_market(tmp_path), "--solver", "tabu"]
        assert main(argv + ["--reads", "4", "--seed", "1", "--weight-rate", "1e12"]) == 0
        assert "profitability: 1.05000" in capsys.readouterr().out


class TestNegativeExponents:
    @pytest.mark.parametrize("value", ["-1e3", "-2.5E-4", "-.5e1", "-1.5e+2", "-3"])
    def test_spaced_value_parses_like_attached(self, tmp_path, capsys, value):
        base = ["solve", "--rates", write_market(tmp_path), "--weight-fill"]
        capsys.readouterr()
        assert cli.build_parser().parse_args(base + [value]).weight_fill == float(value)
        runs = []
        for argv in (base + [value], base[:-1] + [f"--weight-fill={value}"]):
            runs.append((main(argv), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] != 1


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

    def test_optimum_is_found_once(self, tmp_path, monkeypatch):
        rates = write_planted(tmp_path)
        report_file = tmp_path / "report.csv"
        energies = []

        def counted(q):
            result = solve_exact(q)
            energies.append(result.best().energy)
            return result

        monkeypatch.setattr(cli, "solve_exact", counted)
        monkeypatch.setattr(bench, "solve_exact", counted)
        code = main(
            [
                "bench", "--rates", str(rates), "--loop-length", "3",
                "--solvers", "sa,tabu", "--reads", "5,10", "--batches", "2",
                "--sweeps", "20", "--out", str(report_file),
            ]
        )
        assert code == 0
        assert len(energies) == 1
        rows = bench.load_report(report_file.read_bytes()).rows
        assert len(rows) == 8
        assert {row.optimal_energy for row in rows} == set(energies)

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


class TestReadCounts:
    """``bench --reads`` and ``timing --reads`` reject a bad list at parse
    time: exit 1, nothing on stdout and no report."""

    @pytest.mark.parametrize("reads", [",", "", "5,0", "0", "-1", "5,x"])
    def test_bench_rejects(self, tmp_path, capsys, reads):
        rates = write_fig1(tmp_path)
        report_file = tmp_path / "r.csv"
        code = main(
            [
                "bench", "--rates", rates, "--reads", reads, "--sweeps", "5",
                "--out", str(report_file),
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        assert not report_file.exists()

    @pytest.mark.parametrize("reads", [",", "", "5,0", "0", "-1", "5,x"])
    def test_timing_rejects(self, capsys, reads):
        code = main(
            ["timing", "--programming", "1", "--readout", "1", "--reads", reads]
        )
        assert code == 1
        assert capsys.readouterr().out == ""


SEED_ERROR = "error: seed must be non-negative, got -1\n"


class TestSamplerFlagsFirst:
    """``solve`` and ``bench`` check ``--seed``, ``--reads``, ``--sweeps``,
    ``--solvers`` and ``--batches`` for every solver before they read
    ``--rates``: exit 1 with the one parameter error line, nothing on
    stdout and no file."""

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--seed", "-1"], SEED_ERROR),
            (["--reads", "0"], "error: num_reads must be >= 1, got 0\n"),
            (["--sweeps", "0"], "error: sweeps_per_read must be >= 1, got 0\n"),
        ],
        ids=["seed", "reads", "sweeps"],
    )
    def test_exact_solve_rejects(self, tmp_path, capsys, flag, message):
        out = tmp_path / "s.json"
        argv = ["solve", "--rates", write_market(tmp_path), "--out", str(out), *flag]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--seed", "-1"], SEED_ERROR),
            (["solve", "--solver", "tabu", "--seed", "-1"], SEED_ERROR),
            (["bench", "--seed", "-1"], SEED_ERROR),
            (["bench", "--solvers", "hillclimb"], "error: unknown solver 'hillclimb'; "),
            (["bench", "--batches", "0"], "error: batches must be >= 1, got 0\n"),
        ],
        ids=["solve-exact", "solve-tabu", "bench-seed", "bench-solvers", "bench-batches"],
    )
    def test_checked_before_the_rates_are_read(self, tmp_path, capsys, argv, message):
        # The rates file does not exist: reading it first would exit 2.
        out = tmp_path / "r.csv"
        rates = ["--rates", str(tmp_path / "no-such-market.csv"), "--out", str(out)]
        assert main(argv + rates) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert not out.exists()


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

    @pytest.mark.parametrize("name", ["fig1.json", "fig1.JSON", "fig1.Json"])
    def test_json_extension_in_any_case(self, tmp_path, capsys, fig1, name):
        csv_out = main(["oracle", "--rates", write_fig1(tmp_path)]), capsys.readouterr()
        path = tmp_path / name
        path.write_bytes(dump_rates_json(fig1))
        assert (main(["oracle", "--rates", str(path)]), capsys.readouterr()) == csv_out
        assert csv_out[0] == 0

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


def test_solve_at_k5_reports_a_closed_walk_not_a_cycle(tmp_path, capsys):
    # At K >= 5 solve's best loop is a closed walk of K-1 trades: here the
    # 1.05 two-cycle twice, where the cycle oracle reports it once.
    rates = str(tmp_path / "m5.csv")
    assert main(["gen", "--n", "5", "--seed", "7", "--plant", "0,1", "--out", rates]) == 0
    capsys.readouterr()
    assert main(["solve", "--rates", rates, "--loop-length", "5"]) == 0
    solve_lines = capsys.readouterr().out.splitlines()
    assert solve_lines[2:] == ["best loop: C0 -> C1 -> C0 -> C1 -> C0", "profitability: 1.10250"]
    assert main(["oracle", "--rates", rates, "--max-len", "5"]) == 0
    oracle_lines = capsys.readouterr().out.splitlines()
    assert oracle_lines[:2] == ["best cycle: C0 -> C1 -> C0", "profitability: 1.05000"]


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
