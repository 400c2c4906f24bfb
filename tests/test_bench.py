"""Benchmark harness: reads-to-optimum, batch reports, access-time model.

Published reference data used here:
    anneal time 50 us, delay 20 us per sample, and per-configuration
    (programming time, readout time, reported access time) quadruples for
    1/10/100/500 reads; plus the published per-batch mean access times for
    the two hardware generations at 50/500/2000/4000 reads.
"""

import dataclasses
import json

import numpy as np
import pytest

from arbqubo import (
    BenchReport,
    BenchRow,
    DimensionError,
    ModelError,
    ParamError,
    ProblemShape,
    QpuTimingModel,
    Sample,
    SampleSet,
    SamplerParams,
    TimingLogRow,
    TooLarge,
    WrongOrdering,
    build_qubo,
    default_weights,
    emit_report,
    emit_timing_means,
    first_optimum_read,
    generate_consistent,
    ground_state,
    load_report,
    load_timing_log,
    plant_cycle,
    qpu_access_time,
    run_batches,
    sample_sa,
    solve_exact,
    to_log_weights,
)
from arbqubo import bench

# (num_reads, programming_us, readout_per_sample_us, reported_access_us)
ACCESS_TIME_TABLE = [
    (1, 15782.0, 47.0, 15900.0),
    (10, 15762.0, 66.0, 17133.0),
    (100, 15761.0, 113.0, 34145.0),
    (500, 15761.0, 80.0, 91141.0),
]
ANNEAL_US = 50.0
DELAY_US = 20.0

BATCH_MEANS = {
    ("system4.1", 50, 1): 23917,
    ("system4.1", 500, 1): 93725,
    ("system4.1", 2000, 1): 345590,
    ("system4.1", 4000, 1): 723505,
    ("system4.1", 50, 2): 23971,
    ("system4.1", 500, 2): 92374,
    ("system4.1", 2000, 2): 348638,
    ("system4.1", 4000, 2): 647858,
    ("prototype2.6", 50, 1): 25856,
    ("prototype2.6", 500, 1): 85737,
    ("prototype2.6", 2000, 1): 277681,
    ("prototype2.6", 4000, 1): 530786,
    ("prototype2.6", 50, 2): 25653,
    ("prototype2.6", 500, 2): 85617,
    ("prototype2.6", 2000, 2): 266169,
    ("prototype2.6", 4000, 2): 498289,
}


def planted_qubo(n=5, k=4, seed=7):
    rm = plant_cycle(generate_consistent(n, seed=seed), (0, 1, 2), strength=1.05)
    w = to_log_weights(rm)
    return build_qubo(w, ProblemShape(n, k), default_weights(w, ProblemShape(n, k)))


def production_set(energies, solver="stub"):
    return SampleSet(
        samples=[
            Sample(bits=(0,), energy=float(e), read_index=i)
            for i, e in enumerate(energies, start=1)
        ],
        timing={"wall_time_us": 10.0},
        solver_name=solver,
    )


class TestAccessTimeModel:
    def test_single_read_quadruple(self):
        model = QpuTimingModel(
            t_programming=15782.0, t_anneal=ANNEAL_US, t_readout=47.0, t_delay=DELAY_US
        )
        assert qpu_access_time(model, 1) == 15899.0
        assert abs(qpu_access_time(model, 1) - 15900.0) <= 2.0

    def test_five_hundred_reads_within_one_percent(self):
        model = QpuTimingModel(
            t_programming=15782.0, t_anneal=ANNEAL_US, t_readout=80.0, t_delay=DELAY_US
        )
        predicted = qpu_access_time(model, 500)
        assert predicted == 90782.0
        assert abs(predicted - 91141.0) / 91141.0 < 0.01

    @pytest.mark.parametrize("reads,programming,readout,reported", ACCESS_TIME_TABLE)
    def test_published_configurations_within_one_percent(
        self, reads, programming, readout, reported
    ):
        model = QpuTimingModel(
            t_programming=programming,
            t_anneal=ANNEAL_US,
            t_readout=readout,
            t_delay=DELAY_US,
        )
        predicted = qpu_access_time(model, reads)
        assert abs(predicted - reported) / reported < 0.01

    def test_zero_per_sample_cost_leaves_programming_time(self):
        model = QpuTimingModel(t_programming=1234.0, t_anneal=0, t_readout=0, t_delay=0)
        assert qpu_access_time(model, 1) == 1234.0

    def test_worst_case_overhead_example(self):
        # worst observed access time plus the 20 ms overhead ceiling
        model = QpuTimingModel(
            t_programming=107482.0,
            t_anneal=0.0,
            t_readout=0.0,
            t_delay=0.0,
            overhead_delta=20000.0,
        )
        assert qpu_access_time(model, 1, include_overhead=True) == 127482.0

    def test_affine_in_reads(self):
        model = QpuTimingModel(
            t_programming=15782.0, t_anneal=ANNEAL_US, t_readout=47.0, t_delay=DELAY_US
        )
        per_sample = ANNEAL_US + 47.0 + DELAY_US
        reads = [1, 10, 100, 500]
        times = [qpu_access_time(model, r) for r in reads]
        for (r1, t1), (r2, t2) in zip(zip(reads, times), zip(reads[1:], times[1:])):
            assert (t2 - t1) / (r2 - r1) == pytest.approx(per_sample)
        assert times[0] - per_sample == pytest.approx(model.t_programming)
        with_overhead = qpu_access_time(model, 1, include_overhead=True)
        assert with_overhead - times[0] == pytest.approx(model.overhead_delta)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ParamError):
            QpuTimingModel(t_programming=-1.0, t_anneal=0, t_readout=0, t_delay=0)

    def test_zero_reads_rejected(self):
        model = QpuTimingModel(t_programming=1.0, t_anneal=1.0, t_readout=1.0, t_delay=1.0)
        with pytest.raises(ParamError):
            qpu_access_time(model, 0)


class TestFirstOptimumRead:
    def test_finds_the_fourth_read(self):
        s = production_set([5.0, 3.0, 3.0, 1.0])
        assert first_optimum_read(s, 1.0) == 4

    def test_none_when_never_reached(self):
        s = production_set([5.0, 3.0])
        assert first_optimum_read(s, 1.0) is None

    def test_rejects_energy_sorted_exact_output(self):
        from arbqubo import QuboMatrix

        result = solve_exact(QuboMatrix(2))
        with pytest.raises(WrongOrdering):
            first_optimum_read(result, 0.0)

    def test_monotone_in_tolerance(self):
        s = production_set([5.0, 3.0, 1.5, 1.0])
        tols = [0.0, 0.4, 0.6, 2.1, 4.1]
        indices = [first_optimum_read(s, 1.0, tol=t) for t in tols]
        assert indices == [4, 4, 3, 2, 1]
        for earlier, later in zip(indices, indices[1:]):
            assert later <= earlier

    def test_sa_index_matches_independent_scan(self):
        q = planted_qubo(n=3, k=4)
        _, optimum = ground_state(q)
        result = sample_sa(q, SamplerParams(num_reads=200, seed=5, sweeps_per_read=100))
        got = first_optimum_read(result, optimum)
        expected = None
        for sample in result.samples:  # plain linear scan, written fresh
            if sample.energy <= optimum + 1e-9:
                expected = sample.read_index
                break
        assert got == expected is not None


class TestRunBatches:
    def test_deterministic_stub_gives_identical_rows(self, monkeypatch):
        q = planted_qubo(n=3, k=3)
        _, optimum = ground_state(q)

        def stub(qm, params):
            return production_set([optimum + 1.0, optimum], solver="stub")

        monkeypatch.setitem(bench.SOLVER_REGISTRY, "stub", stub)
        report = run_batches("stub", q, SamplerParams(num_reads=2, seed=0), batches=2)
        assert len(report.rows) == 2
        a, b = report.rows
        assert (a.total_time_us, a.first_optimum_read, a.best_energy) == (
            b.total_time_us,
            b.first_optimum_read,
            b.best_energy,
        )
        agg = report.aggregate()
        assert len(agg) == 1
        assert agg[0]["mean_total_time_us"] == a.total_time_us
        assert agg[0]["mean_first_optimum_read"] == a.first_optimum_read

    def test_unknown_solver_rejected(self):
        q = planted_qubo(n=3, k=3)
        with pytest.raises(ParamError):
            run_batches("quantum", q, SamplerParams(), batches=1)

    def test_zero_batches_rejected(self):
        with pytest.raises(ParamError):
            run_batches("tabu", planted_qubo(n=3, k=3), SamplerParams(), batches=0)

    def test_sa_alias_rows_carry_canonical_label(self):
        q = planted_qubo(n=3, k=3)
        params = SamplerParams(num_reads=5, seed=1, sweeps_per_read=20)
        report = run_batches("sa", q, params, batches=2)
        assert [r.solver for r in report.rows] == ["simulated_annealing"] * 2
        again = run_batches("simulated_annealing", q, params, batches=2)
        assert [r.best_energy for r in report.rows] == [
            r.best_energy for r in again.rows
        ]

    def test_optimum_beyond_enumeration_is_passed_in(self):
        rm = plant_cycle(generate_consistent(30, seed=1), (0, 1, 2), strength=1.05)
        w, shape = to_log_weights(rm), ProblemShape(30, 8)
        q = build_qubo(w, shape, default_weights(w, shape))
        params = SamplerParams(num_reads=2, seed=1, sweeps_per_read=10)
        optimum = solve_exact(q).best().energy
        report = run_batches("sa", q, params, batches=2)
        assert [r.optimal_energy for r in report.rows] == [optimum, optimum]
        report = run_batches("sa", q, params, batches=2, optimal_energy=optimum)
        assert [r.optimal_energy for r in report.rows] == [optimum, optimum]
        # Without the loop-shape tag only enumeration could find the optimum.
        q.add_coefficient(0, 0, 0.0)
        with pytest.raises(TooLarge, match="240 variables exceeds enumeration guard"):
            run_batches("sa", q, params, batches=1)

    def test_sa_batches_reach_optimum(self):
        q = planted_qubo()
        params = SamplerParams(num_reads=500, seed=100, sweeps_per_read=250)
        report = run_batches("simulated_annealing", q, params, batches=10)
        present = [r for r in report.rows if r.first_optimum_read is not None]
        assert len(present) / len(report.rows) >= 0.95

    def test_tabu_median_first_read_is_one(self):
        q = planted_qubo()
        params = SamplerParams(num_reads=10, seed=200)
        report = run_batches("tabu", q, params, batches=10)
        firsts = [r.first_optimum_read for r in report.rows]
        assert all(f is not None for f in firsts)
        assert float(np.median(firsts)) == 1.0


class TestReportSerialization:
    def sample_report(self):
        return BenchReport(
            rows=[
                BenchRow("tabu", 50, 1, 2400.0, 1, -104.25, -104.25),
                BenchRow("simulated_annealing", 50, 1, 81000.5, None, -100.0, -104.25),
            ]
        )

    def test_empty_report_is_header_only(self):
        assert emit_report(BenchReport(), "csv") == (
            b"solver,num_reads,batch,total_time_us,"
            b"first_optimum_read,best_energy,optimal_energy\n"
        )

    def test_csv_round_trip(self):
        report = self.sample_report()
        again = load_report(emit_report(report, "csv"))
        assert again == report

    def test_json_csv_json_round_trip(self):
        report = self.sample_report()
        as_json = json.loads(emit_report(report, "json"))
        back = load_report(emit_report(report, "csv"))
        assert as_json == [dataclasses.asdict(row) for row in back.rows]
        assert emit_report(back, "json") == emit_report(report, "json")

    HEADER = b"solver,num_reads,batch,total_time_us,first_optimum_read,best_energy,optimal_energy\n"

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"bad\n",
            HEADER + b"tabu,x,1,2400,1,-1,-1\n",
            HEADER + b"tabu,3.7,1,2400,1,-1,-1\n",
            HEADER + b"tabu,50,1,2400,1,-1,abc\n",
            HEADER + b"tabu,50,1,2400\n",
            HEADER + b"tabu,50,1,2400,1,-1,-1,7\n",
            HEADER + b"tabu,50,\xff,2400,1,-1,-1\n",
        ],
        ids=[
            "empty", "wrong-header", "text-int", "float-int", "text-float", "short-row",
            "long-row", "not-utf8",
        ],
    )
    def test_csv_rejects_malformed_report(self, data):
        with pytest.raises(DimensionError):
            load_report(data)

    @pytest.mark.parametrize("cell", [b"nan", b"inf", b"-inf", b"1e999"])
    @pytest.mark.parametrize(
        "column", [3, 5, 6], ids=["total_time_us", "best_energy", "optimal_energy"]
    )
    def test_csv_rejects_non_finite_number(self, cell, column):
        cells = b"tabu,50,1,2400,1,-1,-1".split(b",")
        cells[column] = cell
        with pytest.raises(ModelError, match="report row 2"):
            load_report(self.HEADER + b",".join(cells) + b"\n")

    def test_unknown_format_stays_value_error(self):
        with pytest.raises(ValueError):
            emit_report(BenchReport(), "xml")


class TestTimingLogIngestion:
    def log_bytes(self):
        lines = ["system,num_reads,batch,qpu_access_time_us"]
        for (system, reads, batch), mean in BATCH_MEANS.items():
            lines.append(f"{system},{reads},{batch},{mean}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_round_trips_published_means_byte_exactly(self):
        rows = load_timing_log(self.log_bytes())
        emitted = emit_timing_means(rows).decode("utf-8")
        for (system, reads, batch), mean in BATCH_MEANS.items():
            assert f"{system},{reads},{batch},{mean}\n" in emitted
        assert "723505" in emitted and "530786" in emitted

    def test_mean_of_replicated_executions(self):
        payload = (
            b"system,num_reads,batch,qpu_access_time_us\n"
            b"system4.1,50,1,23900\n"
            b"system4.1,50,1,23934\n"
        )
        emitted = emit_timing_means(load_timing_log(payload)).decode("utf-8")
        assert "system4.1,50,1,23917\n" in emitted

    def test_non_finite_means_re_emit(self):
        rows = [TimingLogRow("A", 1, 1, float("inf")), TimingLogRow("B", 1, 1, float("nan"))]
        emitted = emit_timing_means(rows).decode("utf-8")
        assert emitted.splitlines()[1:] == ["A,1,1,inf", "B,1,1,nan"]

    HEADER = b"system,num_reads,batch,qpu_access_time_us\n"

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"system,reads,batch,time\nA,1,1,2\n",
            HEADER + b"A,x,1,2\n",
            HEADER + b"A,1.5,1,2\n",
            HEADER + b"A,1,1,abc\n",
            HEADER + b"A,1,1\n",
            HEADER + b"A,1,1,2,3\n",
            HEADER + b"A," + b"1" * 200_000 + b",1,2\n",
        ],
        ids=[
            "empty", "wrong-header", "text-reads", "float-reads", "text-time", "short-row",
            "long-row", "huge-cell",
        ],
    )
    def test_rejects_malformed_log(self, data):
        with pytest.raises(DimensionError):
            load_timing_log(data)

    @pytest.mark.parametrize("cell", [b"nan", b"inf", b"-inf", b"1e999"])
    def test_rejects_non_finite_time(self, cell):
        with pytest.raises(ModelError, match="timing log row 2"):
            load_timing_log(self.HEADER + b"A,1,1," + cell + b"\n")
