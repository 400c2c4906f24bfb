"""Tests for the benchmark's own pieces: generator, reference, statistics."""

import json
import math
import os
import time

import numpy as np
import pytest

import arbqubo as aq
from perfbench import calibrate
from perfbench.harness import END_TO_END_UNITS, PER_LAYER_UNITS
from perfbench.instances import make_instance
from perfbench.reference import StructureError, loop_optimum, loop_profit
from perfbench.stats import fit_cost, tail, tts99
from perfbench.tracing import Tracer, patched
from perfbench.workloads import WORKLOADS


def _qubo(inst):
    rates = aq.load_rates(inst.csv)
    w = aq.to_log_weights(rates)
    shape = aq.ProblemShape(inst.n_currencies, inst.loop_length)
    return rates, aq.build_qubo(w, shape, aq.default_weights(w, shape))


def test_generator_same_seed_same_bytes():
    a = make_instance("exact-20v", 3, 1, 5, 4, 3)
    b = make_instance("exact-20v", 3, 1, 5, 4, 3)
    c = make_instance("exact-20v", 4, 1, 5, 4, 3)
    assert a == b
    assert a.csv != c.csv


def test_generator_plants_cycle_with_unit_self_rates():
    inst = make_instance("reads-20v", 9, 0, 5, 4, (0, 2, 4))
    rates = aq.load_rates(inst.csv)
    assert np.all(np.diag(rates.rate) == 1.0)
    assert 1.05 <= inst.strength <= 1.09
    assert aq.cycle_product(rates, inst.cycle) == pytest.approx(inst.strength, rel=1e-12)


@pytest.mark.parametrize(
    "n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4)]
)
def test_dp_reference_matches_ground_state(n, k):
    inst = make_instance("test", n * 10 + k, 0, n, k, 2)
    rates, q = _qubo(inst)
    ref = loop_optimum(q.upper, q.offset, n, k)
    _, energy = aq.ground_state(q)
    assert ref.energy == pytest.approx(energy, abs=1e-9)
    shape = aq.ProblemShape(n, k)
    assert q.energy(aq.encode_loop(ref.loop, shape)) == pytest.approx(ref.energy, abs=1e-9)
    if k > 2:  # K = 2 admits only the trivial loop [c, c]
        assert loop_profit(rates.rate, ref.loop) >= 1.05 - 1e-12


def test_dp_reference_refuses_unmodelled_coupling():
    shape = aq.ProblemShape(4, 4)
    _, q = _qubo(make_instance("test", 1, 0, 4, 4, 2))
    # Currency 0 at position 1 with currency 1 at position 3: neither
    # adjacent nor the endpoint pair.
    q.add_coefficient(aq.var_index(0, 1, shape), aq.var_index(1, 3, shape), 0.5)
    with pytest.raises(StructureError):
        loop_optimum(q.upper, q.offset, 4, 4)


def test_tts99_formula():
    assert tts99(2.0, 0.0) == math.inf
    assert tts99(2.0, 0.99) == 2.0
    assert tts99(2.0, 1.0) == 2.0
    assert tts99(2.0, 0.5) == pytest.approx(2.0 * math.log(0.01) / math.log(0.5))
    with pytest.raises(ValueError):
        tts99(1.0, 1.5)


def test_fit_recovers_fixed_and_per_read():
    reads = [1, 3, 10, 30, 100]
    times = [1500.0 + 42.5 * r for r in reads]
    fixed, per_read, resid = fit_cost(reads, times)
    assert fixed == pytest.approx(1500.0)
    assert per_read == pytest.approx(42.5)
    assert resid < 1e-12


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    assert tail(values) == (20.0, pytest.approx(100.0 * 20 / 30), 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_speed_probe_samples_while_active_only():
    assert calibrate.kernel() == calibrate.kernel()
    probe = calibrate.SpeedProbe()
    with probe.active():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(probe.samples)
    time.sleep(0.1)
    assert taken >= 3 and len(probe.samples) == taken
    assert probe.spent > sum(probe.samples)  # spent includes the warm-up calls
    assert probe.mean_ms() > 0.0


def test_patched_spans_nest_and_restore():
    tracer = Tracer()
    original = aq.rates.load_rates
    inst = make_instance("test", 2, 0, 3, 3, 2)
    with patched(tracer):
        assert aq.rates.load_rates is not original
        with tracer.span("perfbench", "instance"):
            _qubo(inst)
    assert aq.rates.load_rates is original
    assert {s.name for s in tracer.spans} >= {"load_rates", "build_qubo", "instance"}
    root = tracer.spans[-1]
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(root.duration)


def test_benchmark_json_declares_the_printed_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
