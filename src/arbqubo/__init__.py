"""Currency-arbitrage loop search via QUBO encodings and classical samplers."""

from .bench import (
    BenchReport,
    BenchRow,
    QpuTimingModel,
    TimingLogRow,
    emit_report,
    emit_timing_means,
    first_optimum_read,
    load_report,
    load_timing_log,
    qpu_access_time,
    run_batches,
    timing_log_means,
)
from .errors import (
    ArbQuboError,
    DimensionError,
    DuplicateEntry,
    IncompleteMatrix,
    InvalidCycle,
    InvalidRate,
    InvalidSize,
    InvalidStrength,
    ModelError,
    NotFeasible,
    ParamError,
    TooLarge,
    WrongOrdering,
)
from .model import (
    DecodedLoop,
    HamiltonianWeights,
    ProblemShape,
    Violation,
    build_qubo,
    canonical_rotation,
    decode,
    default_weights,
    encode_loop,
    model_to_json,
    profitability,
    var_index,
    var_position,
)
from .oracle import OracleResult, best_cycle_bruteforce, has_arbitrage_bellman_ford
from .qubo import (
    QuboMatrix,
    Sample,
    SampleSet,
    qubo_to_json,
    sampleset_to_json,
)
from .rates import (
    LogWeightMatrix,
    RateMatrix,
    cycle_product,
    dump_rates_csv,
    dump_rates_json,
    generate_consistent,
    load_rates,
    plant_cycle,
    to_log_weights,
)
from .solvers import (
    SamplerParams,
    ground_state,
    sample_sa,
    sample_tabu,
    solve_exact,
)

__version__ = "0.1.0"
