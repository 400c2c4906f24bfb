"""Encoding of the arbitrage-loop search as a QUBO, and decoding back.

Variables are one-hot assignments "currency c sits at loop position p" over
K positions, where position K is expected to repeat position 1's currency
(the closing conversion is the transition from position K-1 to K).  Five
term families populate the matrix:

  rate         pair (c at k, d at k+1), c != d, weighted by the log-rate of
               the c->d conversion: selects profitable transitions
  one_hot      pair of different currencies at the same position: penalizes
               crowded positions
  endpoint     couples each currency's position-1 and position-K variables:
               with a negative weight, mismatched endpoints cost energy
  consecutive  pair (c at k, c at k+1): prices staying on the same currency,
               a small negative default nudges solutions toward short loops
  fill         linear term on every variable: a negative weight pays for
               occupying positions so none are left empty

With the shipped calibration every constraint-violating bitvector sits
strictly above the best feasible loop, so the ground state is always a
decodable loop; see docs/weight_calibration.md for the derivation.
:func:`build_qubo` tags a QUBO built under such weights with its shape
(``q.loop_shape``), and :func:`loop_optimum` then finds its ground state
among closed walks alone, with a min-plus DP over the few coefficients a
loop reads (:func:`loop_tables`), at any size; ``solvers.solve_exact``
takes that route.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .errors import DimensionError, ModelError, NotFeasible, TooLarge
from .qubo import ENERGY_EPS, QuboMatrix, _binary
from .rates import LogWeightMatrix, RateMatrix, cycle_product

MULTIPLE_IN_POSITION = "MultipleInPosition"
EMPTY_POSITION = "EmptyPosition"
OPEN_LOOP = "OpenLoop"


@dataclass(frozen=True)
class ProblemShape:
    """Problem dimensions: N currencies, K loop positions.

    K counts the repeated closing currency as its own position, so a
    triangle over 3 currencies needs K = 4.  K = 2 is admitted as a
    degenerate testing shape (the loop [c, c]) and flagged as trivial.
    """

    n_currencies: int
    loop_length: int

    def __post_init__(self) -> None:
        if self.n_currencies < 2:
            raise ModelError(f"need at least 2 currencies, got {self.n_currencies}")
        if self.loop_length < 2:
            raise ModelError(f"loop length must be at least 2, got {self.loop_length}")
        if self.loop_length > self.n_currencies + 1:
            raise ModelError(
                f"loop length {self.loop_length} cannot exceed "
                f"n_currencies + 1 = {self.n_currencies + 1}"
            )

    @property
    def n_vars(self) -> int:
        return self.n_currencies * self.loop_length

    @property
    def is_trivial(self) -> bool:
        """True for the degenerate K=2 shape whose only loops are [c, c]."""
        return self.loop_length == 2


@dataclass(frozen=True)
class HamiltonianWeights:
    """Signed weights of the five term families.

    ``rate`` must be positive (the profit objective has to be active);
    the rest carry whatever sign their role needs -- see module docstring.
    """

    rate: float
    one_hot: float
    endpoint: float
    consecutive: float
    fill: float

    def __post_init__(self) -> None:
        vals = astuple(self)
        if not all(math.isfinite(v) for v in vals):
            raise ModelError(f"weights must be finite, got {vals}")
        if not self.rate > 0:
            raise ModelError(f"rate weight must be positive, got {self.rate}")


@dataclass(frozen=True)
class Violation:
    kind: str
    position: int | None = None


@dataclass
class DecodedLoop:
    """A bitvector read back as K positions, with any constraint violations.

    ``positions[k]`` is the single currency at position k+1, or None when
    that position is empty or crowded.
    """

    positions: list[int | None]
    violations: list[Violation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def loop(self) -> list[int]:
        if not self.feasible:
            raise NotFeasible(f"loop has violations: {self.violations}")
        return [c for c in self.positions]  # type: ignore[misc]


def var_index(curr: int, pos: int, shape: ProblemShape) -> int:
    """Flat variable index for currency ``curr`` at 1-based position ``pos``."""
    if not (0 <= curr < shape.n_currencies):
        raise IndexError(f"currency {curr} out of range [0, {shape.n_currencies})")
    if not (1 <= pos <= shape.loop_length):
        raise IndexError(f"position {pos} out of range [1, {shape.loop_length}]")
    return curr * shape.loop_length + (pos - 1)


def var_position(flat: int, shape: ProblemShape) -> tuple[int, int]:
    """Inverse of :func:`var_index`: flat index -> (currency, 1-based position)."""
    if not (0 <= flat < shape.n_vars):
        raise IndexError(f"flat index {flat} out of range [0, {shape.n_vars})")
    return flat // shape.loop_length, flat % shape.loop_length + 1


def _grid(values, shape: ProblemShape) -> np.ndarray:
    """Per-variable ``values`` as an (N, K) grid: ``grid[c, p - 1]`` is the
    value of variable :func:`var_index` ``(c, p)``."""
    return np.asarray(values).reshape(shape.n_currencies, shape.loop_length)


def default_weights(
    w: LogWeightMatrix, shape: ProblemShape, rate: float = 1.0
) -> HamiltonianWeights:
    """Calibrated weights under which constraint violations never pay off.

    Penalty magnitudes scale with ``rate * (max|w| * K + 1)`` so that the
    largest possible log-rate swing, plus the fill reward itself, cannot
    finance an extra currency in a position, an empty position, or an open
    loop.  The consecutive-repeat reward is kept far below any real profit
    gap so it only breaks ties toward shorter loops.  The exhaustive
    dominance check in the test suite validates the formula rather than
    taking it on faith; docs/weight_calibration.md walks the bound.
    """
    if rate <= 0:
        raise ModelError(f"rate weight must be positive, got {rate}")
    k = shape.loop_length
    max_w = w.max_abs()
    fill_unit = rate * (max_w * (k - 1) + 1.0)
    guard_unit = rate * (max_w * k + 1.0)
    return HamiltonianWeights(
        rate=rate,
        one_hot=4.0 * guard_unit,
        endpoint=-2.0 * guard_unit,
        consecutive=-0.001 * rate,
        fill=-2.0 * fill_unit,
    )


def build_qubo(
    w: LogWeightMatrix, shape: ProblemShape, weights: HamiltonianWeights
) -> QuboMatrix:
    """Assemble the loop-search QUBO over N*K one-hot variables.

    Term placement:
      * rate: for every ordered pair (i, j), i != j, and k in 1..K-1,
        ``rate * w[i][j]`` couples (i at k) with (j at k+1).  Both
        orientations of each pair are priced; real quotes are asymmetric.
        Pairs whose coefficient is zero are left out.
      * one_hot: couples every unordered pair of currencies at position k.
      * endpoint: expanding ``C * sum_i (1 - (x_i1 - x_iK)^2)`` gives a
        ``C*N`` constant (tracked in the offset), ``-C`` linear on each
        endpoint variable, and ``+2C`` on the pair.
      * consecutive: couples (i at k) with (i at k+1).
      * fill: linear on every variable.

    Each family is one bulk accumulation, added in the order listed; that
    order fixes the float sums.  No cell gets more than two terms today
    (endpoint and fill on the diagonal, endpoint and consecutive at
    K = 2), so the bits do not yet depend on it.

    ``q.loop_shape`` is ``shape`` when :func:`weights_dominate`, else None.
    """
    if w.n != shape.n_currencies:
        raise ModelError(
            f"weight matrix is {w.n}x{w.n} but shape declares "
            f"{shape.n_currencies} currencies"
        )
    n = shape.n_currencies
    var = _grid(np.arange(shape.n_vars), shape)
    curr = np.arange(n)
    q = QuboMatrix(shape.n_vars)

    coeff = weights.rate * w.w
    i, j = np.nonzero((coeff != 0.0) & (curr[:, None] != curr))
    q.add_terms(var[i, :-1], var[j, 1:], coeff[i, j, None])

    i, j = np.nonzero(curr[:, None] < curr)
    q.add_terms(var[i].T, var[j].T, weights.one_hot)

    c = weights.endpoint
    q.offset += c * n
    q.add_terms(var[:, [0, -1, 0]], var[:, [0, -1, -1]], [-c, -c, 2.0 * c])

    q.add_terms(var[:, :-1], var[:, 1:], weights.consecutive)
    q.add_terms(var, var, weights.fill)
    q.loop_shape = shape if weights_dominate(w, shape, weights) else None
    return q


def encode_loop(loop, shape: ProblemShape) -> tuple[int, ...]:
    """Bitvector with exactly K bits set, one per loop position."""
    seq = list(loop)
    if len(seq) != shape.loop_length:
        raise DimensionError(
            f"loop has {len(seq)} positions, shape wants {shape.loop_length}"
        )
    bits = [0] * shape.n_vars
    for pos, curr in enumerate(seq, start=1):
        bits[var_index(curr, pos, shape)] = 1
    return tuple(bits)


def decode(x, shape: ProblemShape) -> DecodedLoop:
    """Read a bitvector back into positions, collecting violations as data.

    Violations recorded: more than one currency in a position, an empty
    position, and (only when both endpoints hold a single currency) a loop
    that does not close.  A state that is not a vector of ``n_vars`` 0s
    and 1s (bools pass) is a :class:`DimensionError`.
    """
    bits = _binary(x)
    if bits.ndim != 1:
        raise DimensionError(f"state must be a vector, got shape {bits.shape}")
    if len(bits) != shape.n_vars:
        raise DimensionError(f"state length {len(bits)} != {shape.n_vars}")
    grid = _grid(bits, shape) != 0
    counts = grid.sum(axis=0).tolist()
    positions: list[int | None] = [
        c if count == 1 else None for c, count in zip(grid.argmax(axis=0).tolist(), counts)
    ]
    violations = [
        Violation(MULTIPLE_IN_POSITION if count else EMPTY_POSITION, pos)
        for pos, count in enumerate(counts, start=1)
        if count != 1
    ]
    first, last = positions[0], positions[-1]
    if first is not None and last is not None and first != last:
        violations.append(Violation(OPEN_LOOP))
    return DecodedLoop(positions=positions, violations=violations)


def profitability(loop: DecodedLoop, rates: RateMatrix) -> float:
    """Product of conversion rates along a feasible loop's K-1 transitions.

    Position K repeats position 1, so the closing conversion is already
    one of those transitions.  Values above 1 mean the loop turns a profit.
    An infeasible loop has no price: :class:`NotFeasible`.
    """
    return cycle_product(rates, loop.loop[:-1])


def canonical_rotation(loop) -> list[int]:
    """Rotate a closed loop so the smallest currency index leads.

    Rotations of a closed loop are the same trading cycle; this picks the
    deterministic representative, keeping the closing repeat in place.
    """
    seq = list(loop)
    if len(seq) < 2 or seq[0] != seq[-1]:
        return seq
    body = seq[:-1]
    rotations = [tuple(body[i:] + body[:i]) for i in range(len(body))]
    best = min(rotations)
    return list(best) + [best[0]]


# -- exact optimum -------------------------------------------------------------

# The tie walk lists at most this many loops within ENERGY_EPS of the
# optimum.  A consistent market without a consecutive reward ties all
# N^(K-1) of its closed walks.
EXACT_MAX_TIED_LOOPS = 1 << 16
# The DP's and the tie walk's temporaries hold at most this many floats
# (8 MiB), or one start's N x N when that is more.
_DP_BLOCK_ELEMENTS = 1 << 20


def loop_tables(q: QuboMatrix, shape: ProblemShape):
    """The coefficients a feasible state's energy reads: ``(lin, pair, close)``.

    A feasible state is a closed walk ``c_0 .. c_{K-1}``, ``c_{K-1} = c_0``,
    one currency per 0-based position p.  Its energy is ``q.offset +
    close[c_0] + sum_p lin[p, c_p] + sum_p pair[p, c_p, c_{p+1}]``:
    ``lin`` is (K, N), the linear term of c at p; ``pair`` is (K-1, N, N),
    the coupling of c at p with d at p + 1; ``close`` is (N,), the
    endpoint coupling of c at positions 1 and K, zero at K = 2, where
    ``pair[0, c, c]`` holds it.  No other coefficient of ``build_qubo``
    touches a feasible state.
    """
    n, k = shape.n_currencies, shape.loop_length
    upper = q.upper
    lin = _grid(np.diag(upper), shape).T
    pair = np.stack([upper[p::k, p + 1 :: k] + upper[p + 1 :: k, p::k].T for p in range(k - 1)])
    ends = np.arange(n) * k
    close = upper[ends, ends + k - 1] if k > 2 else np.zeros(n)
    return lin, pair, close


def weights_dominate(
    w: LogWeightMatrix, shape: ProblemShape, weights: HamiltonianWeights
) -> bool:
    """True when every infeasible state lies more than ``ENERGY_EPS`` above
    the best feasible one.

    These are the three sufficient conditions of
    docs/weight_calibration.md, each held by more than ``ENERGY_EPS``, and
    the non-negative consecutive reward they assume.
    """
    k = shape.loop_length
    reward, fill = -weights.consecutive, -weights.fill
    swing = weights.rate * w.max_abs() + reward
    margins = (
        weights.one_hot - (fill + 3 * swing + swing * k),  # a crowded position
        fill - (swing * (k - 1) - reward),  # an empty position
        -weights.endpoint - swing * k,  # an open loop
    )
    return reward >= 0 and min(margins) > ENERGY_EPS


def _tied_loops(lin, pair, close, block: int) -> np.ndarray:
    """Every closed walk within ``ENERGY_EPS`` of the cheapest, one per row.

    A min-plus DP runs backwards: ``togo[p, s, c]`` is the cheapest sum
    of the terms after position p of a walk that is at c there and back
    at its start s at position K-1, O(K * N^3) in blocks of ``block``
    starts.  The walk then grows every
    prefix, one position at a time, whose cost plus ``togo`` stays within
    ``ENERGY_EPS`` of the optimum; a prefix none of whose children pass
    (possible only by rounding) keeps its cheapest.
    """
    n = lin.shape[1]
    step = pair + lin[1:, None, :]  # step[p, c, d]: d's term at p + 1 and the coupling
    togo = np.empty_like(step)
    togo[-1] = step[-1].T
    for p in range(len(step) - 2, -1, -1):
        for lo in range(0, n, block):
            togo[p, lo : lo + block] = (step[p] + togo[p + 1, lo : lo + block, None, :]).min(axis=2)
    starts = np.arange(n)
    cost = lin[0] + close
    values = cost + togo[0, starts, starts]
    bar = values.min() + ENERGY_EPS
    keep = values <= bar
    walks, cost = starts[keep, None], cost[keep]
    rows = max(1, block * n)
    for p in range(len(step) - 1):
        grown, costs = [], []
        for lo in range(0, len(walks), rows):
            walk, prefix = walks[lo : lo + rows], cost[lo : lo + rows, None]
            child = prefix + step[p, walk[:, -1]]
            value = child + togo[p + 1, walk[:, 0]]
            keep = value <= bar
            stuck = np.flatnonzero(~keep.any(axis=1))
            keep[stuck, value[stuck].argmin(axis=1)] = True
            parent, d = np.nonzero(keep)
            grown.append(np.column_stack([walk[parent], d]))
            costs.append(child[parent, d])
            if sum(map(len, costs)) > EXACT_MAX_TIED_LOOPS:
                raise TooLarge(
                    f"more than {EXACT_MAX_TIED_LOOPS} loops lie within "
                    f"ENERGY_EPS {ENERGY_EPS} of the optimum"
                )
        walks, cost = np.concatenate(grown), np.concatenate(costs)
    return np.column_stack([walks, walks[:, 0]])


def loop_optimum(q: QuboMatrix, shape: ProblemShape) -> tuple[int, ...]:
    """The bits of the ground state of ``q``, given that it is a closed
    walk on ``shape``: the state enumeration would pick.

    The DP finds the loops within ``ENERGY_EPS`` of the optimum in
    O(K * N^3), and the lowest bits among them win, enumeration's tie
    rule; more than ``EXACT_MAX_TIED_LOOPS`` of them is :class:`TooLarge`.
    """
    block = max(1, _DP_BLOCK_ELEMENTS // shape.n_currencies**2)
    loops = _tied_loops(*loop_tables(q, shape), block).tolist()
    n, k = shape.n_vars, shape.loop_length

    def state_index(loop):  # the lowest index is the lowest bits
        return sum(1 << (n - 1 - c * k - p) for p, c in enumerate(loop))

    return encode_loop(min(loops, key=state_index), shape)


# -- model description output ------------------------------------------------


def model_to_json(
    shape: ProblemShape, weights: HamiltonianWeights, labels
) -> str:
    """Everything needed to decode a SampleSet without the builder state."""
    return json.dumps(
        {
            "n_currencies": shape.n_currencies,
            "loop_length": shape.loop_length,
            "weights": asdict(weights),
            "labels": list(labels),
        }
    )
