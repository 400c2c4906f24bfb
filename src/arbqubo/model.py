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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .errors import DimensionError, ModelError, NotFeasible
from .qubo import QuboMatrix, _json_float, _json_int
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
    that does not close.
    """
    bits = list(map(int, x))
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


# -- model description interchange -------------------------------------------


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


def model_from_json(text: str) -> tuple[ProblemShape, HamiltonianWeights, list[str]]:
    """Read :func:`model_to_json`'s text back; a field of the wrong JSON
    type, or labels that are not a list of one per currency, is a typed error."""
    obj = json.loads(text)
    n, k = (_json_int(obj[key], key) for key in ("n_currencies", "loop_length"))
    shape = ProblemShape(n, k)
    wts = obj["weights"]
    weights = HamiltonianWeights(
        **{f.name: _json_float(wts[f.name], f.name) for f in fields(HamiltonianWeights)}
    )
    labels = obj["labels"]
    if not (isinstance(labels, list) and len(labels) == n):
        raise DimensionError(f"labels must be a list of {n}, got {labels!r}")
    return shape, weights, [str(x) for x in labels]
