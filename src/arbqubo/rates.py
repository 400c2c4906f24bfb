"""Exchange-rate tables and their log-weight transform.

A rate table is a dense N x N matrix where ``rate[i][j]`` is how many units
of currency ``j`` one unit of currency ``i`` buys.  The solver side of the
package never looks at rates directly: it consumes ``w = -ln(rate)``, under
which a trading loop multiplying out to a profit corresponds to a negative
cycle sum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEntry,
    IncompleteMatrix,
    InvalidCycle,
    InvalidRate,
    InvalidSize,
    InvalidStrength,
    ParamError,
    TooLarge,
)
from .qubo import QUBO_MAX_VARS

CSV_HEADER = ["from", "to", "rate"]


@dataclass(frozen=True)
class RateMatrix:
    """Directed exchange rates between ``n`` currencies.

    ``rate[i][j] > 0`` everywhere, ``rate[i][i] == 1`` exactly, and the
    array is read-only after construction so instances can be shared
    between concurrent solver runs.
    """

    labels: tuple[str, ...]
    rate: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.rate, dtype=float)
        n = len(self.labels)
        if n < 2:
            raise InvalidSize(f"need at least 2 currencies, got {n}")
        if arr.shape != (n, n):
            raise IncompleteMatrix(
                f"rate matrix shape {arr.shape} does not match {n} labels"
            )
        if len(set(self.labels)) != n:
            raise DuplicateEntry("currency labels must be unique")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise InvalidRate("rates must be finite and strictly positive")
        if np.any(np.diag(arr) != 1.0):
            raise InvalidRate("self-rates must equal 1 exactly")
        arr.flags.writeable = False
        object.__setattr__(self, "rate", arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class LogWeightMatrix:
    """Per-pair weights ``w[i][j] = -ln(rate[i][j])``; zero diagonal.

    A directed cycle has product-of-rates > 1 exactly when its weight
    sum is negative.
    """

    w: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.w, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise IncompleteMatrix(f"weight matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidRate("log weights must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "w", arr)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def max_abs(self) -> float:
        """Largest |w[i][j]| over off-diagonal pairs."""
        off = self.w[~np.eye(self.n, dtype=bool)]
        return float(np.max(np.abs(off))) if off.size else 0.0


def to_log_weights(rates: RateMatrix) -> LogWeightMatrix:
    """Transform a rate table into ``w = -ln(rate)`` (natural log)."""
    return LogWeightMatrix(w=-np.log(rates.rate))


def generate_consistent(n: int, seed: int) -> RateMatrix:
    """Synthesize an arbitrage-free market of ``n`` currencies.

    Rates are ratios of random positive potentials, so every directed
    cycle multiplies out to exactly 1: a clean no-arbitrage fixture.
    Deterministic for a fixed seed.  Every loop has at least 2
    positions, so past ``QUBO_MAX_VARS // 2`` currencies no QUBO can be
    built from the market: :class:`TooLarge`, before the n^2 rates are
    allocated.  A negative seed is a :class:`ParamError`.
    """
    if n < 2:
        raise InvalidSize(f"need n >= 2, got {n}")
    if n > QUBO_MAX_VARS // 2:
        raise TooLarge(
            f"{n} currencies exceeds {QUBO_MAX_VARS // 2}, past which even loop length 2 "
            f"exceeds the dense QUBO guard {QUBO_MAX_VARS}"
        )
    if seed < 0:
        raise ParamError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    potentials = np.exp(rng.uniform(-1.0, 1.0, size=n))
    rate = potentials[:, None] / potentials[None, :]
    np.fill_diagonal(rate, 1.0)
    labels = tuple(f"C{i}" for i in range(n))
    return RateMatrix(labels=labels, rate=rate)


def plant_cycle(
    base: RateMatrix, cycle: Sequence[int], strength: float
) -> RateMatrix:
    """Boost one directed cycle so its rate product gains a known factor.

    ``cycle`` lists distinct currency indices; the closing edge back to
    ``cycle[0]`` is implied.  Only the first edge of the cycle is scaled,
    so exactly one matrix entry changes and the perturbation stays easy
    to audit.
    """
    cyc = list(cycle)
    if len(cyc) < 2:
        raise InvalidCycle(f"cycle needs at least 2 currencies, got {len(cyc)}")
    if len(set(cyc)) != len(cyc):
        raise InvalidCycle(f"cycle indices must be distinct: {cyc}")
    if any(c < 0 or c >= base.n for c in cyc):
        raise InvalidCycle(f"cycle index out of range for n={base.n}: {cyc}")
    if not (strength > 1.0):
        raise InvalidStrength(f"strength must exceed 1, got {strength}")
    rate = np.array(base.rate)
    rate[cyc[0], cyc[1]] *= strength
    return RateMatrix(labels=base.labels, rate=rate)


def cycle_product(rates: RateMatrix, cycle: Sequence[int]) -> float:
    """Product of rates along ``cycle`` (closing edge implied)."""
    cyc = list(cycle)
    prod = 1.0
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        prod *= rates.rate[a, b]
    return float(prod)


# -- loading -----------------------------------------------------------------


def load_rates(source: BinaryIO | bytes, fmt: str = "csv") -> RateMatrix:
    """Parse a rate table from a byte stream in ``csv`` or ``json`` form.

    CSV: UTF-8 with header ``from,to,rate``, one directed pair per row.
    Every ordered pair (i, j), i != j, must be present; reverse edges are
    not auto-filled since arbitrage lives in asymmetric quotes.

    JSON: ``{"labels": [...], "rates": [[...]]}`` row-major, every rate a
    JSON number.

    Malformed input of either form raises a typed error.
    """
    if isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IncompleteMatrix(f"rate file is not UTF-8: {exc}") from None
    if fmt == "csv":
        return _rates_from_csv(text)
    if fmt == "json":
        return _rates_from_json(text)
    raise ValueError(f"unknown rate format: {fmt!r}")


def _rates_from_csv(text: str) -> RateMatrix:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IncompleteMatrix("empty rate file") from None
    if [h.strip().lower() for h in header] != CSV_HEADER:
        raise IncompleteMatrix(f"expected header {','.join(CSV_HEADER)!r}, got {header}")

    index: dict[str, int] = {}  # label -> position, in first-appearance order
    entries: dict[tuple[int, int], float] = {}
    for row in reader:
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(cells) != 3:
            raise IncompleteMatrix(f"malformed row: {row}")
        src, dst, raw = cells
        try:
            value = float(raw)
        except ValueError:
            raise InvalidRate(f"rate for {src}->{dst} is not a number: {raw!r}") from None
        if not math.isfinite(value) or value <= 0:
            raise InvalidRate(f"rate for {src}->{dst} must be positive, got {value}")
        pair = (index.setdefault(src, len(index)), index.setdefault(dst, len(index)))
        if pair in entries:
            raise DuplicateEntry(f"pair {src}->{dst} listed twice")
        if src == dst and value != 1.0:
            raise InvalidRate(f"self-rate for {src} must be 1, got {value}")
        entries[pair] = value

    labels = list(index)
    n = len(labels)
    if n < 2:
        raise IncompleteMatrix(f"need at least 2 currencies, found {n}")
    rate = np.full((n, n), np.nan)
    np.fill_diagonal(rate, 1.0)
    rate[tuple(np.array(list(entries)).T)] = list(entries.values())
    missing = np.argwhere(np.isnan(rate))  # row-major: the first is the one named
    if missing.size:
        i, j = missing[0]
        raise IncompleteMatrix(f"missing pair {labels[i]}->{labels[j]}")
    return RateMatrix(labels=tuple(labels), rate=rate)


def _rates_from_json(text: str) -> RateMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IncompleteMatrix(f"invalid JSON rate file: {exc}") from None
    if not isinstance(obj, dict) or "labels" not in obj or "rates" not in obj:
        raise IncompleteMatrix('JSON rates need keys "labels" and "rates"')
    labels, rows = obj["labels"], obj["rates"]
    if not isinstance(labels, list):
        raise IncompleteMatrix(f'"labels" must be a list, got {labels!r}')
    bad = [x for x in labels if type(x) is not str]
    if bad:
        raise IncompleteMatrix(f"labels must be strings, got {bad[0]!r}")
    n = len(labels)
    square = isinstance(rows, list) and len(rows) == n
    if not (square and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise IncompleteMatrix(f"rates grid must be {n}x{n}")
    bad = [v for r in rows for v in r if type(v) not in (int, float)]
    if bad:  # bools are ints to Python, and float() would parse strings
        raise InvalidRate(f"rates must be numbers, got {bad[0]!r}")
    try:
        rate = np.array(rows, dtype=float)
    except OverflowError:  # an integer literal past the float range
        raise InvalidRate("a rate exceeds the float range") from None
    return RateMatrix(labels=tuple(labels), rate=rate)


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    """The package's one CSV form: UTF-8, the ``header`` row first, then
    ``rows``, every line ended by ``\\n``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def dump_rates_csv(rates: RateMatrix) -> bytes:
    """Serialize to the canonical CSV form (deterministic byte output)."""
    labels, rate = rates.labels, rates.rate.tolist()
    pairs = ((i, j) for i in range(rates.n) for j in range(rates.n) if i != j)
    return csv_bytes(CSV_HEADER, ([labels[i], labels[j], repr(rate[i][j])] for i, j in pairs))


def dump_rates_json(rates: RateMatrix) -> bytes:
    obj = {"labels": list(rates.labels), "rates": rates.rate.tolist()}
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
