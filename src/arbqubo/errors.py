"""Exception types raised across the package."""


class ArbQuboError(Exception):
    """Base class for all arbqubo errors."""


# -- rate data -------------------------------------------------------------

class IncompleteMatrix(ArbQuboError):
    """A rate file is malformed, or a required directed currency pair is
    missing from it."""


class InvalidRate(ArbQuboError):
    """An exchange rate is non-positive, non-finite, or a self-rate != 1."""


class DuplicateEntry(ArbQuboError):
    """The same directed currency pair (or label) appears more than once."""


class InvalidSize(ArbQuboError):
    """Requested matrix size is too small to be meaningful."""


class InvalidCycle(ArbQuboError):
    """A cycle specification repeats an index, is too short, or is out of range."""


class InvalidStrength(ArbQuboError):
    """A planted-cycle strength is not strictly greater than 1."""


# -- QUBO / model ------------------------------------------------------------

class DimensionError(ArbQuboError):
    """A vector, loop, size or index has the wrong length, type or form
    for the problem at hand."""


class ModelError(ArbQuboError):
    """Problem shape, Hamiltonian weights or QUBO coefficients violate
    their invariants (e.g. a NaN or infinite coefficient or offset)."""


class NotFeasible(ArbQuboError):
    """An operation requiring a feasible decoded loop got an infeasible one."""


# -- solvers / bench -----------------------------------------------------

class TooLarge(ArbQuboError):
    """The instance exceeds a size guard: brute-force enumeration's, the
    dense QUBO matrix's, or a generated market's, which follows from it."""


class ParamError(ArbQuboError):
    """Sampler, search or timing parameters violate their invariants."""


class WrongOrdering(ArbQuboError):
    """A SampleSet is not in production order (e.g. the exact solver's optimum)."""
