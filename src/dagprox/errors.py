"""Exception types raised across the package."""


class DagproxError(Exception):
    """Base class for all dagprox errors."""


class CycleDetected(DagproxError):
    """The edge set contains a directed cycle."""


class DuplicateEdge(DagproxError):
    """The same ordered edge appears more than once."""


class IndexOutOfRange(DagproxError):
    """A node or coordinate index falls outside its valid range."""


class EmptyGroup(DagproxError):
    """A group with no coordinates was supplied."""


class DimensionMismatch(DagproxError):
    """Array shapes are inconsistent with the instance."""


class NonFiniteInput(DagproxError):
    """An input array contains NaN or infinity."""


class NonFiniteIterate(DagproxError):
    """A solver iterate became NaN or infinite."""


class InvalidStep(DagproxError):
    """Step sizes violate the solver's admissible range."""


class CapExceeded(DagproxError):
    """Problem size exceeds the dense-materialization cap."""


class NoConvergence(DagproxError):
    """An iterative routine hit its iteration cap before converging."""


class InsufficientData(DagproxError):
    """Too few usable records for the requested computation."""


class InnerSolverWarning(UserWarning):
    """An inner solve hit its iteration cap; the outer loop continues."""
