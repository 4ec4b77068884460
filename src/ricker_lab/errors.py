"""Exception types shared across the toolkit."""


class RickerLabError(Exception):
    """Base class for all toolkit-specific failures."""


class PreconditionViolated(RickerLabError):
    """A documented precondition of an operation does not hold."""


class NonMonotoneDetected(RickerLabError):
    """An order relation that the embedding relies on was violated.

    Either the supplied planar map is not increasing/decreasing in the
    expected arguments, or floating point noise broke the comparison.
    """


class MaxIterExceeded(RickerLabError):
    """An iterative procedure hit its iteration cap before converging."""


class BracketFailure(RickerLabError):
    """A root bracket that should exist by construction could not be found."""


class Infeasible(RickerLabError):
    """No compatible box exists for the requested parameters."""


class NonConvergence(RickerLabError):
    """A cycle solver failed to settle on a solution."""


class ContradictionDetected(RickerLabError):
    """A shortcut rule fired but disagrees with the direct stability check."""


class WitnessConstructionFailed(RickerLabError):
    """The search for a certifying box exhausted its candidates."""


class NoCrossing(RickerLabError):
    """An eigenvalue-modulus scan found no unit-circle crossing in range."""


class OrbitOverflow(RickerLabError):
    """An orbit left the representable range."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"orbit exceeded overflow guard at step {step} (value {value!r})")
