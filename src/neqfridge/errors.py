"""Exception types shared across the package."""


class NeqFridgeError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(NeqFridgeError, ValueError):
    """Invalid or physically inconsistent model parameters."""


class ResonanceInfeasibleError(ParameterError):
    """gamma > E1/2: no real spiral-engine detuning satisfies the resonance."""


class DegenerateSteadyStateError(NeqFridgeError):
    """The generator kernel is not one-dimensional or carries no trace."""


class EmptyCoolingWindowError(NeqFridgeError):
    """No target-gap interval with a positive extracted heat current."""
