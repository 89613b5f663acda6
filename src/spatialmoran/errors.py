"""Exception types shared across the package."""


class SpatialMoranError(Exception):
    """Base class for every error raised by this package."""


class InputError(SpatialMoranError):
    """Invalid user-supplied data: bad matrices, configurations, or parameters."""


class NotStochastic(InputError):
    """A weight matrix row does not sum to one, or an entry is negative."""


class NotStronglyConnected(InputError):
    """The positive off-diagonal edges do not form a strongly connected digraph."""


class TooLarge(InputError):
    """The vertex count exceeds the configured bound for the requested solver."""


class LevelOutOfRange(InputError):
    """A mutant-count level lies outside [0, n]."""


class AbsorbingStart(InputError):
    """A trajectory was started from an absorbing configuration."""


class AtomOnAbsorbing(InputError):
    """An initial distribution places weight on an absorbing configuration."""


class OutOfRange(InputError):
    """A parameter lies outside its admissible interval."""


class DegenerateCase(InputError):
    """The requested quantity is undefined for this parameter combination."""


class ZeroDenominator(InputError):
    """A closed-form denominator vanishes at the supplied parameters."""


class DegenerateDenominator(InputError):
    """A fixation-probability denominator is not strictly positive."""


class NumericalFailure(SpatialMoranError):
    """A numerical routine could not reach the required residual tolerance."""
