"""Exception types shared across the library."""


class VarInterpError(Exception):
    """Base class for algorithm failures."""


class NoExtremum(VarInterpError):
    """The leading strong-coupling coefficient has no positive stationary point."""


class DegenerateCurvature(VarInterpError):
    """b0''(c) vanishes; the correction scheme is singular."""


class NoCandidate(VarInterpError):
    """Neither an extremum nor a turning point was found in the scan window."""


class FloatOverflow(VarInterpError):
    """A trial-function sum, a trial frequency or a root of K left the float range."""


class NoConvergence(VarInterpError):
    """Iteration exhausted without meeting the residual target."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class IllConditioned(VarInterpError):
    """Least-squares fit matrix too ill-conditioned to trust."""
