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
    """A trial-function sum, a trial frequency or a polynomial root left the float range."""


class NoConvergence(VarInterpError):
    """No solution: an iteration or a root search ended without a certified one."""


class IllConditioned(VarInterpError):
    """Least-squares fit matrix too ill-conditioned to trust."""
