"""Exception types for numerical failure modes.

Contract violations (bad shapes, unknown parameters, invalid options,
wrong-typed file entries) raise plain ``ValueError`` where they are
checked.  The classes below mark failures that arise from the data or the
arithmetic itself, so callers can map them to a distinct exit status; each
is raised once, where the failure is found, and never re-wrapped.
"""


class NumericalError(Exception):
    """Base class for runtime numerical failures."""


class BlowUpError(NumericalError):
    """A simulated state became non-finite.

    ``index`` is the index of the last recorded sample before the blow-up.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(f"non-finite state encountered at sample index {index}")


class DegenerateBandwidthError(NumericalError):
    """Bandwidth selection found a zero distance quantile (coincident points)."""


class SolverError(NumericalError):
    """The least-squares solve failed or produced a non-finite solution."""
