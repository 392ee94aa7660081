"""The exception type for numerical failures.

Contract violations (bad shapes, unknown parameters, invalid options,
wrong-typed file entries) raise plain ``ValueError`` where they are
checked.  :class:`NumericalError` marks a failure that arises from the data
or the arithmetic itself, so callers can map it to a distinct exit status:
a simulated or integrated path that becomes non-finite, sample points so
coincident that no bandwidth exists, or a ridge system that cannot be
solved.  It is raised once, where the failure is found, and never
re-wrapped.
"""


class NumericalError(Exception):
    """A runtime numerical failure."""
