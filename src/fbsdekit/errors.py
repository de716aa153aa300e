"""Exception types shared across the package."""

import numpy as np


class FBSDEError(Exception):
    """Base class for all fbsdekit errors."""


class InvalidArgument(FBSDEError, ValueError):
    """An argument violates a documented precondition."""


class RankDeficiencyError(FBSDEError):
    """The unregularized normal equations are numerically singular."""


class NumericalFailure(FBSDEError):
    """A simulation or fit produced non-finite values.

    Carries enough context (iteration, time step, optionally path index)
    to locate the blow-up.
    """

    def __init__(self, message, *, iteration=None, step=None, path=None):
        super().__init__(message)
        self.iteration = iteration
        self.step = step
        self.path = path


class UnsupportedProblem(FBSDEError):
    """The problem lacks data required by the requested operation."""


def _check_state(state, step, what="state"):
    """Raise :class:`NumericalFailure` labelled with ``step`` and the first
    bad path if the state reached at node ``step + 1`` is non-finite."""
    if not np.all(np.isfinite(state)):
        bad = int(np.argwhere(~np.isfinite(state))[0][0])
        raise NumericalFailure(
            f"non-finite {what} while stepping to node {step + 1}",
            step=step,
            path=bad,
        )
