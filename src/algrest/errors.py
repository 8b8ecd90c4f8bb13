"""Exception types shared across the package.

``InputError`` covers everything a caller handed us that cannot be
processed (bad dimensions, non-closed forms, maps that are not curve
symmetries, inadmissible lift shifts).  The CLI maps it to exit code 2.
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid input: wrong shape, wrong degree, or unusable data."""


class NotClosedError(InputError):
    """The 2-form does not restrict to a closed class on the curve."""


class NotSymmetryError(InputError):
    """The map does not preserve the curve germ, so it induces no action."""


class LiftError(InputError):
    """No liftable vector field exists for the requested shift."""
