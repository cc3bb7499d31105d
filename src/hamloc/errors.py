"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller handed us data that violates a documented precondition."""


class ConsistencyError(RuntimeError):
    """Internal structure turned out to be inconsistent (a bug upstream,
    or data that should have been rejected by validation)."""


class CompositionUnavailable(RuntimeError):
    """A composite was requested that the width-bounded data cannot
    represent; the caller decides whether that is fatal."""


# What walking a JSON document of the wrong shape raises; the loaders
# turn these into InputError.
MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)
