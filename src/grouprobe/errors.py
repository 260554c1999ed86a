"""Exception types shared across the package."""

from __future__ import annotations


class GrouprobeError(Exception):
    """Base class for all package-specific failures."""


class InvalidSpecError(GrouprobeError, ValueError):
    """A data or optimizer specification violates its declared constraints."""


class ShapeError(GrouprobeError, ValueError):
    """Array arguments have inconsistent or unexpected shapes."""


class InvalidInputError(GrouprobeError, ValueError):
    """An operation was called with arguments outside its contract."""


class DegenerateInputError(GrouprobeError, ValueError):
    """Inputs are individually valid but make the requested quantity undefined."""


class DivergedError(GrouprobeError, RuntimeError):
    """Training produced a non-finite loss or gradient.

    The message ends with whichever of the run's tag, its seed and the epoch
    are known, in that order, and the same three are attributes.
    """

    def __init__(self, message: str, epoch: int | None = None, tag: str | None = None,
                 seed: int | None = None):
        where = ", ".join(f"{name} {v}" for name, v in (("run", tag), ("seed", seed), ("epoch", epoch))
                          if v is not None)
        super().__init__(f"{message} ({where})" if where else message)
        self.epoch, self.tag, self.seed = epoch, tag, seed


class ConfigError(GrouprobeError, ValueError):
    """An experiment config file failed schema validation."""
