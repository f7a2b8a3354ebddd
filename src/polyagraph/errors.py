"""Exception types shared across the package."""


class PolyagraphError(Exception):
    """Base class for all polyagraph errors."""


class InvalidColor(PolyagraphError, ValueError):
    """A color index lies outside the range available at the given time."""


class CapExceeded(PolyagraphError, ValueError):
    """An exact computation was requested beyond its enumeration cap."""


class InsufficientData(PolyagraphError, ValueError):
    """Too few usable data points for the requested fit."""


class ScheduleParseError(PolyagraphError, ValueError):
    """A schedule string does not match the grammar at ``position``.

    ``position`` is None for a fault in a table file, whose message names
    the file and the line instead.
    """

    def __init__(self, message: str, position: int | None):
        self.position = position
        super().__init__(message if position is None else f"{message} (at position {position})")


class ScheduleRangeError(PolyagraphError, ValueError):
    """A schedule value is negative, a time or horizon is out of range, or a window is not flat."""


class ConfigError(PolyagraphError, ValueError):
    """An experiment config document is malformed."""
