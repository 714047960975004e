"""Exception types shared across the package."""


class NetEpiError(Exception):
    """Base class for all package errors."""


class ParameterError(NetEpiError, ValueError):
    """A parameter is outside its allowed range."""


class UndefinedMetricError(NetEpiError, ValueError):
    """A graph metric is undefined for this graph (too few nodes/edges)."""


class EdgeListFormatError(NetEpiError, ValueError):
    """A line of an edge-list file could not be parsed."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class PowerLawFitError(NetEpiError, ValueError):
    """Not enough tail data to fit a power-law exponent."""

    def __init__(self, tail_size: int, needed: int = 10):
        self.tail_size = tail_size
        super().__init__(
            f"power-law fit needs at least {needed} tail nodes, got {tail_size}"
        )


class StateError(NetEpiError, ValueError):
    """A compartment state is inconsistent with the graph it runs on."""


class ProbabilityOverflowError(NetEpiError, ValueError):
    """A per-step transition probability left [0, 1]."""


class ConfigError(NetEpiError, ValueError):
    """A run configuration document is invalid."""
