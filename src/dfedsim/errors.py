"""Exception types raised across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class NoConnectableDevice(SimulationError):
    """No device in the topology can reach the base station; a round cannot proceed."""


class NoEligibleHead(SimulationError):
    """No cluster member is capable of direct base-station communication."""


class TrainingDiverged(SimulationError):
    """Training drove a network parameter past the float range."""


class DimensionMismatch(SimulationError):
    """Array shapes do not chain through the requested operation."""


class EmptyDataset(SimulationError):
    """An operation that needs samples received none."""


class SchemaMismatch(SimulationError):
    """A dataset file does not match the declared schema."""


class ParseError(SimulationError):
    """A CSV cell could not be parsed; carries row/column diagnostics.

    ``row`` is the 1-based line number in the file (header is line 1) and
    ``column`` the 0-based column index.
    """

    def __init__(self, message: str, row: int, column: int):
        super().__init__(f"{message} (row {row}, column {column})")
        self.row = row
        self.column = column


class ConfigError(SimulationError):
    """A scenario or CLI configuration value is invalid."""
