"""Exception hierarchy shared by all acdkit modules.

Each of the three leaf classes carries the CLI's exit code for its kind of
failure in `exit_code`: bad configuration or incompatible inputs (1), file
problems (2), numerical breakdown (3). acdkit raises only the leaf classes.
"""


class AcdkitError(Exception):
    """Base class for all errors raised by acdkit."""

    exit_code: int


class ValidationError(AcdkitError):
    """Invalid configuration, malformed spec, or incompatible dimensions."""

    exit_code = 1


class DataIOError(AcdkitError):
    """Missing, unreadable, unwritable, or corrupt data files."""

    exit_code = 2


class NumericalError(AcdkitError):
    """Numerical failure: singular matrix, non-convergence, degenerate data."""

    exit_code = 3
