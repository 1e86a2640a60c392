"""Exception hierarchy shared by the library and the CLI.

Each class carries the process exit code the CLI maps it to, so error
categories stay distinguishable from shell scripts.
"""


class CarnnError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(CarnnError):
    """Invalid configuration, dimensions, or out-of-range identifiers."""

    exit_code = 2


class InputOutputError(CarnnError):
    """Unreadable or unwritable files."""

    exit_code = 3


class DataError(CarnnError):
    """Structurally valid input that cannot be used (empty after filtering,
    unordered timestamps, unknown user, empty test set)."""

    exit_code = 4


class FormatError(CarnnError):
    """Input file does not look like the declared format (majority of
    records malformed, bad magic bytes, unsupported version)."""

    exit_code = 5


class CompatibilityError(CarnnError):
    """Model file and prepared dataset disagree on the item count, or on the
    number of input contexts or gap bins of a switched-on bank; or a cache
    or a model file is in a format that is no longer read."""

    exit_code = 6


class NumericalError(CarnnError):
    """Non-finite values encountered during training."""

    exit_code = 7
