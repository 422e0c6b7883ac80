"""Exception taxonomy shared by the library and the command line tools.

Configuration problems and broken or unsupported input data are kept
apart so batch tools can map them to distinct exit codes.
"""


class ScenehogError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ScenehogError):
    """A configuration value or combination of values is invalid."""


class DataError(ScenehogError):
    """Input data cannot be used (malformed, unsupported or degenerate)."""


class FormatError(DataError):
    """A file does not match its declared container format."""


class UnsupportedCodecError(DataError):
    """A container is well formed but uses an encoding we do not read."""


class DatasetError(DataError):
    """A dataset directory layout is unusable."""


class ProtocolError(DataError):
    """An evaluation protocol cannot be carried out on the given labels."""


class TrainingError(DataError):
    """A training set is degenerate (for example only one class present)."""
