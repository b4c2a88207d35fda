"""Exception types shared across the package.

Plain ValueError is used for ordinary bad arguments (wrong range, wrong
shape); the classes here mark failures a caller may want to catch
specifically, e.g. the CLI maps them to distinct exit codes.
"""


class ConfigError(ValueError):
    """Invalid experiment configuration.

    ``path`` is a JSON-pointer style location of the offending entry,
    e.g. ``/geometry/n_offsets``.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class DatasetFormatError(ValueError):
    """A dataset, sinogram set, checkpoint or result on disk is malformed:
    a file of it cannot be read (say, a directory stands in its place),
    meta.json is not a JSON object, has the wrong format tag or a missing
    or mistyped entry, or a payload has the wrong size or a non-finite
    value.  The message names the file."""


class MissingArtifactError(FileNotFoundError):
    """A required input file (dataset, checkpoint, results dir) is absent,
    or a config file cannot be read."""


class NumericalError(RuntimeError):
    """A numerical routine diverged or produced non-finite values."""


class GenerationError(RuntimeError):
    """Rejection sampling failed to produce a feasible phantom."""


class TapeError(RuntimeError):
    """Backward pass requested on a released autodiff graph."""
