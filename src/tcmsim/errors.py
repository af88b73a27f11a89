"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 1,
numerical failures with 2.  ``cli.main`` alone also maps a file's ``OSError``
or ``UnicodeDecodeError`` (what the operating system refuses) to exit 1.
"""


class TcmError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TcmError):
    """Invalid or unsupported run configuration (bad input, bad window,
    unsupported mode/convention combination, resource guard tripped)."""


class NumericalFailureError(TcmError):
    """A numerical invariant was violated beyond tolerance (norm drift,
    non-PSD density matrix, complex concurrence eigenvalues, ...)."""
