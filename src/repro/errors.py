"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError):
    """An array had an unexpected shape or dimensionality."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ConstraintError(ReproError):
    """A domain constraint was misconfigured or violated."""


class CoverageError(ReproError):
    """Neuron-coverage bookkeeping was used inconsistently."""


class DatasetError(ReproError):
    """A synthetic dataset generator received invalid parameters."""


class FarmError(ReproError):
    """A farm daemon / job-queue operation failed (see :mod:`repro.farm`)."""
