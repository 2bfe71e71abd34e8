"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library-specific failures without accidentally swallowing
programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ProtocolError(ReproError):
    """A protocol definition is inconsistent (e.g. missing transitions)."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid configuration."""


class TopologyError(ReproError):
    """A graph is invalid for the requested operation (e.g. disconnected)."""


class ConfigurationError(ReproError):
    """An experiment or simulator configuration is invalid."""


class InvariantViolation(ReproError):
    """A deterministic property proved in the paper failed to hold.

    Raising this exception signals a bug in the implementation (or an
    intentionally adversarial initial configuration that violates Eq. (2) of
    the paper), never expected statistical noise.
    """


class ConvergenceError(ReproError):
    """An execution did not converge within the allowed number of rounds."""


class TraceError(ReproError):
    """An execution trace is malformed or does not contain requested data."""


class ServiceError(ReproError):
    """The sweep service rejected a request or a submitted sweep failed.

    Raised client-side (:mod:`repro.service.client`) for transport
    failures, non-2xx responses and sweeps that end in a terminal state
    other than ``done``; the server turns it (and
    :class:`ConfigurationError`) into structured JSON error responses
    instead of stack traces.
    """


def require_int(value: object, name: str) -> int:
    """``value`` as an ``int``, or a :class:`ConfigurationError` naming
    ``name``.  Python and numpy integers are accepted; bools, floats and
    everything else are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer; got {value!r}")
    return int(value)
