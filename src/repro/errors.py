"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError`, so a
caller can catch the whole family with a single ``except`` clause while the
library itself raises the most specific subclass available.  A bad
value (a negative length, too few bits, an empty batch) raises
:class:`ParameterError` rather than ``ValueError``.  Wrong-type misuse
(bytes expected, something else given) still raises ``TypeError``, as
Python's own operations would.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ParameterError(ReproError):
    """A parameter set, curve, or group was configured inconsistently."""


class BackendUnavailableError(ParameterError):
    """A field-arithmetic backend was requested but cannot be used here.

    Raised when an explicitly named backend (e.g. ``"gmpy2"``) is not
    installed in this environment.  The ``"auto"`` selector never raises
    this — it probes and falls back instead.
    """


class NotOnCurveError(ReproError):
    """Coordinates handed to a curve do not satisfy its equation."""


class NotInSubgroupError(ReproError):
    """A point is on the curve but outside the prime-order subgroup."""


class FieldMismatchError(ReproError):
    """Two field elements from different fields were combined."""


class GroupMismatchError(ReproError):
    """Two group elements (or a key and a group) disagree on parameters."""


class EncodingError(ReproError):
    """A byte string could not be decoded into the expected object."""


class DecodingError(EncodingError):
    """Malformed bytes at a deserialization boundary.

    Raised when wire input fails structural validation — bad framing,
    wrong length, an unknown prefix, or coordinates that do not lie on
    the expected curve/subgroup.  Subclasses :class:`EncodingError` so
    existing ``except EncodingError`` handlers keep working.
    """


class KeyValidationError(ReproError):
    """A public key failed its well-formedness check (Encrypt step 1)."""


class DecryptionError(ReproError):
    """Authenticated decryption failed (wrong key, wrong update, or tamper)."""


class UpdateVerificationError(ReproError):
    """A time-bound key update failed its self-authentication check."""


class UpdateNotAvailableError(ReproError):
    """The time server was asked for an update whose time has not passed."""


class PolicyError(ReproError):
    """A policy-lock condition set was malformed or unsatisfied."""


class ProtocolError(ReproError):
    """An interactive protocol (e.g. the COT baseline) was misused."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


# ----------------------------------------------------------------------
# Service-layer taxonomy (repro.service).
#
# Retry policies are driven by *exception type*, never by string
# matching: everything under :class:`TransientServiceError` is worth
# retrying (possibly against a different source), everything under
# :class:`PermanentServiceError` is not — repeating the same request
# can only fail the same way.  Security failures (a forged update) stay
# in their own classes above; they are never retried against the same
# payload, only against other sources.
# ----------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for time-server service-layer failures."""


class TransientServiceError(ServiceError):
    """A failure that may succeed on retry (timeout, outage, bad bytes
    on the wire).  Retry policies catch exactly this class."""


class ServiceTimeoutError(TransientServiceError):
    """A request exceeded its per-attempt timeout or overall deadline."""


class ServiceUnavailableError(TransientServiceError):
    """The node is down, restarting, or has not published the requested
    update yet; the request is fine and should be retried later."""


class CircuitOpenError(TransientServiceError):
    """The circuit breaker for a source is open; the request was not
    sent.  Transient by definition — the breaker half-opens after its
    reset timeout."""


class PermanentServiceError(ServiceError):
    """The request itself is invalid (malformed, unknown type); retrying
    the identical request cannot succeed."""
