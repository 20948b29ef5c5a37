"""The protocol analyzer's trusted-name tables.

Like ``repro.lint.flow.registry``, this file is the analysis's
trusted computing base: every name the typestate pass believes
something about lives here.  Five kinds of declarations:

* **Update origins** — how an abstract :class:`TimeBoundKeyUpdate`
  enters a function in the FETCHED (untrusted) state: a ``from_bytes``
  decode on an update-named receiver.  Locally *constructed* updates
  (``TimeBoundKeyUpdate(label, point)``, ``publish_update(...)``) are
  trusted — the typestate protocol governs bytes that crossed a wire.
* **Verification guards** — the transitions FETCHED → VERIFIED.  Three
  shapes: boolean predicates whose result must *guard control flow*
  (``update.verify(...)``, ``pair_ratio_is_one(...)``), raising guards
  that verify-or-throw (``ensure_valid``), and the batch guard that
  authenticates a whole collection (``verify_archive``).  Declaring a
  name here asserts "this call really performs ê(sG, H1(T)) ==
  ê(G, I_T) (or the generalized product form) on its subject" — auditing the analyzer means auditing this
  claim for each entry.
* **Update sinks** — where a FETCHED update must never arrive: decrypt
  calls, inserts into cache/archive-named containers, and
  re-serialization (``to_bytes`` on the update itself).
* **Transport awaits** — the request/response calls whose ``await``
  must sit inside a timeout scope (RP402), and the wrapper calls that
  count as such a scope.
* **The service error taxonomy** — the exception classes a
  ``repro.service`` raise may use directly (RP404), plus the
  contract/harness errors that are classified at their catch sites by
  construction.
"""

from __future__ import annotations

# -- update origins (RP401) --------------------------------------------------

# ``X.from_bytes(...)`` is an untrusted decode when the receiver names
# an update type/value: the result is FETCHED until a guard passes.
UPDATE_DECODE_CALLS = frozenset({"from_bytes"})

# The receiver (or a variable/parameter) is update-shaped when its
# lowercased name contains this marker: `TimeBoundKeyUpdate`,
# `ResilientUpdate`, `update`, `pending_updates`, ...
UPDATE_NAME_MARKER = "update"

# -- verification guards (FETCHED -> VERIFIED) -------------------------------

# Boolean predicates: calling one yields a *verdict* for its subject
# (the receiver of ``x.verify(...)``, or the tracked arguments of
# ``pair_ratio_is_one(...)``).  The subject becomes VERIFIED only on
# the path where control flow established the verdict was true
# (``if not x.verify(...): raise`` / ``assert x.verify(...)``); a
# verdict computed but never consumed is RP405.
VERIFY_PREDICATES = frozenset({"verify", "pair_ratio_is_one", "verify_node_key"})

# Raising guards: return None, raise on failure — the subject is
# VERIFIED on the fall-through path unconditionally.
VERIFY_RAISING_GUARDS = frozenset({"ensure_valid"})

# The batch guard: authenticates every element of a collection argument.
# ``verify_archive`` returns the *failed* labels rather than a verdict,
# so the transition applies at the call itself; the obligation to drop
# the reported failures is the caller's (enforced dynamically by the
# chaos suite, not by this pass).
BATCH_VERIFY_CALLS = frozenset({"verify_archive"})

# Functions *named* like guards are the verifier TCB itself: the pass
# neither looks for sinks inside them nor requires them to guard their
# own subjects (``verify_archive`` serializes updates to hash its batch
# weights — that is its job).
GUARD_DEF_NAMES = VERIFY_PREDICATES | VERIFY_RAISING_GUARDS | BATCH_VERIFY_CALLS

# -- update sinks (RP401) ----------------------------------------------------

# Call names that *use* an update for decryption: an unverified update
# here defeats the paper's verify-before-use invariant outright.
UPDATE_USE_CALLS = frozenset({"decrypt", "decrypt_batch"})

# Storing an update into a container whose name carries one of these
# tokens is a cache insert: everything downstream trusts cache contents,
# so the insert is where verification must already have happened.
CACHE_NAME_TOKENS = frozenset({"cache", "caches", "updates", "archive", "store"})

# Re-serializing a fetched update (``update.to_bytes(...)``) forwards
# unauthenticated bytes to someone else under this process's implicit
# endorsement.
UPDATE_SERIALIZE_CALLS = frozenset({"to_bytes"})

# -- transport awaits (RP402) ------------------------------------------------

# Attribute calls that perform one network round-trip / send when their
# receiver is transport-shaped.  ``await``-ing one outside a timeout
# scope can hang a client forever on a stalled peer.
TRANSPORT_AWAIT_METHODS = frozenset({"request", "fetch", "send", "recv"})
TRANSPORT_RECEIVER_TOKENS = frozenset(
    {
        "transport",
        "transports",
        "source",
        "sources",
        "mirror",
        "mirrors",
        "peer",
        "peers",
        "conn",
        "connection",
        "session",
        "socket",
    }
)

# Wrappers that bound the enclosed await: ``asyncio.wait_for(call, t)``
# and deadline-scope helpers.  A transport call appearing as an
# argument of one of these is guarded.
DEADLINE_GUARD_CALLS = frozenset({"wait_for", "timeout_at", "with_deadline"})

# -- task tracking (RP403) ---------------------------------------------------

# The spawners whose result is an asyncio.Task that must be tracked.
TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

# Once assigned to a local, any of these uses discharges the tracking
# obligation (beyond the general "stored / awaited / passed on" rules
# in the analysis): explicitly ending or observing the task.
TASK_DISCHARGE_METHODS = frozenset({"cancel", "add_done_callback", "result"})

# -- the service error taxonomy (RP404) --------------------------------------

# Exception classes a `repro.service` raise may construct directly:
# the transient/permanent taxonomy from repro.errors.  Raising the
# bare ServiceError base is NOT allowed — it names neither class.
SERVICE_TAXONOMY_CLASSES = frozenset(
    {
        "TransientServiceError",
        "PermanentServiceError",
        "ServiceTimeoutError",
        "ServiceUnavailableError",
        "CircuitOpenError",
    }
)

# Classified-at-the-catch-site by construction:
# * ParameterError — caller-contract misuse, raised before any I/O;
#   never crosses the wire and retrying cannot help (permanent by
#   nature, kept distinct so misuse is not mistaken for peer failure).
# * DecodingError — the wire boundary's structural error; the client
#   re-wraps it into TransientServiceError (corrupt bytes) and the node
#   answers ERR_BAD_REQUEST, so every raise site has a classifying
#   catcher by design.
# * SimulationError — virtual-time harness misuse (deadlock detection);
#   aborts the test run, never reaches a retry policy.
SERVICE_WRAPPED_ERRORS = frozenset(
    {"ParameterError", "DecodingError", "SimulationError"}
)

# Handler types too broad to classify: catching one of these and not
# re-raising (or re-wrapping into the taxonomy) swallows errors the
# retry policies needed to see.
BROAD_EXCEPT_NAMES = frozenset({"Exception", "BaseException"})

# Package top-dirs each RP404 sub-check patrols.  Raise classification
# is a service-layer discipline; swallowed broad excepts also matter in
# the simulator, where a silent ``except Exception: pass`` voids the
# scenario's metrics.
RAISE_TAXONOMY_SCOPES = ("service",)
BROAD_EXCEPT_SCOPES = ("service", "sim")
