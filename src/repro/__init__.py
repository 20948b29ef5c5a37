"""repro — a from-scratch reproduction of Chan & Blake (ICDCS 2005),
"Scalable, Server-Passive, User-Anonymous Timed Release Cryptography".

The package layers as follows (bottom-up):

* :mod:`repro.math`, :mod:`repro.ec`, :mod:`repro.pairing` — the
  Gap-Diffie-Hellman substrate: big-integer fields, supersingular curves
  and the modified Tate pairing.
* :mod:`repro.crypto` — symmetric building blocks (KDF, stream cipher,
  MAC, authenticated encryption).
* :mod:`repro.core` — the paper's contributions: the TRE and ID-TRE
  schemes, the passive time server, BLS time-bound key updates, CCA
  transforms, multi-server encryption, policy locks, key insulation and
  the certification helpers.
* :mod:`repro.baselines` — every comparator the paper discusses
  (time-lock puzzles, Rivest's server, Mont's vault, conditional
  oblivious transfer, and the hybrid PKE+IBE construction).
* :mod:`repro.sim` — latency models, links and the paper's motivating
  scenarios (sealed-bid auctions, programming contests), run end to end
  on the :mod:`repro.service` node and client under a virtual-time
  event loop.

Quickstart::

    from repro import PairingGroup, TimedReleaseScheme, PassiveTimeServer
    import random

    rng = random.Random(7)
    group = PairingGroup("toy64")
    scheme = TimedReleaseScheme(group)
    server = PassiveTimeServer(group, rng=rng)
    receiver = scheme.generate_user_keypair(server.public_key, rng)

    ct = scheme.encrypt(b"bid: $1M", receiver.public, server.public_key,
                        b"2026-01-01T00:00Z", rng)
    update = server.publish_update(b"2026-01-01T00:00Z")
    print(scheme.decrypt(ct, receiver, update))
"""

from repro.pairing.api import GTElement, PairingGroup
from repro.pairing.params import PARAMETER_SETS, ParameterSet, get_parameter_set

__version__ = "1.0.0"

__all__ = [
    "PairingGroup",
    "GTElement",
    "ParameterSet",
    "PARAMETER_SETS",
    "get_parameter_set",
    "TimedReleaseScheme",
    "IdentityTimedReleaseScheme",
    "PassiveTimeServer",
    "TimeBoundKeyUpdate",
    "__version__",
]


def __getattr__(name):
    # Lazy imports keep `import repro` cheap and avoid circular imports
    # while still exposing the headline classes at the top level.
    if name in ("TimedReleaseScheme", "UserKeyPair"):
        from repro.core import tre

        return getattr(tre, name)
    if name == "IdentityTimedReleaseScheme":
        from repro.core.idtre import IdentityTimedReleaseScheme

        return IdentityTimedReleaseScheme
    if name in ("PassiveTimeServer", "TimeBoundKeyUpdate"):
        from repro.core import timeserver

        return getattr(timeserver, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
