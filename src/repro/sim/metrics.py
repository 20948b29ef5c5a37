"""The anonymity ledger.

:class:`AnonymityLedger` records every identity-revealing fact each
party observes.  The paper's privacy claim becomes an assertion over
this ledger: the *time server's* entry must stay empty.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class PartyView:
    """What one party has directly observed."""

    sender_identities: set[bytes] = field(default_factory=set)
    receiver_identities: set[bytes] = field(default_factory=set)
    plaintexts_seen: int = 0
    release_times_seen: set[bytes] = field(default_factory=set)

    def is_empty(self) -> bool:
        return (
            not self.sender_identities
            and not self.receiver_identities
            and self.plaintexts_seen == 0
            and not self.release_times_seen
        )


class AnonymityLedger:
    """Per-party observation record backing the privacy assertions."""

    def __init__(self):
        self._views: dict[str, PartyView] = defaultdict(PartyView)

    def view(self, party: str) -> PartyView:
        return self._views[party]

    def record_sender_seen(self, party: str, identity: bytes) -> None:
        self._views[party].sender_identities.add(identity)

    def record_receiver_seen(self, party: str, identity: bytes) -> None:
        self._views[party].receiver_identities.add(identity)

    def record_plaintext_seen(self, party: str) -> None:
        self._views[party].plaintexts_seen += 1

    def record_release_time_seen(self, party: str, label: bytes) -> None:
        self._views[party].release_times_seen.add(label)

    def server_learned_nothing(self, party: str = "time-server") -> bool:
        """The paper's headline anonymity property as a predicate."""
        return self._views[party].is_empty()
