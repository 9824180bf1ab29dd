"""Message-overhead accounting for the live transport.

The §6.1 overhead figures (``repro.experiments.overhead_comparison``)
read a :class:`~repro.sim.metrics.MessageLedger` under the simulation's
category keys — ``bcp_probe``, ``bcp_ack``, ``bcp_failure``,
``dht_route``, ``dht_replicate``.  :class:`LedgerTap` makes a live
cluster report the same books:

* **protocol charges** mirror the simulation exactly: one ``bcp_probe``
  (256 B nominal) per probe transmission, per-hop ``bcp_ack`` charges
  during the setup pass, one ``bcp_failure`` per failed composition.
  DHT lookups charge ``dht_route`` through the shared registry, as in
  sim mode.  This keeps live and sim numbers directly comparable.
* **wire charges** record what actually crossed the transport:
  ``net_probe`` / ``net_final`` / ``net_credit`` / ``net_session`` /
  ``net_ping`` / ``net_control`` / ``net_directory`` frames with their
  true encoded sizes, plus every response frame as ``net_ack``.  These
  keys are live-only (the simulator has no real frames) and never
  pollute the ``BCP_CATEGORIES`` totals.  ``net_directory`` covers the
  discovery plane (RegisterBatch / LookupRequest to the DHT owner of a
  function key, ReplicaInvalidate to the peers that queried it); the DHT
  *routing* cost of finding that owner still lands in ``dht_route``,
  charged per hop by
  :meth:`~repro.dht.pastry.PastryNetwork.route` exactly as in sim mode.
  ``net_measure`` books the measurement plane's active ``PathProbe``
  frames — the overhead budget of topology measurement, kept separate
  so probe traffic never inflates the protocol-comparison categories.
* **directory-tier counters** (``dir_cache_hit`` / ``dir_cache_miss``)
  audit the directory tier: every lookup the cache absorbs is a hit *and*
  a ``dht_route`` charge that never happened — the saved work is
  visible as the gap between the two books.
"""

from __future__ import annotations

from typing import Optional

from ..sim.metrics import MessageLedger
from . import codec

__all__ = ["LedgerTap", "WIRE_CATEGORY"]

# the simulation's nominal message sizes (bcp.py)
PROBE_SIZE = 256
ACK_SIZE = 128
FAILURE_SIZE = 64

WIRE_CATEGORY = {
    codec.ProbeTransfer: "net_probe",
    codec.FinalProbe: "net_final",
    codec.CreditReturn: "net_credit",
    codec.SessionConfirm: "net_session",
    codec.SessionRelease: "net_session",
    codec.MaintenancePing: "net_ping",
    codec.ComposeBegin: "net_control",
    codec.ComposeResult: "net_control",
    codec.RegisterBatch: "net_directory",
    codec.LookupRequest: "net_directory",
    codec.ReplicaInvalidate: "net_directory",
    # measurement plane: active probes are the only frames the plane
    # originates (acks ride the generic response path as net_ack)
    codec.PathProbe: "net_measure",
}


class LedgerTap:
    """Bridges transport frames and protocol events into a MessageLedger."""

    def __init__(self, ledger: Optional[MessageLedger] = None) -> None:
        self.ledger = ledger if ledger is not None else MessageLedger()

    # ------------------------------------------------------------------
    # transport tap:  transport(tap=ledger_tap.on_frame)
    # ------------------------------------------------------------------
    def on_frame(self, direction: str, envelope: dict, n_bytes: int) -> None:
        if direction != "tx":
            return  # count each frame once, at its sender
        if envelope.get("kind") == "res":
            self.ledger.record("net_ack", n_bytes)
            return
        category = WIRE_CATEGORY.get(type(envelope.get("body")), "net_other")
        self.ledger.record(category, n_bytes)

    # ------------------------------------------------------------------
    # protocol charges (sim-compatible keys)
    # ------------------------------------------------------------------
    def probe_sent(self) -> None:
        """One probe transmission — matches ``BCP._expand``'s charge.

        Final hops are *not* charged here: the destination runs
        ``BCP._final_hop``, which records its own ``bcp_probe`` exactly
        as the synchronous engine does."""
        self.ledger.record("bcp_probe", PROBE_SIZE)

    def ack_hops(self, n_hops: int) -> None:
        """Setup-ack charges for one branch path (``BCP._setup_phase``)."""
        self.ledger.record("bcp_ack", ACK_SIZE, max(n_hops, 1))

    def failure(self) -> None:
        self.ledger.record("bcp_failure", FAILURE_SIZE)

    # ------------------------------------------------------------------
    # directory-tier charges (live-only logical counters, zero bytes)
    # ------------------------------------------------------------------
    # Cache hits deliberately do NOT replay the dht_route charges the
    # uncached lookup would have made — unlike the sync engine's
    # per-wave WaveLookupCache, this tier's whole point is that the
    # routing work is really not done, and the ledger must show it.
    # The dir_* keys keep the saved/spent split auditable.
    def dir_cache_hit(self) -> None:
        """A lookup served from the peer-local positive cache."""
        self.ledger.record("dir_cache_hit")

    def dir_cache_miss(self) -> None:
        """A lookup that had to route the DHT and cross the wire."""
        self.ledger.record("dir_cache_miss")

    def directory_summary(self) -> dict:
        """The directory-tier books: {dir_* category: count}."""
        return {
            cat: self.ledger.count[cat]
            for cat in sorted(self.ledger.count)
            if cat.startswith("dir_")
        }

    # ------------------------------------------------------------------
    def wire_summary(self) -> dict:
        """The live-only wire books: {category: (frames, bytes)}."""
        return {
            cat: (self.ledger.count[cat], self.ledger.bytes[cat])
            for cat in sorted(self.ledger.count)
            if cat.startswith("net_")
        }
