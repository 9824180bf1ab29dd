"""Overhead accounting of the live transport's messages.

The §6.1 overhead figures (``repro.experiments.overhead_comparison``)
read a :class:`~repro.sim.metrics.MessageLedger` under the simulation's
category keys — ``bcp_probe``, ``bcp_ack``, ``bcp_failure``,
``dht_route``, ``dht_replicate``.  A live cluster reports the same
books without any code of its own:

* **protocol charges** are BCP's own: every daemon's engine charges the
  cluster's one ledger from the methods the synchronous engine runs —
  one ``bcp_probe`` (256 B nominal) per probe transmission, per-hop
  ``bcp_ack`` charges for the setup pass, one ``bcp_failure`` per failed
  composition.  DHT lookups charge ``dht_route`` through the shared
  registry, as in sim mode.  So live and sim numbers stay directly
  comparable.
* **wire charges**, which :class:`LedgerTap` records, are what actually
  crossed the transport: ``net_probe`` / ``net_final`` / ``net_credit``
  / ``net_session`` / ``net_ping`` / ``net_control`` / ``net_directory``
  frames with their true encoded sizes, plus every response frame as
  ``net_ack``.  These keys are live-only (the simulator has no real
  frames) and never pollute the ``BCP_CATEGORIES`` totals.
  ``net_directory`` covers the discovery plane (RegisterBatch /
  LookupRequest to the DHT owner of a function key, ReplicaInvalidate to
  the peers that queried it); the DHT *routing* cost of finding that
  owner still lands in ``dht_route``, charged per hop by
  :meth:`~repro.dht.pastry.PastryNetwork.route` exactly as in sim mode.
  ``net_measure`` books the measurement plane's active ``PathProbe``
  frames — the overhead budget of topology measurement, kept separate
  so probe traffic never inflates the protocol-comparison categories.

A lookup the directory tier's cache answers charges no ``dht_route``;
the daemons' ``cache_hits`` / ``cache_misses`` counters
(``LiveCluster.directory_stats()``) count those.
"""

from __future__ import annotations

from typing import Optional

from ..sim.metrics import MessageLedger
from . import codec

__all__ = ["LedgerTap", "WIRE_CATEGORY"]

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
    """Books every frame a transport sends into a MessageLedger."""

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
