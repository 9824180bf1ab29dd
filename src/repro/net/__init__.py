"""Live peer runtime: the SpiderNet protocols over real asyncio transports.

The reproduction has two execution substrates for the same protocol
logic (see ``docs/ARCHITECTURE.md``):

* the synchronous wave execution in :mod:`repro.core.bcp`,
* this package — a **live runtime** where probes, session acks and
  maintenance pings are length-prefixed frames on asyncio transports,
  run on a real event loop or on the virtual-time loop of
  :mod:`repro.sim.vtime` (the paper's event-driven simulator, with the
  production daemon as the node model).

Both call the same wrapped :class:`~repro.core.bcp.BCP` per-hop
methods, so Steps 2.1–2.4 of the paper's protocol exist exactly once.

Modules
-------
``codec``      the wire format: binary frames behind a version byte
``transport``  ``LoopbackTransport`` (queues, injectable latency/loss)
               and ``TcpTransport`` (protocols, connection pool)
``rpc``        request/response with timeouts, retries + backoff, dedup
``peer``       the peer daemon (probe processing, soft-state timers,
               session ack handling, maintenance pings)
``directory``  the per-peer slice of the service directory and the
               peers that queried each key (the invalidation targets)
``guard``      ``SharedStateGuard`` — seals the scenario's registry,
               pool and DHT storage to prove no daemon ever reads them
``measurement`` the topology measurement plane: active probing, passive
               RTT sampling, per-link EWMA estimators, dead-path
               detection, and the ``MeasuredOverlayView`` adaptive
               routing feeds on
``accounting`` ``MessageLedger`` adapter mapping wire frames onto the
               simulation's overhead-accounting categories
``cluster``    boots N peers on localhost and composes end-to-end
``admission``  per-peer overload survival: session admission with fast
               ``Busy`` rejection, probe shedding/degradation
``scaleout``   multi-process launcher + open-loop load driver
               (``python -m repro cluster``)
"""

from .accounting import LedgerTap
from .admission import AdmissionConfig, LoadGuard
from .codec import (
    CodecError,
    FrameReader,
    WIRE_VERSION,
    decode_frame,
    encode_frame,
)
from .cluster import ClusterConfig, LiveCluster
from .directory import DirectorySlice
from .guard import SharedStateGuard, SharedStateViolation
from .measurement import (
    LinkEstimator,
    MeasuredOverlayView,
    MeasurementConfig,
    MeasurementPlane,
)
from .peer import PeerDaemon
from .scaleout import (
    LoadDriver,
    RequestRecord,
    ScaleoutConfig,
    ScaleoutController,
    run_scaleout,
    summarize_records,
)
from .rpc import (
    RetryPolicy,
    RpcEndpoint,
    RpcError,
    RpcFailure,
    RpcTimeout,
)
from .transport import LoopbackTransport, TcpTransport, TransportError

__all__ = [
    "CodecError",
    "FrameReader",
    "WIRE_VERSION",
    "decode_frame",
    "encode_frame",
    "LoopbackTransport",
    "TcpTransport",
    "TransportError",
    "RetryPolicy",
    "RpcEndpoint",
    "RpcError",
    "RpcFailure",
    "RpcTimeout",
    "LedgerTap",
    "LinkEstimator",
    "MeasuredOverlayView",
    "MeasurementConfig",
    "MeasurementPlane",
    "PeerDaemon",
    "DirectorySlice",
    "SharedStateGuard",
    "SharedStateViolation",
    "ClusterConfig",
    "LiveCluster",
    "AdmissionConfig",
    "LoadGuard",
    "LoadDriver",
    "RequestRecord",
    "ScaleoutConfig",
    "ScaleoutController",
    "run_scaleout",
    "summarize_records",
]
