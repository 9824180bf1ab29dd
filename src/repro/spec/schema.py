"""Declarative composite-request specifications (the QoSTalk layer).

§2.1: "The user can specify the function graph using the visual
specification environment such as QoSTalk", the authors' XML-based QoS
language.  This module is that layer's programmatic equivalent: a
composite service request written as a plain dictionary (or JSON/XML
document, see :mod:`repro.spec.parser`) with human units — milliseconds,
loss rates, Mbps — validated and compiled into the internal
:class:`~repro.core.request.CompositeRequest` (additive QoS domain,
seconds).

Example::

    {
      "name": "mobile-news-stream",
      "functions": ["downscale", "stock_ticker", "requantify"],
      "edges": [["downscale", "stock_ticker"], ["stock_ticker", "requantify"]],
      "commutations": [["stock_ticker", "requantify"]],
      "qos": {"delay_ms": 800, "loss_rate": 0.05},
      "bandwidth_mbps": 1.2,
      "source": 0,
      "dest": 42,
      "duration_s": 1800,
      "failure_req": 0.05
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.function_graph import FunctionGraph
from ..core.qos import QoSRequirement, loss_to_additive
from ..core.request import CompositeRequest

__all__ = ["SpecError", "RequestSpec", "compile_spec", "spec_from_request"]


class SpecError(ValueError):
    """Raised for malformed request specifications."""


_KNOWN_KEYS = {
    "name",
    "functions",
    "edges",
    "commutations",
    "qos",
    "bandwidth_mbps",
    "source",
    "dest",
    "duration_s",
    "failure_req",
    "priority",
}

_KNOWN_QOS_KEYS = {"delay_ms", "loss_rate"}


@dataclass(frozen=True)
class RequestSpec:
    """A validated specification, ready to compile."""

    name: str
    function_graph: FunctionGraph
    qos: QoSRequirement
    source: int
    dest: int
    bandwidth_mbps: float
    duration_s: float
    failure_req: float
    priority: float

    def compile(self) -> CompositeRequest:
        return CompositeRequest.create(
            function_graph=self.function_graph,
            qos=self.qos,
            source_peer=self.source,
            dest_peer=self.dest,
            bandwidth=self.bandwidth_mbps,
            failure_req=self.failure_req,
            duration=self.duration_s,
            priority=self.priority,
        )


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _number(value: Any, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{key} must be a number, got {value!r}") from exc


def _pairs(raw: Any, key: str) -> List[Tuple[str, str]]:
    _require(
        isinstance(raw, Sequence) and not isinstance(raw, (str, bytes)),
        f"'{key}' must be a list of pairs",
    )
    pairs = []
    for pair in raw:
        _require(
            isinstance(pair, Sequence) and len(pair) == 2,
            f"{key} entry must be a pair, got {pair!r}",
        )
        pairs.append((str(pair[0]), str(pair[1])))
    return pairs


def compile_spec(spec: Mapping[str, Any]) -> RequestSpec:
    """Validate a spec mapping and build the internal representation.

    Unknown keys are rejected (a typo'd key silently ignored would make
    the request laxer than the user wrote), units are converted, and any
    malformed value raises :class:`SpecError`, never another exception.
    """
    _require(isinstance(spec, Mapping), f"spec must be a mapping, got {type(spec).__name__}")
    unknown = set(spec) - _KNOWN_KEYS
    _require(not unknown, f"unknown spec keys: {sorted(unknown)}")

    functions = spec.get("functions")
    _require(
        isinstance(functions, Sequence) and not isinstance(functions, (str, bytes)),
        "'functions' must be a list of function names",
    )
    functions = [str(f) for f in functions]
    _require(len(functions) >= 1, "at least one function is required")

    raw_edges = spec.get("edges")
    if raw_edges is None:
        graph_edges = list(zip(functions, functions[1:]))
    else:
        graph_edges = _pairs(raw_edges, "edges")
    commutations = _pairs(spec.get("commutations", []), "commutations")

    try:
        fg = FunctionGraph.from_edges(functions, graph_edges, commutations)
    except Exception as exc:
        raise SpecError(f"invalid function graph: {exc}") from exc

    qos_spec = spec.get("qos", {})
    _require(isinstance(qos_spec, Mapping), "'qos' must be a mapping")
    unknown_qos = set(qos_spec) - _KNOWN_QOS_KEYS
    _require(not unknown_qos, f"unknown qos keys: {sorted(unknown_qos)}")
    bounds: Dict[str, float] = {}
    if "delay_ms" in qos_spec:
        delay_ms = _number(qos_spec["delay_ms"], "delay_ms")
        _require(delay_ms > 0, f"delay_ms must be positive, got {delay_ms}")
        bounds["delay"] = delay_ms / 1000.0
    if "loss_rate" in qos_spec:
        loss = _number(qos_spec["loss_rate"], "loss_rate")
        _require(0.0 < loss < 1.0, f"loss_rate must be in (0,1), got {loss}")
        bounds["loss"] = loss_to_additive(loss)
    qos = QoSRequirement(bounds)

    source = spec.get("source")
    dest = spec.get("dest")
    _require(isinstance(source, int) and isinstance(dest, int),
             "'source' and 'dest' peer ids are required integers")
    _require(source != dest, "source and dest must differ")

    bandwidth = _number(spec.get("bandwidth_mbps", 0.5), "bandwidth_mbps")
    _require(bandwidth > 0, f"bandwidth_mbps must be positive, got {bandwidth}")
    duration = _number(spec.get("duration_s", 600.0), "duration_s")
    _require(duration > 0, f"duration_s must be positive, got {duration}")
    failure_req = _number(spec.get("failure_req", 0.05), "failure_req")
    _require(0.0 < failure_req <= 1.0, "failure_req must be in (0,1]")
    priority = _number(spec.get("priority", 1.0), "priority")
    _require(priority > 0, "priority must be positive")

    return RequestSpec(
        name=str(spec.get("name", "request")),
        function_graph=fg,
        qos=qos,
        source=source,
        dest=dest,
        bandwidth_mbps=bandwidth,
        duration_s=duration,
        failure_req=failure_req,
        priority=priority,
    )


def spec_from_request(
    request: CompositeRequest, name: str = "request"
) -> Dict[str, Any]:
    """Round-trip helper: serialise a request back to the spec format."""
    from ..core.qos import additive_to_loss

    qos: Dict[str, float] = {}
    if "delay" in request.qos.bounds:
        qos["delay_ms"] = request.qos.bounds["delay"] * 1000.0
    if "loss" in request.qos.bounds:
        qos["loss_rate"] = additive_to_loss(request.qos.bounds["loss"])
    fg = request.function_graph
    return {
        "name": name,
        "functions": list(fg.functions),
        "edges": [[a, b] for a, b in sorted(fg.edges)],
        "commutations": [sorted(p) for p in sorted(fg.commutations, key=sorted)],
        "qos": qos,
        "bandwidth_mbps": request.bandwidth,
        "source": request.source_peer,
        "dest": request.dest_peer,
        "duration_s": request.duration,
        "failure_req": request.failure_req,
        "priority": request.priority,
    }
